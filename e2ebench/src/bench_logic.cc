#include "bench_logic.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace mpfdb::e2ebench {

RequestStream::RequestStream(const StreamShape& shape, uint64_t seed,
                             int client)
    : shape_(shape),
      client_(client),
      // Distinct, seed-derived state per client.
      rng_(SplitMix64(seed ^ (0x5eedULL + static_cast<uint64_t>(client)))
               .Next()) {}

void RequestStream::RefillBlock() {
  block_.clear();
  block_pos_ = 0;
  if (shape_.bn_vars > 0) {
    block_.push_back(-2);
    return;
  }
  for (size_t i = 0; i < shape_.read_block.size(); ++i) {
    for (int k = 0; k < shape_.read_block[i].second; ++k) {
      block_.push_back(static_cast<int>(i));
    }
  }
  for (int k = 0; k < shape_.writes_per_block; ++k) block_.push_back(-1);
  for (size_t i = block_.size(); i > 1; --i) {
    std::swap(block_[i - 1], block_[rng_.UniformBelow(i)]);
  }
}

Request RequestStream::Next() {
  if (block_pos_ >= block_.size()) RefillBlock();
  const int slot = block_[block_pos_++];
  Request r;
  r.id = (static_cast<uint64_t>(client_) << 40) | seq_++;
  if (slot == -1) {
    r.kind = OpKind::kUpdate;
    const uint64_t clients = static_cast<uint64_t>(shape_.clients);
    const uint64_t mine =
        (shape_.update_rows - static_cast<uint64_t>(client_) + clients - 1) /
        clients;
    r.update_row =
        rng_.UniformBelow(mine) * clients + static_cast<uint64_t>(client_);
    r.update_serial = writes_++;
  } else if (slot == -2) {
    r.kind = shape_.read_kind;
    const uint64_t n = static_cast<uint64_t>(shape_.bn_vars);
    const uint64_t q = rng_.UniformBelow(n);
    uint64_t e = rng_.UniformBelow(n - 1);
    if (e >= q) ++e;
    const VarValue v = static_cast<VarValue>(
        rng_.UniformBelow(static_cast<uint64_t>(shape_.bn_domain)));
    r.spec.group_vars = {"x" + std::to_string(q)};
    r.spec.selections = {{"x" + std::to_string(e), v}};
    r.restricted = true;
  } else {
    r.kind = shape_.read_kind;
    r.spec = shape_.read_block[static_cast<size_t>(slot)].first;
    r.restricted = !r.spec.selections.empty();
  }
  return r;
}

namespace {

void AppendU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void AppendString(const std::string& s, std::string* out) {
  AppendU64(s.size(), out);
  out->append(s);
}

}  // namespace

void EncodeRequest(const Request& r, std::string* out) {
  AppendU64(r.id, out);
  out->push_back(static_cast<char>(r.kind));
  AppendU64(r.spec.group_vars.size(), out);
  for (const auto& v : r.spec.group_vars) AppendString(v, out);
  AppendU64(r.spec.selections.size(), out);
  for (const auto& s : r.spec.selections) {
    AppendString(s.var, out);
    AppendU64(static_cast<uint64_t>(s.value), out);
  }
  AppendU64(r.update_row, out);
  AppendU64(r.update_serial, out);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  if (rank < 1) rank = 1;
  if (rank > values.size()) rank = values.size();
  return values[rank - 1];
}

bool PercentileSupported(size_t n, double q, size_t min_beyond) {
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n > 0 && n - std::min(rank, n) >= min_beyond;
}

uint64_t SpanLog::Add(uint64_t parent, uint64_t request, std::string name,
                      int64_t start_ns, int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.request = request;
  s.name = std::move(name);
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                 "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

std::map<uint64_t, int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::map<uint64_t, int64_t> self;
  for (const Span& s : spans) self[s.id] += s.duration_ns();
  for (const Span& s : spans) {
    if (s.parent != 0) self[s.parent] -= s.duration_ns();
  }
  return self;
}

int64_t ClosureError(const std::vector<Span>& spans, const std::string& gap) {
  const std::map<uint64_t, int64_t> self = SelfTimes(spans);
  int64_t error = 0;
  for (const Span& s : spans) {
    const int64_t t = self.at(s.id);
    if (s.name == gap) {
      error += t < 0 ? -t : t;
    } else if (t < 0) {
      error -= t;
    }
  }
  return error;
}

uint64_t TableBitsHash(const Table& table) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& var : table.schema().variables()) {
    mix(var.data(), var.size());
    mix("\0", 1);
  }
  for (size_t i = 0; i < table.NumRows(); ++i) {
    RowView row = table.Row(i);
    mix(row.vars, row.arity * sizeof(VarValue));
    const double m = table.measure(i);
    mix(&m, sizeof(m));
  }
  return h;
}

bool SameBits(const Table& a, const Table& b) {
  if (a.schema().variables() != b.schema().variables()) return false;
  if (a.NumRows() != b.NumRows()) return false;
  for (size_t i = 0; i < a.NumRows(); ++i) {
    RowView ra = a.Row(i), rb = b.Row(i);
    if (std::memcmp(ra.vars, rb.vars, ra.arity * sizeof(VarValue)) != 0) {
      return false;
    }
    const double ma = a.measure(i), mb = b.measure(i);
    if (std::memcmp(&ma, &mb, sizeof(double)) != 0) return false;
  }
  return true;
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    // %.17g keeps every digit of the measured double.
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace mpfdb::e2ebench
