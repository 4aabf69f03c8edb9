#include "exec/table_ops.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>

#include "exec/batch.h"
#include "exec/hash_table.h"
#include "fr/algebra.h"

namespace mpfdb::exec {
namespace {

// The direct-address fold takes a packed range of up to kDenseSlotsPerRow
// slots per input row (never fewer than kDenseMinSlots); wider ranges fold
// into a SwissTable, whose size follows the groups instead of the range.
constexpr uint64_t kDenseSlotsPerRow = 4;
constexpr uint64_t kDenseMinSlots = 1024;

// Reads a table in kBatchSize-row column blocks through
// Table::ReadRangeColumnar.
class BlockReader {
 public:
  explicit BlockReader(const Table& t)
      : t_(t), cols_(t.schema().arity() * kBatchSize), measures_(kBatchSize) {}

  // Calls fn(n) once per block of n rows; during the call col(c)[r] and
  // measures()[r] hold the block's row r.
  template <class Fn>
  void ForEach(Fn&& fn) {
    const size_t rows = t_.NumRows();
    for (size_t start = 0; start < rows; start += kBatchSize) {
      const size_t n = std::min(kBatchSize, rows - start);
      t_.ReadRangeColumnar(start, n, kBatchSize, cols_.data(),
                           measures_.data());
      fn(n);
    }
  }

  const VarValue* col(size_t c) const { return cols_.data() + c * kBatchSize; }
  const double* measures() const { return measures_.data(); }

 private:
  const Table& t_;
  std::vector<VarValue> cols_;
  std::vector<double> measures_;
};

// Mixed-radix packing of a key's positions: position j contributes
// (v - min_j) scaled by the radices of the positions after it, so the first
// position is the most significant and ascending packed keys are the
// lexicographic order of the key values.
class KeyPacker {
 public:
  explicit KeyPacker(size_t width)
      : min_(width, std::numeric_limits<VarValue>::max()),
        max_(width, std::numeric_limits<VarValue>::min()),
        radix_(width) {}

  // Widens position j's range to cover col[0, n).
  void Observe(size_t j, const VarValue* col, size_t n) {
    VarValue lo = min_[j], hi = max_[j];
    for (size_t r = 0; r < n; ++r) {
      lo = std::min(lo, col[r]);
      hi = std::max(hi, col[r]);
    }
    min_[j] = lo;
    max_[j] = hi;
  }

  // Fixes the radices after every value was observed (at least one per
  // position). False when the packed range does not fit in 64 bits.
  bool Finish() {
    range_ = 1;
    for (size_t j = 0; j < radix_.size(); ++j) {
      const int64_t span = int64_t{max_[j]} - int64_t{min_[j]};
      radix_[j] = static_cast<uint64_t>(span) + 1;
      if (__builtin_mul_overflow(range_, radix_[j], &range_)) return false;
    }
    return true;
  }

  // Packed keys lie in [0, range()).
  uint64_t range() const { return range_; }

  // keys[r] = the packed key of row r, where cols[j] is position j's column.
  void Pack(const VarValue* const* cols, size_t n, uint64_t* keys) const {
    std::fill(keys, keys + n, 0);
    for (size_t j = 0; j < radix_.size(); ++j) {
      const VarValue* col = cols[j];
      const int64_t lo = min_[j];
      const uint64_t radix = radix_[j];
      for (size_t r = 0; r < n; ++r) {
        keys[r] = keys[r] * radix + static_cast<uint64_t>(col[r] - lo);
      }
    }
  }

  void Unpack(uint64_t key, VarValue* out) const {
    for (size_t j = radix_.size(); j-- > 0;) {
      out[j] = static_cast<VarValue>(min_[j] +
                                     static_cast<int64_t>(key % radix_[j]));
      key /= radix_[j];
    }
  }

 private:
  std::vector<VarValue> min_, max_;
  std::vector<uint64_t> radix_;
  uint64_t range_ = 1;
};

// Column indices of `names` in `schema` (every name must be present).
std::vector<size_t> ColumnsOf(const Schema& schema,
                              const std::vector<std::string>& names) {
  std::vector<size_t> cols;
  cols.reserve(names.size());
  for (const auto& name : names) cols.push_back(*schema.IndexOf(name));
  return cols;
}

// Observes `t`'s key columns `cols` into `packer` and returns pointers to
// those columns inside `reader`'s block buffers (stable across blocks).
std::vector<const VarValue*> ObserveKeys(BlockReader& reader,
                                         const std::vector<size_t>& cols,
                                         KeyPacker* packer) {
  reader.ForEach([&](size_t n) {
    for (size_t j = 0; j < cols.size(); ++j) {
      packer->Observe(j, reader.col(cols[j]), n);
    }
  });
  std::vector<const VarValue*> ptrs;
  ptrs.reserve(cols.size());
  for (size_t c : cols) ptrs.push_back(reader.col(c));
  return ptrs;
}

}  // namespace

StatusOr<TablePtr> MarginalizeTable(const Table& t,
                                    const std::vector<std::string>& group_vars,
                                    const Semiring& semiring,
                                    const std::string& result_name) {
  const Schema& schema = t.schema();
  for (const auto& name : group_vars) {
    if (!schema.HasVariable(name)) {
      return Status::InvalidArgument("group variable '" + name +
                                     "' not in relation " + t.name());
    }
  }
  auto result = std::make_shared<Table>(
      result_name, Schema(group_vars, schema.measure_name()));
  if (t.Empty()) return result;

  const size_t width = group_vars.size();
  BlockReader reader(t);
  KeyPacker packer(width);
  const std::vector<const VarValue*> key_cols =
      ObserveKeys(reader, ColumnsOf(schema, group_vars), &packer);
  if (!packer.Finish()) {
    return fr::Marginalize(t, group_vars, semiring, result_name);
  }

  // Each group folds its rows in row order, seeded with its first measure.
  // groups: (packed key, folded measure), ascending by key once folded.
  std::vector<std::pair<uint64_t, double>> groups;
  std::vector<uint64_t> keys(kBatchSize);
  const uint64_t range = packer.range();
  const uint64_t rows = t.NumRows();
  if (range <= std::max(kDenseMinSlots, kDenseSlotsPerRow * rows)) {
    std::vector<double> acc(range);
    std::vector<uint8_t> seen(range, 0);
    DispatchAdd(semiring, [&](auto add) {
      reader.ForEach([&](size_t n) {
        packer.Pack(key_cols.data(), n, keys.data());
        const double* m = reader.measures();
        for (size_t r = 0; r < n; ++r) {
          const uint64_t k = keys[r];
          if (seen[k]) {
            acc[k] = add(acc[k], m[r]);
          } else {
            seen[k] = 1;
            acc[k] = m[r];
          }
        }
      });
    });
    for (uint64_t k = 0; k < range; ++k) {
      if (seen[k]) groups.emplace_back(k, acc[k]);
    }
  } else {
    SwissTable<uint32_t> index(rows);
    DispatchAdd(semiring, [&](auto add) {
      reader.ForEach([&](size_t n) {
        packer.Pack(key_cols.data(), n, keys.data());
        const double* m = reader.measures();
        for (size_t r = 0; r < n; ++r) {
          auto [slot, inserted] = index.FindOrInsert(
              keys[r], static_cast<uint32_t>(groups.size()));
          if (inserted) {
            groups.emplace_back(keys[r], m[r]);
          } else {
            groups[*slot].second = add(groups[*slot].second, m[r]);
          }
        }
      });
    });
    std::sort(groups.begin(), groups.end());  // keys are distinct
  }

  std::vector<VarValue> out_vars(groups.size() * width);
  std::vector<double> out_measures(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    packer.Unpack(groups[g].first, out_vars.data() + g * width);
    out_measures[g] = groups[g].second;
  }
  result->AppendRows(out_vars.data(), out_measures.data(), groups.size());
  return result;
}

StatusOr<TablePtr> JoinTables(const Table& a, const Table& b,
                              const Semiring& semiring,
                              const std::string& result_name, bool divide) {
  if (divide && !semiring.HasDivision()) {
    return Status::FailedPrecondition("semiring '" + semiring.name() +
                                      "' has no division");
  }
  const Schema& sa = a.schema();
  const Schema& sb = b.schema();
  const std::vector<std::string> shared =
      varset::Intersect(sa.variables(), sb.variables());
  const std::vector<size_t> b_extra =
      ColumnsOf(sb, varset::Difference(sb.variables(), sa.variables()));
  auto result = std::make_shared<Table>(
      result_name, Schema(varset::Union(sa.variables(), sb.variables()),
                          sa.measure_name()));
  if (a.Empty() || b.Empty()) return result;

  BlockReader reader_a(a), reader_b(b);
  KeyPacker packer(shared.size());
  const std::vector<const VarValue*> a_key =
      ObserveKeys(reader_a, ColumnsOf(sa, shared), &packer);
  const std::vector<const VarValue*> b_key =
      ObserveKeys(reader_b, ColumnsOf(sb, shared), &packer);
  if (!packer.Finish()) {
    return divide ? fr::DivisionJoin(a, b, semiring, result_name)
                  : fr::ProductJoin(a, b, semiring, result_name);
  }

  // Build on b: its (packed key, row) pairs sorted by key, with the columns
  // it adds to the output and its measures copied out.
  const size_t nb = b.NumRows();
  const size_t extra = b_extra.size();
  std::vector<std::pair<uint64_t, uint32_t>> b_rows;
  b_rows.reserve(nb);
  std::vector<VarValue> b_vars(nb * extra);
  std::vector<double> b_measures(nb);
  std::vector<uint64_t> keys(kBatchSize);
  size_t base = 0;
  reader_b.ForEach([&](size_t n) {
    packer.Pack(b_key.data(), n, keys.data());
    for (size_t r = 0; r < n; ++r) {
      b_rows.emplace_back(keys[r], static_cast<uint32_t>(base + r));
    }
    for (size_t c = 0; c < extra; ++c) {
      const VarValue* col = reader_b.col(b_extra[c]);
      for (size_t r = 0; r < n; ++r) b_vars[(base + r) * extra + c] = col[r];
    }
    std::copy(reader_b.measures(), reader_b.measures() + n,
              b_measures.begin() + static_cast<ptrdiff_t>(base));
    base += n;
  });
  std::sort(b_rows.begin(), b_rows.end());

  // Probe with a. A product join multiplies in fr::ProductJoin's operand
  // order (the larger input first) so even NaN payloads match it.
  const bool b_first = !divide && a.NumRows() < nb;
  const size_t arity_a = sa.arity();
  std::vector<VarValue> out_vars;
  std::vector<double> out_measures;
  reader_a.ForEach([&](size_t n) {
    packer.Pack(a_key.data(), n, keys.data());
    const double* am = reader_a.measures();
    for (size_t r = 0; r < n; ++r) {
      auto match = std::lower_bound(b_rows.begin(), b_rows.end(),
                                    std::make_pair(keys[r], uint32_t{0}));
      for (; match != b_rows.end() && match->first == keys[r]; ++match) {
        const uint32_t j = match->second;
        for (size_t c = 0; c < arity_a; ++c) {
          out_vars.push_back(reader_a.col(c)[r]);
        }
        out_vars.insert(out_vars.end(), b_vars.begin() + j * extra,
                        b_vars.begin() + (j + 1) * extra);
        const double bm = b_measures[j];
        if (divide) {
          out_measures.push_back(semiring.Divide(am[r], bm));
        } else if (b_first) {
          out_measures.push_back(semiring.Multiply(bm, am[r]));
        } else {
          out_measures.push_back(semiring.Multiply(am[r], bm));
        }
      }
    }
  });
  result->AppendRows(out_vars.data(), out_measures.data(),
                     out_measures.size());
  std::vector<size_t> all(result->schema().arity());
  std::iota(all.begin(), all.end(), 0);
  result->SortByVariables(all);
  return result;
}

TablePtr FilterMeasureTable(const Table& t, const HavingClause& having,
                            const std::string& result_name) {
  auto result = std::make_shared<Table>(result_name, t.schema());
  for (size_t i = 0; i < t.NumRows(); ++i) {
    RowView row = t.Row(i);
    if (EvalCompare(having.op, row.measure, having.threshold)) {
      result->AppendRowRaw(row.vars, row.measure);
    }
  }
  return result;
}

}  // namespace mpfdb::exec
