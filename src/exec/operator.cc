#include "exec/operator.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <deque>

#include "exec/spill.h"
#include "exec/thread_pool.h"

namespace mpfdb::exec {
namespace {

constexpr size_t kNpos = static_cast<size_t>(-1);
constexpr uint32_t kNoChain = 0xffffffffu;

// Deterministic per-entry footprint estimates for memory accounting. They
// do not chase malloc's exact behavior; what matters is that charges are
// repeatable, roughly proportional to real usage, and made BEFORE growth so
// the budget is a ceiling rather than a post-mortem.
constexpr size_t kHashEntryOverhead = 48;     // node + bucket, amortized
constexpr size_t kPackedAggEntryBytes = 24;   // open-addressing slot at load

size_t RowFootprint(size_t arity) {
  return arity * sizeof(VarValue) + sizeof(double);
}

struct KeyHash {
  size_t operator()(const std::vector<VarValue>& key) const {
    uint64_t h = 1469598103934665603ull;
    for (VarValue v : key) {
      uint32_t u = static_cast<uint32_t>(v);
      for (int i = 0; i < 4; ++i) {
        h ^= (u >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
      }
    }
    return static_cast<size_t>(h);
  }
};

// std::vector<VarValue> keys over a SwissBytesTable: the raw key bytes are
// hashed and interned (no per-row vector allocation, memcmp compare).
// ForEach hands each key back as a vector decoded into one scratch vector
// reused across entries.
template <typename V>
class VecKeyMap {
 public:
  std::pair<V*, bool> FindOrInsert(const std::vector<VarValue>& key,
                                   const V& init) {
    return table_.FindOrInsert(key.data(), key.size() * sizeof(VarValue),
                               init);
  }
  V* Find(const std::vector<VarValue>& key) {
    return table_.Find(key.data(), key.size() * sizeof(VarValue));
  }
  size_t size() const { return table_.size(); }
  void clear() { table_ = SwissBytesTable<V>(); }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    std::vector<VarValue> key;
    table_.ForEach([&](const char* bytes, size_t len, const V& val) {
      fn(DecodeKey(bytes, len, &key), val);
    });
  }
  template <typename Fn>
  void ForEachMutable(Fn&& fn) {
    std::vector<VarValue> key;
    table_.ForEachMutable([&](const char* bytes, size_t len, V& val) {
      fn(DecodeKey(bytes, len, &key), val);
    });
  }

 private:
  static const std::vector<VarValue>& DecodeKey(const char* bytes, size_t len,
                                                std::vector<VarValue>* key) {
    key->resize(len / sizeof(VarValue));
    if (len > 0) std::memcpy(key->data(), bytes, len);
    return *key;
  }

  SwissBytesTable<V> table_;
};

std::vector<size_t> IndicesOf(const Schema& schema,
                              const std::vector<std::string>& names) {
  std::vector<size_t> indices;
  indices.reserve(names.size());
  for (const auto& name : names) indices.push_back(*schema.IndexOf(name));
  return indices;
}

// Computes the join output schema and per-side column mappings.
struct JoinLayout {
  Schema schema;
  std::vector<std::string> shared;
  std::vector<size_t> shared_left;
  std::vector<size_t> shared_right;
  std::vector<size_t> out_from_left;   // output col -> left col or kNpos
  std::vector<size_t> out_from_right;  // output col -> right col or kNpos
};

JoinLayout MakeJoinLayout(const Schema& left, const Schema& right) {
  JoinLayout layout;
  layout.shared = varset::Intersect(left.variables(), right.variables());
  std::vector<std::string> out_vars =
      varset::Union(left.variables(), right.variables());
  layout.schema = Schema(out_vars, left.measure_name());
  layout.shared_left = IndicesOf(left, layout.shared);
  layout.shared_right = IndicesOf(right, layout.shared);
  layout.out_from_left.resize(out_vars.size(), kNpos);
  layout.out_from_right.resize(out_vars.size(), kNpos);
  for (size_t c = 0; c < out_vars.size(); ++c) {
    if (auto idx = left.IndexOf(out_vars[c])) {
      layout.out_from_left[c] = *idx;
    } else {
      layout.out_from_right[c] = *right.IndexOf(out_vars[c]);
    }
  }
  return layout;
}

// Spill partition for a key hash. The TOP bits are used so the choice stays
// independent of the low bits the per-partition hash tables mask on —
// otherwise every key in a partition would collide into 1/16th of the table.
size_t SpillPartOf(size_t hash) {
  static_assert((kSpillPartitions & (kSpillPartitions - 1)) == 0,
                "partition count must be a power of two");
  return (hash >> 60) & (kSpillPartitions - 1);
}

// Creates one spill run per partition, each holding records of `arity`
// VarValues plus a measure.
StatusOr<std::vector<std::unique_ptr<SpillFile>>> MakeSpillPartitions(
    QueryContext* ctx, size_t arity) {
  std::vector<std::unique_ptr<SpillFile>> parts(kSpillPartitions);
  for (auto& part : parts) {
    MPFDB_ASSIGN_OR_RETURN(part, SpillFile::Create(ctx->NextSpillPath(), arity));
  }
  return parts;
}

// Re-aggregates spilled (group key, measure) records partition by partition,
// appending the resulting groups to `entries` (unsorted). Within a key the
// records appear in the file in arrival order with the pre-spill partial
// aggregate first, so the semiring Adds replay in exactly the order the
// in-memory table would have applied them — results stay bit-identical.
Status DrainAggSpill(std::vector<std::unique_ptr<SpillFile>>& parts,
                     const Semiring& semiring, size_t nkeys, QueryContext* ctx,
                     std::vector<std::pair<std::vector<VarValue>, double>>* entries) {
  std::vector<VarValue> key(nkeys);
  double measure = 0;
  for (auto& part : parts) {
    ctx->RecordSpill(part->num_rows(), part->bytes_written());
    MPFDB_RETURN_IF_ERROR(part->Rewind());
    // Each partition's table holds ~1/kSpillPartitions of the groups; its
    // transient footprint is tracked but not failed (a single partition is
    // the smallest unit this strategy can degrade to).
    MemoryGuard part_memory(ctx);
    VecKeyMap<double> table;
    while (true) {
      MPFDB_ASSIGN_OR_RETURN(bool has, part->Next(key.data(), &measure));
      if (!has) break;
      MPFDB_RETURN_IF_ERROR(ctx->Poll(1));
      auto [slot, inserted] = table.FindOrInsert(key, measure);
      if (inserted) {
        part_memory.ChargeUnchecked(kHashEntryOverhead + RowFootprint(nkeys));
      } else {
        *slot = semiring.Add(*slot, measure);
      }
    }
    table.ForEach([&](const std::vector<VarValue>& k, const double& m) {
      entries->emplace_back(k, m);
    });
    part.reset();  // unlink the run as soon as it is drained
  }
  return Status::Ok();
}

// Builds a packed-key codec for `vars` from the catalog's domain statistics,
// or nullopt when there is no catalog, a variable is unregistered, or the
// key does not fit in 64 bits.
std::optional<PackedKeyCodec> MakeCodecFor(
    const Catalog* catalog, const std::vector<std::string>& vars) {
  if (catalog == nullptr) return std::nullopt;
  std::vector<int64_t> domains;
  domains.reserve(vars.size());
  for (const auto& var : vars) {
    auto domain = catalog->DomainSize(var);
    if (!domain.ok()) return std::nullopt;
    domains.push_back(*domain);
  }
  return PackedKeyCodec::Make(domains);
}

Status PackedDomainViolation(const char* op) {
  return Status::InvalidArgument(
      std::string(op) +
      ": key value outside its variable's declared catalog domain; cannot "
      "pack the key");
}

// The shape of the semiring's Multiply, resolved once per pipeline so the
// batch emit loops can inline the arithmetic. The fast paths perform exactly
// the IEEE operation Semiring::Multiply performs, so results stay
// bit-identical to Semiring::Multiply (and to the fr reference algebra).
enum class MulOp { kTimes, kPlus, kGeneric };

MulOp MulOpFor(const Semiring& semiring) {
  switch (semiring.kind()) {
    case SemiringKind::kSumProduct:
    case SemiringKind::kMaxProduct:
      return MulOp::kTimes;
    case SemiringKind::kMinSum:
    case SemiringKind::kMaxSum:
    case SemiringKind::kLogSumProduct:
      return MulOp::kPlus;
    default:
      return MulOp::kGeneric;
  }
}

// Compacts `batch` in place to the rows listed in `sel` (ascending).
void CompactBatch(RowBatch* batch, const std::vector<uint32_t>& sel) {
  for (size_t c = 0; c < batch->arity(); ++c) {
    VarValue* col = batch->col(c);
    for (size_t i = 0; i < sel.size(); ++i) col[i] = col[sel[i]];
  }
  double* measures = batch->measures();
  for (size_t i = 0; i < sel.size(); ++i) measures[i] = measures[sel[i]];
  batch->set_num_rows(sel.size());
}

// --- Morsel parallelism helpers --------------------------------------------

// The pool driving a parallel batch pipeline, or null when execution stays
// on the calling thread.
ThreadPool* PoolOf(QueryContext* ctx) {
  if (ctx == nullptr) return nullptr;
  ThreadPool* pool = ctx->thread_pool();
  return (pool != nullptr && pool->num_threads() > 1) ? pool : nullptr;
}

// Morsels per pipeline: aim for ~16K source rows each so claims amortize the
// per-stream setup, but never fewer than one per worker (otherwise cores sit
// idle) and never more than 8 per worker (clone state is not free). The
// count only shapes scheduling; results are identical for every choice.
size_t MorselCount(size_t source_rows, size_t num_threads) {
  constexpr size_t kMorselRows = 16 * 1024;
  const size_t by_rows =
      source_rows == 0 ? 1 : (source_rows + kMorselRows - 1) / kMorselRows;
  return std::clamp(by_rows, num_threads, 8 * num_threads);
}

// Splits [0, total) into exactly `n` contiguous ranges in order (some may be
// empty). Deterministic: stream i always covers the same rows, so outputs
// concatenated by stream index reproduce the serial row order.
std::vector<std::pair<size_t, size_t>> SplitRanges(size_t total, size_t n) {
  std::vector<std::pair<size_t, size_t>> ranges;
  ranges.reserve(n);
  const size_t chunk = total / n;
  const size_t extra = total % n;
  size_t begin = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t len = chunk + (i < extra ? 1 : 0);
    ranges.emplace_back(begin, begin + len);
    begin += len;
  }
  return ranges;
}

// Key-hash partitions for parallel aggregation. Uses bits 56..59 so the
// choice is independent of both the low bits the Swiss tables mask on and the
// top-4 bits SpillPartOf uses — a spill triggered mid-parallel run must not
// see all of a partition's keys collide into one spill file.
constexpr size_t kAggPartitions = 16;
size_t AggPartOf(size_t hash) {
  static_assert((kAggPartitions & (kAggPartitions - 1)) == 0,
                "partition count must be a power of two");
  return (hash >> 56) & (kAggPartitions - 1);
}

// Dispatches `body` with a monomorphized Add for each built-in semiring so
// hot accumulate loops inline the arithmetic. Every fast path performs
// exactly the IEEE operation Semiring::Add performs; serial and parallel
// folds both go through here, so their per-key arithmetic is identical.
template <class Body>
void DispatchAdd(const Semiring& semiring, Body&& body) {
  switch (semiring.kind()) {
    case SemiringKind::kSumProduct:
      body([](double a, double b) { return a + b; });
      break;
    case SemiringKind::kMinSum:
      body([](double a, double b) { return std::min(a, b); });
      break;
    case SemiringKind::kMaxSum:
    case SemiringKind::kMaxProduct:
      body([](double a, double b) { return std::max(a, b); });
      break;
    default:
      body([&semiring](double a, double b) { return semiring.Add(a, b); });
      break;
  }
}

// Range-restricted scan over an in-memory table: one morsel of a SeqScan.
class SeqScanRangeStream : public PhysicalOperator {
 public:
  SeqScanRangeStream(TablePtr table, size_t begin, size_t end)
      : table_(std::move(table)), begin_(begin), end_(end) {}

  Status Open() override {
    next_row_ = begin_;
    return Status::Ok();
  }
  StatusOr<bool> NextBatch(RowBatch* batch) override {
    batch->Prepare(table_->schema().arity());
    if (next_row_ >= end_) return false;
    const size_t n = std::min(kBatchSize, end_ - next_row_);
    MPFDB_RETURN_IF_ERROR(PollContext(n));
    table_->ReadRangeColumnar(next_row_, n, kBatchSize, batch->col(0),
                              batch->measures());
    batch->set_num_rows(n);
    next_row_ += n;
    return true;
  }
  void Close() override {}
  const Schema& output_schema() const override { return table_->schema(); }
  std::string name() const override {
    return "SeqScanRange(" + table_->name() + ")";
  }

 private:
  TablePtr table_;
  size_t begin_, end_;
  size_t next_row_ = 0;
};

// Batch reader over a row-major materialized result owned by a blocking
// operator (HashMarginalize's sorted groups). The owner must outlive the
// stream.
class MaterializedRangeStream : public PhysicalOperator {
 public:
  MaterializedRangeStream(Schema schema, const VarValue* vars,
                          const double* measures, size_t begin, size_t end)
      : schema_(std::move(schema)),
        vars_(vars),
        measures_(measures),
        begin_(begin),
        end_(end) {}

  Status Open() override {
    next_row_ = begin_;
    return Status::Ok();
  }
  StatusOr<bool> NextBatch(RowBatch* batch) override {
    const size_t arity = schema_.arity();
    batch->Prepare(arity);
    if (next_row_ >= end_) return false;
    const size_t n = std::min(kBatchSize, end_ - next_row_);
    MPFDB_RETURN_IF_ERROR(PollContext(n));
    for (size_t c = 0; c < arity; ++c) {
      VarValue* out = batch->col(c);
      const VarValue* in = vars_ + next_row_ * arity + c;
      for (size_t r = 0; r < n; ++r) out[r] = in[r * arity];
    }
    std::copy(measures_ + next_row_, measures_ + next_row_ + n,
              batch->measures());
    batch->set_num_rows(n);
    next_row_ += n;
    return true;
  }
  void Close() override {}
  const Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "MaterializedRange"; }

 private:
  Schema schema_;
  const VarValue* vars_;
  const double* measures_;
  size_t begin_, end_;
  size_t next_row_ = 0;
};

// Wraps each of the child's morsel streams in a fresh copy of a streaming
// unary operator built by `wrap`. Shared by Filter/MeasureFilter/
// StreamProject, whose per-stream state is rebuilt by their own Open.
template <class Wrap>
StatusOr<std::vector<OperatorPtr>> WrapChildStreams(PhysicalOperator& child,
                                                    size_t n, Wrap&& wrap) {
  MPFDB_ASSIGN_OR_RETURN(std::vector<OperatorPtr> streams,
                         child.MakeMorselStreams(n));
  std::vector<OperatorPtr> wrapped;
  wrapped.reserve(streams.size());
  for (auto& stream : streams) wrapped.push_back(wrap(std::move(stream)));
  return wrapped;
}

// Drains `op` through morsel streams, one pool task per stream, buffering
// each stream's rows separately and appending the buffers to `table` in
// stream-index order — exactly the serial row order. Returns false when the
// operator cannot split (no pool, unsupported shape, spill mode); the
// caller then drains serially.
StatusOr<bool> TryRunParallel(PhysicalOperator& op, Table* table,
                                   QueryContext* ctx) {
  ThreadPool* pool = PoolOf(ctx);
  if (pool == nullptr || !op.SupportsMorselStreams()) return false;
  auto streams_or = op.MakeMorselStreams(
      MorselCount(op.MorselSourceRows(), pool->num_threads()));
  if (!streams_or.ok()) return streams_or.status();
  std::vector<OperatorPtr> streams = std::move(*streams_or);
  if (streams.empty()) return false;

  const size_t arity = op.output_schema().arity();
  struct Chunk {
    std::vector<VarValue> vars;  // row-major
    std::vector<double> measures;
  };
  std::vector<Chunk> chunks(streams.size());
  Status run = pool->ParallelFor(streams.size(), [&](size_t i) -> Status {
    PhysicalOperator& stream = *streams[i];
    stream.BindContext(ctx);
    Status opened = stream.Open();
    if (!opened.ok()) {
      stream.Close();
      return opened;
    }
    Chunk& chunk = chunks[i];
    RowBatch batch;
    Status result = Status::Ok();
    while (true) {
      auto has = stream.NextBatch(&batch);
      if (!has.ok()) {
        result = has.status();
        break;
      }
      if (!*has) break;
      const size_t n = batch.num_rows();
      Status live = ctx->Poll(n);
      if (!live.ok()) {
        result = live;
        break;
      }
      const size_t base = chunk.measures.size();
      chunk.vars.resize((base + n) * arity);
      for (size_t c = 0; c < arity; ++c) {
        const VarValue* col = batch.col(c);
        VarValue* out = chunk.vars.data() + base * arity + c;
        for (size_t r = 0; r < n; ++r) out[r * arity] = col[r];
      }
      chunk.measures.insert(chunk.measures.end(), batch.measures(),
                            batch.measures() + n);
    }
    stream.Close();
    return result;
  });
  MPFDB_RETURN_IF_ERROR(run);
  for (const Chunk& chunk : chunks) {
    for (size_t r = 0; r < chunk.measures.size(); ++r) {
      table->AppendRowRaw(chunk.vars.data() + r * arity, chunk.measures[r]);
    }
  }
  return true;
}

}  // namespace

StatusOr<TablePtr> Run(PhysicalOperator& op, const std::string& result_name,
                       QueryContext* ctx) {
  Status opened = op.Open();
  if (!opened.ok()) {
    op.Close();
    return opened;
  }
  auto table = std::make_shared<Table>(result_name, op.output_schema());
  auto parallel = TryRunParallel(op, table.get(), ctx);
  if (!parallel.ok()) {
    op.Close();
    return parallel.status();
  }
  if (*parallel) {
    op.Close();
    return table;
  }
  const size_t arity = op.output_schema().arity();
  RowBatch batch;
  std::vector<VarValue> row(arity);
  while (true) {
    auto has = op.NextBatch(&batch);
    if (!has.ok()) {
      op.Close();
      return has.status();
    }
    if (!*has) break;
    const size_t n = batch.num_rows();
    if (ctx != nullptr) {
      Status live = ctx->Poll(n);
      if (!live.ok()) {
        op.Close();
        return live;
      }
    }
    const double* measures = batch.measures();
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = 0; c < arity; ++c) row[c] = batch.col(c)[r];
      table->AppendRowRaw(row.data(), measures[r]);
    }
  }
  op.Close();
  return table;
}

// --- SeqScan ---------------------------------------------------------------

Status SeqScan::Open() {
  next_row_ = 0;
  return Status::Ok();
}

StatusOr<bool> SeqScan::NextBatch(RowBatch* batch) {
  batch->Prepare(table_->schema().arity());
  const size_t total = table_->NumRows();
  if (next_row_ >= total) return false;
  const size_t n = std::min(kBatchSize, total - next_row_);
  MPFDB_RETURN_IF_ERROR(PollContext(n));
  table_->ReadRangeColumnar(next_row_, n, kBatchSize, batch->col(0),
                            batch->measures());
  batch->set_num_rows(n);
  next_row_ += n;
  return true;
}

void SeqScan::Close() {}

StatusOr<std::vector<OperatorPtr>> SeqScan::MakeMorselStreams(size_t n) {
  std::vector<OperatorPtr> streams;
  streams.reserve(n);
  for (auto [begin, end] : SplitRanges(table_->NumRows(), n)) {
    streams.push_back(std::make_unique<SeqScanRangeStream>(table_, begin, end));
  }
  return streams;
}

// --- IndexScan ---------------------------------------------------------------

Status IndexScan::Open() {
  if (index_ == nullptr) {
    return Status::FailedPrecondition("IndexScan without an index");
  }
  if (index_->indexed_rows() != table_->NumRows()) {
    return Status::FailedPrecondition(
        "index on " + table_->name() +
        " is stale (table changed since the index was built)");
  }
  matches_ = &index_->Lookup(value_);
  cursor_ = 0;
  return Status::Ok();
}

StatusOr<bool> IndexScan::NextBatch(RowBatch* batch) {
  const size_t arity = table_->schema().arity();
  batch->Prepare(arity);
  if (matches_ == nullptr || cursor_ >= matches_->size()) return false;
  const size_t n = std::min(kBatchSize, matches_->size() - cursor_);
  MPFDB_RETURN_IF_ERROR(PollContext(n));
  for (size_t r = 0; r < n; ++r) {
    RowView view = table_->Row((*matches_)[cursor_ + r]);
    for (size_t c = 0; c < arity; ++c) batch->col(c)[r] = view.vars[c];
    batch->measures()[r] = view.measure;
  }
  batch->set_num_rows(n);
  cursor_ += n;
  return true;
}

// --- Filter ----------------------------------------------------------------

Filter::Filter(OperatorPtr child, std::string var, VarValue value)
    : child_(std::move(child)), var_(std::move(var)), value_(value) {}

Status Filter::Open() {
  auto idx = child_->output_schema().IndexOf(var_);
  if (!idx) {
    return Status::InvalidArgument("filter variable '" + var_ +
                                   "' not in child schema");
  }
  var_index_ = *idx;
  return child_->Open();
}

StatusOr<bool> Filter::NextBatch(RowBatch* batch) {
  while (true) {
    MPFDB_ASSIGN_OR_RETURN(bool has, child_->NextBatch(batch));
    if (!has) return false;
    const size_t n = batch->num_rows();
    const VarValue* key = batch->col(var_index_);
    sel_.clear();
    for (size_t r = 0; r < n; ++r) {
      if (key[r] == value_) sel_.push_back(static_cast<uint32_t>(r));
    }
    if (sel_.size() == n) return true;
    if (!sel_.empty()) {
      CompactBatch(batch, sel_);
      return true;
    }
    // Entire batch filtered out: pull the next one.
  }
}

void Filter::Close() { child_->Close(); }

StatusOr<std::vector<OperatorPtr>> Filter::MakeMorselStreams(size_t n) {
  return WrapChildStreams(*child_, n, [this](OperatorPtr stream) {
    return std::make_unique<Filter>(std::move(stream), var_, value_);
  });
}

// --- MeasureFilter -----------------------------------------------------------

StatusOr<bool> MeasureFilter::NextBatch(RowBatch* batch) {
  while (true) {
    MPFDB_ASSIGN_OR_RETURN(bool has, child_->NextBatch(batch));
    if (!has) return false;
    const size_t n = batch->num_rows();
    const double* measures = batch->measures();
    sel_.clear();
    for (size_t r = 0; r < n; ++r) {
      if (EvalCompare(having_.op, measures[r], having_.threshold)) {
        sel_.push_back(static_cast<uint32_t>(r));
      }
    }
    if (sel_.size() == n) return true;
    if (!sel_.empty()) {
      CompactBatch(batch, sel_);
      return true;
    }
  }
}

StatusOr<std::vector<OperatorPtr>> MeasureFilter::MakeMorselStreams(size_t n) {
  return WrapChildStreams(*child_, n, [this](OperatorPtr stream) {
    return std::make_unique<MeasureFilter>(std::move(stream), having_);
  });
}

// --- StreamProject -----------------------------------------------------------

StreamProject::StreamProject(OperatorPtr child,
                             std::vector<std::string> keep_vars)
    : child_(std::move(child)),
      keep_vars_(std::move(keep_vars)),
      schema_(keep_vars_, child_->output_schema().measure_name()) {}

Status StreamProject::Open() {
  for (const auto& var : keep_vars_) {
    if (!child_->output_schema().HasVariable(var)) {
      return Status::InvalidArgument("projected variable '" + var +
                                     "' not in child schema");
    }
  }
  keep_indices_ = IndicesOf(child_->output_schema(), keep_vars_);
  return child_->Open();
}

StatusOr<bool> StreamProject::NextBatch(RowBatch* batch) {
  MPFDB_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&child_batch_));
  if (!has) return false;
  batch->Prepare(schema_.arity());
  const size_t n = child_batch_.num_rows();
  for (size_t k = 0; k < keep_indices_.size(); ++k) {
    const VarValue* src = child_batch_.col(keep_indices_[k]);
    std::copy(src, src + n, batch->col(k));
  }
  std::copy(child_batch_.measures(), child_batch_.measures() + n,
            batch->measures());
  batch->set_num_rows(n);
  return true;
}

void StreamProject::Close() { child_->Close(); }

StatusOr<std::vector<OperatorPtr>> StreamProject::MakeMorselStreams(size_t n) {
  return WrapChildStreams(*child_, n, [this](OperatorPtr stream) {
    return std::make_unique<StreamProject>(std::move(stream), keep_vars_);
  });
}

// --- HashMarginalize -------------------------------------------------------

HashMarginalize::HashMarginalize(OperatorPtr child,
                                 std::vector<std::string> group_vars,
                                 Semiring semiring, const Catalog* catalog)
    : child_(std::move(child)),
      group_vars_(std::move(group_vars)),
      semiring_(semiring),
      catalog_(catalog),
      schema_(group_vars_, child_->output_schema().measure_name()) {}

Status HashMarginalize::Open() {
  for (const auto& var : group_vars_) {
    if (!child_->output_schema().HasVariable(var)) {
      return Status::InvalidArgument("group variable '" + var +
                                     "' not in child schema");
    }
  }
  key_indices_ = IndicesOf(child_->output_schema(), group_vars_);
  drained_ = false;
  out_vars_.clear();
  out_measures_.clear();
  next_group_ = 0;
  memory_.Bind(ctx_);
  memory_.set_stats(stats_);
  return child_->Open();
}

Status HashMarginalize::DrainBatches() {
  auto parallel = TryDrainBatchesParallel();
  if (parallel.ok() && *parallel) return Status::Ok();
  if (!parallel.ok()) {
    // A budget breach during the parallel attempt falls back to the serial
    // drain below, which degrades to a Grace-style spill; anything else
    // (cancellation, deadline, input error) is fatal.
    if (parallel.status().code() != StatusCode::kResourceExhausted ||
        ctx_ == nullptr || !ctx_->spill_enabled()) {
      return parallel.status();
    }
  }
  const size_t nkeys = key_indices_.size();
  std::optional<PackedKeyCodec> codec = MakeCodecFor(catalog_, group_vars_);
  // Without catalog statistics a short key still fits a uint64 at 32 bits
  // per component — same fold machinery as the packed path, just not
  // order-preserving (a negative VarValue packs above the non-negatives),
  // so emission below sorts decoded tuples instead of packed integers.
  // This is what closed the historical hash_marginalize/batch gap: the
  // per-row arena probe and Add dispatch were eating the batch win.
  const bool codec_is_lexicographic = codec.has_value();
  if (!codec && nkeys * 32 <= 64) {
    codec = PackedKeyCodec::Make(
        std::vector<int64_t>(nkeys, int64_t{1} << 32));
  }
  RowBatch batch;
  std::vector<VarValue> key_vals(nkeys);
  std::vector<const VarValue*> key_cols(nkeys);
  MemoryGuard table_memory(ctx_);
  std::vector<std::unique_ptr<SpillFile>> parts;
  std::vector<std::pair<std::vector<VarValue>, double>> entries;  // groups

  // Routes one batch's rows straight to the spill partitions (used once the
  // operator has degraded to Grace-style partitioned aggregation).
  auto spill_batch = [&](size_t n) -> Status {
    const double* measures = batch.measures();
    for (size_t r = 0; r < n; ++r) {
      for (size_t k = 0; k < nkeys; ++k) key_vals[k] = key_cols[k][r];
      MPFDB_RETURN_IF_ERROR(parts[SpillPartOf(KeyHash()(key_vals))]->Append(
          key_vals.data(), measures[r]));
    }
    return Status::Ok();
  };

  if (codec) {
    SwissTable<double> agg(1024);
    std::vector<uint64_t> keys(kBatchSize);
    size_t charged_entries = 0;
    while (true) {
      auto has = child_->NextBatch(&batch);
      if (!has.ok()) return Annotate(has.status(), "HashMarginalize: input");
      if (!*has) break;
      for (size_t k = 0; k < nkeys; ++k) key_cols[k] = batch.col(key_indices_[k]);
      const double* measures = batch.measures();
      const size_t n = batch.num_rows();
      if (!parts.empty()) {
        MPFDB_RETURN_IF_ERROR(spill_batch(n));
        continue;
      }
      if (!codec->EncodeColumnar(key_cols.data(), n, keys.data())) {
        return PackedDomainViolation("HashMarginalize");
      }
      // The accumulate loop is specialized on the semiring's Add; each fast
      // path performs exactly the operation Semiring::Add performs, keeping
      // results bit-identical to the vector-key path (and to the parallel
      // drain, which folds through the same dispatch).
      DispatchAdd(semiring_, [&](auto add) {
        for (size_t r = 0; r < n; ++r) {
          auto [slot, inserted] = agg.FindOrInsert(keys[r], measures[r]);
          if (!inserted) *slot = add(*slot, measures[r]);
        }
      });
      // Charge the table's growth after each batch; on budget breach flush
      // the partial aggregates to the partitions and degrade.
      if (agg.size() > charged_entries) {
        Status charge = table_memory.Charge(
            (agg.size() - charged_entries) * kPackedAggEntryBytes,
            "HashMarginalize");
        if (charge.ok()) {
          charged_entries = agg.size();
          continue;
        }
        if (ctx_ == nullptr || !ctx_->spill_enabled()) return charge;
        MPFDB_ASSIGN_OR_RETURN(parts, MakeSpillPartitions(ctx_, nkeys));
        if (stats_ != nullptr) stats_->spill_partitions = parts.size();
        Status flush = Status::Ok();
        std::vector<VarValue> decoded(nkeys);
        agg.ForEach([&](uint64_t key, const double& measure) {
          if (!flush.ok()) return;
          codec->Decode(key, decoded.data());
          flush = parts[SpillPartOf(KeyHash()(decoded))]->Append(
              decoded.data(), measure);
        });
        MPFDB_RETURN_IF_ERROR(flush);
        agg = SwissTable<double>(1024);
        charged_entries = 0;
        table_memory.ReleaseAll();
      }
    }
    if (parts.empty()) {
      // Packed keys sort exactly as their decoded tuples: the catalog
      // codec's MSB-first layout as is, the catalog-free 32-bit packing once
      // each lane's sign bit is flipped (`flip`) so that unsigned order
      // matches signed order. The sort runs on raw uint64s (no per-entry
      // decode, no tuple materialization).
      const uint64_t flip = codec_is_lexicographic ? 0 : codec->SignFlipMask();
      std::vector<std::pair<uint64_t, double>> sorted;
      sorted.reserve(agg.size());
      agg.ForEach([&](uint64_t key, const double& measure) {
        sorted.emplace_back(key ^ flip, measure);
      });
      std::sort(sorted.begin(), sorted.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      out_vars_.resize(sorted.size() * nkeys);
      out_measures_.resize(sorted.size());
      for (size_t i = 0; i < sorted.size(); ++i) {
        codec->Decode(sorted[i].first ^ flip, out_vars_.data() + i * nkeys);
        out_measures_[i] = sorted[i].second;
      }
      memory_.ChargeUnchecked(out_vars_.size() * sizeof(VarValue) +
                              out_measures_.size() * sizeof(double));
      return Status::Ok();
    }
  } else {
    const size_t entry_bytes = kHashEntryOverhead + RowFootprint(nkeys);
    // The fold runs on the byte-keyed Swiss table by default: probing hashes
    // the key bytes in place (no per-row vector materialization in the map,
    // no node allocation, no modulo), which is what closed the historical
    // hash_marginalize/batch gap against the packed path.
    VecKeyMap<double> table;
    while (true) {
      auto has = child_->NextBatch(&batch);
      if (!has.ok()) return Annotate(has.status(), "HashMarginalize: input");
      if (!*has) break;
      for (size_t k = 0; k < nkeys; ++k) key_cols[k] = batch.col(key_indices_[k]);
      const double* measures = batch.measures();
      const size_t n = batch.num_rows();
      if (!parts.empty()) {
        MPFDB_RETURN_IF_ERROR(spill_batch(n));
        continue;
      }
      for (size_t r = 0; r < n; ++r) {
        for (size_t k = 0; k < nkeys; ++k) key_vals[k] = key_cols[k][r];
        if (!parts.empty()) {
          // Mid-batch degrade: the rest of this batch goes to disk.
          MPFDB_RETURN_IF_ERROR(parts[SpillPartOf(KeyHash()(key_vals))]->Append(
              key_vals.data(), measures[r]));
          continue;
        }
        auto [slot, inserted] = table.FindOrInsert(key_vals, measures[r]);
        if (!inserted) {
          *slot = semiring_.Add(*slot, measures[r]);
          continue;
        }
        Status charge = table_memory.Charge(entry_bytes, "HashMarginalize");
        if (charge.ok()) continue;
        if (ctx_ == nullptr || !ctx_->spill_enabled()) return charge;
        MPFDB_ASSIGN_OR_RETURN(parts, MakeSpillPartitions(ctx_, nkeys));
        if (stats_ != nullptr) stats_->spill_partitions = parts.size();
        Status flush = Status::Ok();
        table.ForEach([&](const std::vector<VarValue>& k, const double& m) {
          if (!flush.ok()) return;
          flush = parts[SpillPartOf(KeyHash()(k))]->Append(k.data(), m);
        });
        MPFDB_RETURN_IF_ERROR(flush);
        table.clear();
        table_memory.ReleaseAll();
      }
    }
    if (parts.empty()) {
      entries.reserve(table.size());
      table.ForEach([&](const std::vector<VarValue>& k, const double& m) {
        entries.emplace_back(k, m);
      });
    }
  }

  // Lay out the sorted groups. Spilled partitions are re-aggregated first:
  // per-key Add replay order matches the in-memory path, so the result is
  // bit-identical to an unconstrained run.
  if (!parts.empty()) {
    MPFDB_RETURN_IF_ERROR(
        DrainAggSpill(parts, semiring_, nkeys, ctx_, &entries));
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out_vars_.resize(entries.size() * nkeys);
  out_measures_.resize(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    std::copy(entries[i].first.begin(), entries[i].first.end(),
              out_vars_.begin() + static_cast<ptrdiff_t>(i * nkeys));
    out_measures_[i] = entries[i].second;
  }
  memory_.ChargeUnchecked(out_vars_.size() * sizeof(VarValue) +
                          out_measures_.size() * sizeof(double));
  return Status::Ok();
}

StatusOr<bool> HashMarginalize::TryDrainBatchesParallel() {
  ThreadPool* pool = PoolOf(ctx_);
  if (pool == nullptr || !child_->SupportsMorselStreams()) return false;
  // Thread-local buffering regroups updates for different keys relative to
  // the serial schedule; only a commutative Add licenses that. (Per-key
  // order is preserved regardless — see the partition fold below.)
  if (!semiring_.AddIsCommutative()) return false;
  const size_t nkeys = key_indices_.size();
  std::optional<PackedKeyCodec> codec = MakeCodecFor(catalog_, group_vars_);
  MPFDB_ASSIGN_OR_RETURN(
      std::vector<OperatorPtr> streams,
      child_->MakeMorselStreams(
          MorselCount(child_->MorselSourceRows(), pool->num_threads())));
  if (streams.empty()) return false;
  const size_t num_morsels = streams.size();

  // Phase 1: every morsel stream drains into per-(morsel, partition)
  // buffers of raw (key, measure) pairs, routed by high key-hash bits so
  // each key lands in exactly one partition. Raw pairs — not per-worker
  // partial aggregates — because folding a key's updates in any order other
  // than the serial one would re-associate floating-point Adds.
  //
  // Phase 2: each partition folds its buffers in morsel-index order.
  // Morsels are contiguous input ranges in index order, so every key's
  // updates replay in exactly the serial input order: results are
  // bit-identical to the single-threaded drain for any thread count.
  std::deque<MemoryGuard> guards;
  for (size_t i = 0; i < num_morsels; ++i) guards.emplace_back(ctx_);

  if (codec) {
    struct Buf {
      std::vector<uint64_t> keys;
      std::vector<double> measures;
    };
    std::vector<std::array<Buf, kAggPartitions>> bufs(num_morsels);
    Status phase1 = pool->ParallelFor(num_morsels, [&](size_t i) -> Status {
      PhysicalOperator& stream = *streams[i];
      stream.BindContext(ctx_);
      Status opened = stream.Open();
      if (!opened.ok()) {
        stream.Close();
        return Annotate(opened, "HashMarginalize: input");
      }
      RowBatch batch;
      std::vector<uint64_t> keys(kBatchSize);
      std::vector<const VarValue*> key_cols(nkeys);
      Status result = Status::Ok();
      while (true) {
        auto has = stream.NextBatch(&batch);
        if (!has.ok()) {
          result = Annotate(has.status(), "HashMarginalize: input");
          break;
        }
        if (!*has) break;
        const size_t n = batch.num_rows();
        for (size_t k = 0; k < nkeys; ++k) {
          key_cols[k] = batch.col(key_indices_[k]);
        }
        if (!codec->EncodeColumnar(key_cols.data(), n, keys.data())) {
          result = PackedDomainViolation("HashMarginalize");
          break;
        }
        result = guards[i].Charge(n * (sizeof(uint64_t) + sizeof(double)),
                                  "HashMarginalize");
        if (!result.ok()) break;
        const double* measures = batch.measures();
        for (size_t r = 0; r < n; ++r) {
          Buf& buf = bufs[i][AggPartOf(swiss::MixU64(keys[r]))];
          buf.keys.push_back(keys[r]);
          buf.measures.push_back(measures[r]);
        }
      }
      stream.Close();
      return result;
    });
    MPFDB_RETURN_IF_ERROR(phase1);

    std::deque<MemoryGuard> fold_guards;
    for (size_t p = 0; p < kAggPartitions; ++p) fold_guards.emplace_back(ctx_);
    std::array<std::vector<std::pair<uint64_t, double>>, kAggPartitions>
        part_entries;
    Status phase2 = pool->ParallelFor(kAggPartitions, [&](size_t p) -> Status {
      SwissTable<double> agg(1024);
      size_t charged_entries = 0;
      Status fold = Status::Ok();
      DispatchAdd(semiring_, [&](auto add) {
        for (size_t i = 0; i < num_morsels && fold.ok(); ++i) {
          const Buf& buf = bufs[i][p];
          const size_t n = buf.measures.size();
          for (size_t r = 0; r < n; ++r) {
            auto [slot, inserted] =
                agg.FindOrInsert(buf.keys[r], buf.measures[r]);
            if (!inserted) *slot = add(*slot, buf.measures[r]);
          }
          if (agg.size() > charged_entries) {
            fold = fold_guards[p].Charge(
                (agg.size() - charged_entries) * kPackedAggEntryBytes,
                "HashMarginalize");
            charged_entries = agg.size();
          }
          if (fold.ok() && ctx_ != nullptr && n > 0) fold = ctx_->Poll(n);
        }
      });
      MPFDB_RETURN_IF_ERROR(fold);
      auto& entries = part_entries[p];
      entries.reserve(agg.size());
      agg.ForEach([&](uint64_t key, const double& measure) {
        entries.emplace_back(key, measure);
      });
      return Status::Ok();
    });
    MPFDB_RETURN_IF_ERROR(phase2);

    // Merge is concatenation — the partitions' key sets are disjoint — and
    // the same packed-key integer sort the serial drain performs.
    std::vector<std::pair<uint64_t, double>> entries;
    size_t total = 0;
    for (const auto& pe : part_entries) total += pe.size();
    entries.reserve(total);
    for (const auto& pe : part_entries) {
      entries.insert(entries.end(), pe.begin(), pe.end());
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    out_vars_.resize(entries.size() * nkeys);
    out_measures_.resize(entries.size());
    for (size_t i = 0; i < entries.size(); ++i) {
      codec->Decode(entries[i].first, out_vars_.data() + i * nkeys);
      out_measures_[i] = entries[i].second;
    }
  } else {
    struct Buf {
      std::vector<VarValue> keys;  // nkeys values per row
      std::vector<double> measures;
    };
    std::vector<std::array<Buf, kAggPartitions>> bufs(num_morsels);
    Status phase1 = pool->ParallelFor(num_morsels, [&](size_t i) -> Status {
      PhysicalOperator& stream = *streams[i];
      stream.BindContext(ctx_);
      Status opened = stream.Open();
      if (!opened.ok()) {
        stream.Close();
        return Annotate(opened, "HashMarginalize: input");
      }
      RowBatch batch;
      std::vector<VarValue> key_vals(nkeys);
      std::vector<const VarValue*> key_cols(nkeys);
      Status result = Status::Ok();
      while (true) {
        auto has = stream.NextBatch(&batch);
        if (!has.ok()) {
          result = Annotate(has.status(), "HashMarginalize: input");
          break;
        }
        if (!*has) break;
        const size_t n = batch.num_rows();
        for (size_t k = 0; k < nkeys; ++k) {
          key_cols[k] = batch.col(key_indices_[k]);
        }
        result = guards[i].Charge(n * RowFootprint(nkeys), "HashMarginalize");
        if (!result.ok()) break;
        const double* measures = batch.measures();
        for (size_t r = 0; r < n; ++r) {
          for (size_t k = 0; k < nkeys; ++k) key_vals[k] = key_cols[k][r];
          Buf& buf = bufs[i][AggPartOf(KeyHash()(key_vals))];
          buf.keys.insert(buf.keys.end(), key_vals.begin(), key_vals.end());
          buf.measures.push_back(measures[r]);
        }
      }
      stream.Close();
      return result;
    });
    MPFDB_RETURN_IF_ERROR(phase1);

    const size_t entry_bytes = kHashEntryOverhead + RowFootprint(nkeys);
    std::deque<MemoryGuard> fold_guards;
    for (size_t p = 0; p < kAggPartitions; ++p) fold_guards.emplace_back(ctx_);
    std::array<std::vector<std::pair<std::vector<VarValue>, double>>,
               kAggPartitions>
        part_entries;
    Status phase2 = pool->ParallelFor(kAggPartitions, [&](size_t p) -> Status {
      VecKeyMap<double> table;
      std::vector<VarValue> key_vals(nkeys);
      for (size_t i = 0; i < num_morsels; ++i) {
        const Buf& buf = bufs[i][p];
        const size_t n = buf.measures.size();
        for (size_t r = 0; r < n; ++r) {
          key_vals.assign(buf.keys.begin() + static_cast<ptrdiff_t>(r * nkeys),
                          buf.keys.begin() +
                              static_cast<ptrdiff_t>((r + 1) * nkeys));
          auto [slot, inserted] = table.FindOrInsert(key_vals, buf.measures[r]);
          if (inserted) {
            MPFDB_RETURN_IF_ERROR(
                fold_guards[p].Charge(entry_bytes, "HashMarginalize"));
          } else {
            *slot = semiring_.Add(*slot, buf.measures[r]);
          }
        }
        if (ctx_ != nullptr && n > 0) MPFDB_RETURN_IF_ERROR(ctx_->Poll(n));
      }
      auto& entries = part_entries[p];
      entries.reserve(table.size());
      table.ForEach([&](const std::vector<VarValue>& k, const double& m) {
        entries.emplace_back(k, m);
      });
      return Status::Ok();
    });
    MPFDB_RETURN_IF_ERROR(phase2);

    std::vector<std::pair<std::vector<VarValue>, double>> entries;
    size_t total = 0;
    for (const auto& pe : part_entries) total += pe.size();
    entries.reserve(total);
    for (auto& pe : part_entries) {
      for (auto& e : pe) entries.push_back(std::move(e));
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    out_vars_.resize(entries.size() * nkeys);
    out_measures_.resize(entries.size());
    for (size_t i = 0; i < entries.size(); ++i) {
      std::copy(entries[i].first.begin(), entries[i].first.end(),
                out_vars_.begin() + static_cast<ptrdiff_t>(i * nkeys));
      out_measures_[i] = entries[i].second;
    }
  }

  memory_.ChargeUnchecked(out_vars_.size() * sizeof(VarValue) +
                          out_measures_.size() * sizeof(double));
  return true;
}

StatusOr<std::vector<OperatorPtr>> HashMarginalize::MakeMorselStreams(
    size_t n) {
  // Vending streams forces the blocking drain, exactly as the first
  // NextBatch pull would; the streams then read disjoint ranges of the
  // sorted groups this operator owns.
  if (!drained_) {
    Status drained = DrainBatches();
    child_->Close();
    MPFDB_RETURN_IF_ERROR(drained);
    drained_ = true;
  }
  std::vector<OperatorPtr> streams;
  streams.reserve(n);
  for (auto [begin, end] : SplitRanges(out_measures_.size(), n)) {
    streams.push_back(std::make_unique<MaterializedRangeStream>(
        schema_, out_vars_.data(), out_measures_.data(), begin, end));
  }
  return streams;
}

StatusOr<bool> HashMarginalize::NextBatch(RowBatch* batch) {
  if (!drained_) {
    Status drained = DrainBatches();
    child_->Close();
    MPFDB_RETURN_IF_ERROR(drained);
    drained_ = true;
  }
  const size_t arity = schema_.arity();
  batch->Prepare(arity);
  const size_t total = out_measures_.size();
  if (next_group_ >= total) return false;
  const size_t n = std::min(kBatchSize, total - next_group_);
  MPFDB_RETURN_IF_ERROR(PollContext(n));
  for (size_t c = 0; c < arity; ++c) {
    VarValue* out = batch->col(c);
    const VarValue* in = out_vars_.data() + next_group_ * arity + c;
    for (size_t r = 0; r < n; ++r) out[r] = in[r * arity];
  }
  std::copy(out_measures_.begin() + static_cast<ptrdiff_t>(next_group_),
            out_measures_.begin() + static_cast<ptrdiff_t>(next_group_ + n),
            batch->measures());
  batch->set_num_rows(n);
  next_group_ += n;
  return true;
}

void HashMarginalize::Close() {
  out_vars_.clear();
  out_measures_.clear();
  memory_.ReleaseAll();
}

// --- HashProductJoin -------------------------------------------------------

namespace {

// Per-consumer probe state for the batch hash join: the current left batch,
// its packed keys, and the match run being emitted. The serial operator owns
// one cursor; every parallel probe stream owns its own, all reading the same
// immutable build-side arena.
struct ProbeCursor {
  RowBatch left_batch;
  size_t left_pos = 0;   // next unconsumed row of left_batch
  size_t cur_left = 0;   // row whose match run is being emitted
  bool left_done = false;
  std::vector<uint64_t> probe_keys;  // packed keys of the current left batch
  size_t match_start = 0;            // current match run in the arena
  size_t match_len = 0;
  size_t match_off = 0;
  std::vector<VarValue> key_vals;
  std::vector<const VarValue*> key_cols;
};

// Emits (a slice of) the current left row's contiguous match run: constant
// fills for left-side outputs, contiguous column copies for right-side
// outputs, one vectorizable multiply for the measures. Shared between the
// serial in-memory probe loop and the parallel probe streams. ImplT is
// HashProductJoin::Impl, deduced because the type is private; only
// build-side state is read through it.
template <class ImplT>
void EmitJoinRunSlice(ImplT& st, ProbeCursor& pc, const Semiring& semiring,
                      RowBatch* out) {
  const size_t o = out->num_rows();
  const size_t m = std::min(pc.match_len - pc.match_off, kBatchSize - o);
  const size_t src = pc.match_start + pc.match_off;
  for (auto [out_c, left_c] : st.out_left_cols) {
    VarValue* dst = out->col(out_c) + o;
    const VarValue v = pc.left_batch.col(left_c)[pc.cur_left];
    std::fill(dst, dst + m, v);
  }
  for (auto [out_c, right_c] : st.out_right_cols) {
    const VarValue* arena =
        st.arena_cols.data() + right_c * st.arena_rows + src;
    std::copy(arena, arena + m, out->col(out_c) + o);
  }
  double* dst_m = out->measures() + o;
  const double lm = pc.left_batch.measures()[pc.cur_left];
  const double* am = st.arena_measures.data() + src;
  switch (st.mul_op) {
    case MulOp::kTimes:
      for (size_t i = 0; i < m; ++i) dst_m[i] = lm * am[i];
      break;
    case MulOp::kPlus:
      for (size_t i = 0; i < m; ++i) dst_m[i] = lm + am[i];
      break;
    case MulOp::kGeneric:
      for (size_t i = 0; i < m; ++i) {
        dst_m[i] = semiring.Multiply(lm, am[i]);
      }
      break;
  }
  out->set_num_rows(o + m);
  pc.match_off += m;
}

// The in-memory probe loop: pulls left batches from `left`, looks match runs
// up in the (frozen) build-side head maps, and emits run slices. The build
// state reached through `st` is only read, so any number of cursors can
// probe it concurrently.
template <class ImplT>
StatusOr<bool> JoinProbeNextBatch(ImplT& st, ProbeCursor& pc,
                                  PhysicalOperator& left,
                                  const Semiring& semiring, QueryContext* ctx,
                                  RowBatch* out) {
  const JoinLayout& layout = st.layout;
  const size_t nkeys = layout.shared.size();
  out->Prepare(layout.schema.arity());
  while (!out->full()) {
    if (pc.match_off < pc.match_len) {
      EmitJoinRunSlice(st, pc, semiring, out);
      continue;
    }
    if (pc.left_pos >= pc.left_batch.num_rows()) {
      if (pc.left_done) break;
      auto has = left.NextBatch(&pc.left_batch);
      if (!has.ok()) {
        return Annotate(has.status(), "HashProductJoin: probe side");
      }
      if (!*has) {
        pc.left_done = true;
        break;
      }
      if (ctx != nullptr) {
        MPFDB_RETURN_IF_ERROR(ctx->Poll(pc.left_batch.num_rows()));
      }
      pc.left_pos = 0;
      if (st.codec) {
        // Pack every probe key of the incoming left batch at once.
        const size_t n = pc.left_batch.num_rows();
        pc.key_cols.resize(nkeys);
        for (size_t k = 0; k < nkeys; ++k) {
          pc.key_cols[k] = pc.left_batch.col(layout.shared_left[k]);
        }
        pc.probe_keys.resize(n);
        if (!st.codec->EncodeColumnar(pc.key_cols.data(), n,
                                      pc.probe_keys.data())) {
          return PackedDomainViolation("HashProductJoin");
        }
      }
      continue;
    }
    pc.cur_left = pc.left_pos++;
    pc.match_off = 0;
    pc.match_len = 0;
    if (st.dense) {
      // Perfect index: the packed key addresses its head range directly.
      const auto& range = st.dense_heads[pc.probe_keys[pc.cur_left]];
      pc.match_start = range.first;
      pc.match_len = range.second;
    } else if (st.codec) {
      auto* range = st.packed_heads.Find(pc.probe_keys[pc.cur_left]);
      if (range != nullptr) {
        pc.match_start = range->first;
        pc.match_len = range->second;
      }
    } else {
      pc.key_vals.resize(nkeys);
      for (size_t k = 0; k < nkeys; ++k) {
        pc.key_vals[k] = pc.left_batch.col(layout.shared_left[k])[pc.cur_left];
      }
      auto* range = st.vec_heads.Find(pc.key_vals);
      if (range != nullptr) {
        pc.match_start = range->first;
        pc.match_len = range->second;
      }
    }
  }
  return !out->empty();
}

// One parallel probe stream: a morsel stream of the join's left child joined
// against the shared in-memory build side through a private ProbeCursor.
// ImplT is HashProductJoin::Impl; the referenced build state must outlive
// the stream (the parent operator stays open until its streams are done).
template <class ImplT>
class HashJoinProbeStream : public PhysicalOperator {
 public:
  HashJoinProbeStream(ImplT& st, OperatorPtr left, Semiring semiring)
      : st_(st), left_(std::move(left)), semiring_(semiring) {}

  void BindContext(QueryContext* ctx) override {
    ctx_ = ctx;
    left_->BindContext(ctx);
  }
  Status Open() override { return left_->Open(); }
  StatusOr<bool> NextBatch(RowBatch* out) override {
    return JoinProbeNextBatch(st_, probe_, *left_, semiring_, ctx_, out);
  }
  void Close() override { left_->Close(); }
  const Schema& output_schema() const override { return st_.layout.schema; }
  std::string name() const override { return "HashJoinProbeStream"; }

 private:
  ImplT& st_;
  OperatorPtr left_;
  Semiring semiring_;
  ProbeCursor probe_;
};

}  // namespace

// A spilled build partition being joined: its rows chained per key in
// arrival order (the order the in-memory join emits a key's matches in), the
// probe row whose matches are being emitted, and its next matching row.
struct SpillJoinPart {
  std::vector<VarValue> vars;  // row-major
  std::vector<double> measures;
  std::vector<uint32_t> next_row;
  VecKeyMap<std::pair<uint32_t, uint32_t>> chains;  // (first, last) per key
  std::vector<VarValue> probe_row;
  double probe_measure = 0.0;
  uint32_t match = kNoChain;
};

struct HashProductJoin::Impl {
  JoinLayout layout;
  bool built = false;
  bool left_open = false;
  bool right_open = false;

  // The build side is drained into a row-major arena chained per key in
  // insertion order, then compacted into a column-major arena where
  // every key's matches are contiguous: the head maps then hold
  // (start, count) ranges, so probe emission is constant fills, contiguous
  // column copies, and one vectorizable multiply over the measure run.
  std::optional<PackedKeyCodec> codec;
  MulOp mul_op = MulOp::kGeneric;
  size_t right_arity = 0;
  size_t arena_rows = 0;
  std::vector<VarValue> arena_cols;     // column-major, stride arena_rows
  std::vector<double> arena_measures;   // aligned with arena_cols rows
  SwissTable<std::pair<uint32_t, uint32_t>> packed_heads{16};
  VecKeyMap<std::pair<uint32_t, uint32_t>> vec_heads;
  // Perfect-index head "map": when the packed-key universe is small enough
  // (catalog domains are fixed per epoch), (start, count) ranges live in a
  // dense array indexed by the packed key itself — collision-free probes
  // with no hashing at all.
  bool dense = false;
  std::vector<std::pair<uint32_t, uint32_t>> dense_heads;
  std::vector<std::pair<size_t, size_t>> out_left_cols;   // (out col, left col)
  std::vector<std::pair<size_t, size_t>> out_right_cols;  // (out col, right col)
  ProbeCursor probe;  // the serial consumer's probe state
  std::vector<VarValue> key_vals;
  std::vector<const VarValue*> key_cols;

  // Resource governance. `memory` covers the in-memory build state; when the
  // budget is hit both sides are partitioned to disk (Grace-style), each
  // probe row tagged with its input position in a last column. The joined
  // rows leave in probe order: NextBatchSpill merges the partitions by the
  // position of their next joined row (`heads`; `live` while they have one).
  // When the budget (`part_memory`) holds every build partition at once,
  // the partitions are joined as the merge pulls them (`resident`); else
  // each is joined in turn, one resident partition at a time, into an output
  // run (`out_parts`) the merge reads back.
  MemoryGuard memory;
  MemoryGuard part_memory;
  bool spilling = false;
  bool resident = false;
  std::vector<std::unique_ptr<SpillFile>> right_parts;
  std::vector<std::unique_ptr<SpillFile>> left_parts;
  std::vector<std::unique_ptr<SpillFile>> out_parts;
  std::vector<SpillJoinPart> join_parts;  // one per partition when resident
  std::vector<std::vector<VarValue>> heads;
  std::vector<double> head_measures;
  std::vector<char> live;
  size_t left_arity = 0;
  std::vector<VarValue> spill_row;
};

HashProductJoin::~HashProductJoin() = default;

HashProductJoin::HashProductJoin(OperatorPtr left, OperatorPtr right,
                                 Semiring semiring, const Catalog* catalog)
    : left_(std::move(left)),
      right_(std::move(right)),
      semiring_(semiring),
      catalog_(catalog) {
  schema_ = MakeJoinLayout(left_->output_schema(), right_->output_schema()).schema;
}

Status HashProductJoin::Open() {
  impl_ = std::make_unique<Impl>();
  impl_->layout = MakeJoinLayout(left_->output_schema(), right_->output_schema());
  impl_->memory.Bind(ctx_);
  impl_->memory.set_stats(stats_);
  impl_->part_memory.Bind(ctx_);
  return Status::Ok();
}

Status HashProductJoin::BuildBatches() {
  Impl& st = *impl_;
  const size_t nkeys = st.layout.shared.size();
  st.codec = MakeCodecFor(catalog_, st.layout.shared);
  st.mul_op = MulOpFor(semiring_);
  st.right_arity = right_->output_schema().arity();
  st.key_vals.resize(nkeys);
  st.key_cols.resize(nkeys);
  for (size_t c = 0; c < st.layout.schema.arity(); ++c) {
    if (st.layout.out_from_left[c] != kNpos) {
      st.out_left_cols.emplace_back(c, st.layout.out_from_left[c]);
    } else {
      st.out_right_cols.emplace_back(c, st.layout.out_from_right[c]);
    }
  }

  // Drain the right child into a columnar staging copy. With a packed-key
  // codec the drain stages only (column appends plus one EncodeColumnar per
  // batch — no hash work at all); grouping happens afterwards as a counting
  // sort. Without a codec, rows with equal keys are linked into
  // insertion-ordered chains (head/tail per key) as before.
  MPFDB_RETURN_IF_ERROR(right_->Open());
  st.right_open = true;
  std::vector<std::vector<VarValue>> staging_cols(st.right_arity);
  std::vector<double> staging_measures;
  std::vector<uint64_t> staged_keys;  // packed key per staged row (codec only)
  std::vector<uint32_t> next_row;     // insertion chains (vector keys only)
  // Children that can report their source cardinality (scans and filters)
  // let the staging vectors skip the doubling reallocations.
  if (const size_t hint = right_->MorselSourceRows(); hint > 0) {
    for (auto& col : staging_cols) col.reserve(hint);
    staging_measures.reserve(hint);
    if (st.codec) staged_keys.reserve(hint);
  }
  // A packed-key universe of <= 2^16 slots is cheap unconditionally, so the
  // dense perfect index is committed before the drain and counts piggyback
  // on each batch's just-encoded (cache-hot) keys. Larger universes are
  // decided after the drain, when the staged row count is known.
  if (st.codec && st.codec->total_bits() <= 16) {
    const size_t universe = size_t{1} << st.codec->total_bits();
    if (st.memory
            .Charge(universe * sizeof(std::pair<uint32_t, uint32_t>),
                    "HashProductJoin: build side")
            .ok()) {
      st.dense = true;
      st.dense_heads.assign(universe, {0, 0});
    }
  }
  RowBatch batch;
  st.spill_row.resize(st.right_arity);
  size_t charged_bytes = 0;
  const size_t staged_row_bytes = st.right_arity * sizeof(VarValue) +
                                  sizeof(double) + sizeof(uint64_t);
  // Flushes the staged build rows to key-hash partitions and frees the
  // staging state; after this the drain loop routes rows straight to disk.
  auto spill_staged = [&]() -> Status {
    MPFDB_ASSIGN_OR_RETURN(st.right_parts,
                           MakeSpillPartitions(ctx_, st.right_arity));
    if (stats_ != nullptr) stats_->spill_partitions = st.right_parts.size();
    std::vector<VarValue> key(nkeys);
    const size_t staged = staging_measures.size();
    for (size_t r = 0; r < staged; ++r) {
      for (size_t k = 0; k < nkeys; ++k) {
        key[k] = staging_cols[st.layout.shared_right[k]][r];
      }
      for (size_t c = 0; c < st.right_arity; ++c) {
        st.spill_row[c] = staging_cols[c][r];
      }
      MPFDB_RETURN_IF_ERROR(st.right_parts[SpillPartOf(KeyHash()(key))]->Append(
          st.spill_row.data(), staging_measures[r]));
    }
    for (auto& col : staging_cols) std::vector<VarValue>().swap(col);
    std::vector<double>().swap(staging_measures);
    std::vector<uint64_t>().swap(staged_keys);
    std::vector<uint32_t>().swap(next_row);
    st.packed_heads = SwissTable<std::pair<uint32_t, uint32_t>>(16);
    st.vec_heads.clear();
    st.dense = false;
    std::vector<std::pair<uint32_t, uint32_t>>().swap(st.dense_heads);
    st.memory.ReleaseAll();
    charged_bytes = 0;
    st.spilling = true;
    return Status::Ok();
  };
  auto process_batch = [&](const RowBatch& batch) -> Status {
    const size_t n = batch.num_rows();
    MPFDB_RETURN_IF_ERROR(PollContext(n));
    for (size_t k = 0; k < nkeys; ++k) {
      st.key_cols[k] = batch.col(st.layout.shared_right[k]);
    }
    if (st.spilling) {
      const double* measures = batch.measures();
      for (size_t r = 0; r < n; ++r) {
        for (size_t k = 0; k < nkeys; ++k) st.key_vals[k] = st.key_cols[k][r];
        for (size_t c = 0; c < st.right_arity; ++c) {
          st.spill_row[c] = batch.col(c)[r];
        }
        MPFDB_RETURN_IF_ERROR(
            st.right_parts[SpillPartOf(KeyHash()(st.key_vals))]->Append(
                st.spill_row.data(), measures[r]));
      }
      return Status::Ok();
    }
    const size_t base = staging_measures.size();
    for (size_t c = 0; c < st.right_arity; ++c) {
      const VarValue* col = batch.col(c);
      staging_cols[c].insert(staging_cols[c].end(), col, col + n);
    }
    staging_measures.insert(staging_measures.end(), batch.measures(),
                            batch.measures() + n);
    if (st.codec) {
      staged_keys.resize(base + n);
      if (!st.codec->EncodeColumnar(st.key_cols.data(), n,
                                    staged_keys.data() + base)) {
        return PackedDomainViolation("HashProductJoin");
      }
      if (st.dense) {
        const uint64_t* keys = staged_keys.data() + base;
        for (size_t r = 0; r < n; ++r) ++st.dense_heads[keys[r]].second;
      }
    } else {
      next_row.resize(base + n, kNoChain);
      for (size_t r = 0; r < n; ++r) {
        const uint32_t idx = static_cast<uint32_t>(base + r);
        for (size_t k = 0; k < nkeys; ++k) st.key_vals[k] = st.key_cols[k][r];
        auto [slot, inserted] =
            st.vec_heads.FindOrInsert(st.key_vals, {idx, idx});
        if (!inserted) {
          next_row[slot->second] = idx;
          slot->second = idx;
        }
      }
    }
    // Charge the staged rows plus head-map growth (the codec path builds
    // its heads after the drain and charges them there); on budget breach
    // flush everything staged so far to the partitions and degrade.
    const size_t heads_bytes =
        st.codec ? 0
                 : st.vec_heads.size() *
                       (kHashEntryOverhead + RowFootprint(nkeys));
    const size_t total_bytes =
        staging_measures.size() * staged_row_bytes + heads_bytes;
    if (total_bytes > charged_bytes) {
      Status charge = st.memory.Charge(total_bytes - charged_bytes,
                                       "HashProductJoin: build side");
      if (!charge.ok()) {
        if (ctx_ == nullptr || !ctx_->spill_enabled()) return charge;
        MPFDB_RETURN_IF_ERROR(spill_staged());
      } else {
        charged_bytes = total_bytes;
      }
    }
    return Status::Ok();
  };
  // Parallel pre-drain of the build side when a pool is available: morsel
  // streams of the right child buffer their batches per stream, and the
  // buffered batches replay through process_batch in stream order — exactly
  // the serial staging order, so chaining and compaction stay byte-for-byte
  // deterministic. Only the (usually dominant) production of build rows runs
  // in parallel; hash-table insertion stays single-threaded.
  bool drained_parallel = false;
  if (ThreadPool* pool = PoolOf(ctx_);
      pool != nullptr && right_->SupportsMorselStreams()) {
    auto streams_or = right_->MakeMorselStreams(
        MorselCount(right_->MorselSourceRows(), pool->num_threads()));
    if (!streams_or.ok()) {
      // A budget breach while materializing a blocking child falls back to
      // the serial drain (which degrades to spill); real errors propagate.
      if (streams_or.status().code() != StatusCode::kResourceExhausted ||
          ctx_ == nullptr || !ctx_->spill_enabled()) {
        return streams_or.status();
      }
    } else if (!streams_or->empty()) {
      std::vector<OperatorPtr>& streams = *streams_or;
      const size_t num_morsels = streams.size();
      std::vector<std::vector<RowBatch>> buffered(num_morsels);
      std::deque<MemoryGuard> guards;
      for (size_t i = 0; i < num_morsels; ++i) guards.emplace_back(ctx_);
      const size_t batch_row_bytes =
          st.right_arity * sizeof(VarValue) + sizeof(double);
      Status drain = pool->ParallelFor(num_morsels, [&](size_t i) -> Status {
        PhysicalOperator& stream = *streams[i];
        stream.BindContext(ctx_);
        Status opened = stream.Open();
        if (!opened.ok()) {
          stream.Close();
          return Annotate(opened, "HashProductJoin: build side");
        }
        RowBatch b;
        Status result = Status::Ok();
        while (true) {
          auto has = stream.NextBatch(&b);
          if (!has.ok()) {
            result = Annotate(has.status(), "HashProductJoin: build side");
            break;
          }
          if (!*has) break;
          const size_t n = b.num_rows();
          if (ctx_ != nullptr) {
            result = ctx_->Poll(n);
            if (!result.ok()) break;
          }
          result = guards[i].Charge(n * batch_row_bytes,
                                    "HashProductJoin: build side");
          if (!result.ok()) break;
          buffered[i].push_back(std::move(b));
          b = RowBatch();
        }
        stream.Close();
        return result;
      });
      if (drain.ok()) {
        for (auto& chunk : buffered) {
          for (RowBatch& b : chunk) MPFDB_RETURN_IF_ERROR(process_batch(b));
        }
        drained_parallel = true;
      } else if (drain.code() != StatusCode::kResourceExhausted ||
                 ctx_ == nullptr || !ctx_->spill_enabled()) {
        return drain;
      }
      // On kResourceExhausted the buffered batches and their reservations
      // are dropped here and the untouched right_ child drains serially,
      // degrading to a Grace-style spill as usual.
    }
  }
  if (!drained_parallel) {
    while (true) {
      auto has = right_->NextBatch(&batch);
      if (!has.ok()) {
        return Annotate(has.status(), "HashProductJoin: build side");
      }
      if (!*has) break;
      MPFDB_RETURN_IF_ERROR(process_batch(batch));
    }
  }
  right_->Close();
  st.right_open = false;

  // Codec path: group the staged rows now that the drain is done. Count the
  // rows per key — either into a dense array indexed by the packed key
  // itself (small domains; collision-free probes with zero hash work) or
  // into the head hash map, assigning dense ids as keys first appear — and
  // remember each row's group so compaction is a pure counting-sort scatter.
  std::vector<uint32_t> staged_ids;   // per-row head id (codec hash path)
  std::vector<uint32_t> head_counts;  // rows per head id (codec hash path)
  if (!st.spilling && st.codec) {
    const size_t total = staging_measures.size();
    const size_t bits = st.codec->total_bits();
    // Universes above the pre-drain 2^16 threshold are worth a dense index
    // only when the staged row count amortizes them (counts then need a
    // second pass over the staged keys).
    if (!st.dense && bits > 16 && bits <= 24 &&
        (size_t{1} << bits) <= total * 8) {
      const size_t universe = size_t{1} << bits;
      Status charge =
          st.memory.Charge(universe * sizeof(std::pair<uint32_t, uint32_t>),
                           "HashProductJoin: build side");
      if (charge.ok()) {  // the perfect index is optional; hash on breach
        st.dense = true;
        st.dense_heads.assign(universe, {0, 0});
        for (size_t r = 0; r < total; ++r) {
          ++st.dense_heads[staged_keys[r]].second;
        }
      }
    }
    if (!st.dense) {
      staged_ids.resize(total);
      for (size_t r = 0; r < total; ++r) {
        auto [slot, inserted] = st.packed_heads.FindOrInsert(
            staged_keys[r], {static_cast<uint32_t>(head_counts.size()), 0});
        if (inserted) head_counts.push_back(0);
        ++head_counts[slot->first];
        staged_ids[r] = slot->first;
      }
      Status charge =
          st.memory.Charge(st.packed_heads.size() * kPackedAggEntryBytes,
                           "HashProductJoin: build side");
      if (!charge.ok()) {
        if (ctx_ == nullptr || !ctx_->spill_enabled()) return charge;
        MPFDB_RETURN_IF_ERROR(spill_staged());
      }
    }
  }
  if (!st.spilling) {
    // The columnar arena briefly coexists with the staging copy; charge it
    // before allocating so the peak is accounted. A breach here still
    // degrades cleanly — the staged rows all flush to disk.
    Status charge = st.memory.Charge(
        staging_measures.size() *
            (st.right_arity * sizeof(VarValue) + sizeof(double)),
        "HashProductJoin: build side");
    if (!charge.ok()) {
      if (ctx_ == nullptr || !ctx_->spill_enabled()) return charge;
      MPFDB_RETURN_IF_ERROR(spill_staged());
    }
  }
  if (st.spilling) {
    MPFDB_RETURN_IF_ERROR(left_->Open());
    st.left_open = true;
    // Partition the probe side by the same key hash so each partition pair
    // can be joined independently in NextBatchSpill.
    st.left_arity = left_->output_schema().arity();
    MPFDB_ASSIGN_OR_RETURN(st.left_parts,
                           MakeSpillPartitions(ctx_, st.left_arity + 1));
    if (stats_ != nullptr) stats_->spill_partitions = st.left_parts.size();
    st.spill_row.resize(std::max(st.spill_row.size(), st.left_arity + 1));
    uint32_t position = 0;  // stored in a VarValue, compared unsigned
    RowBatch lbatch;
    while (true) {
      auto lhas = left_->NextBatch(&lbatch);
      if (!lhas.ok()) {
        return Annotate(lhas.status(), "HashProductJoin: probe side");
      }
      if (!*lhas) break;
      const size_t n = lbatch.num_rows();
      MPFDB_RETURN_IF_ERROR(PollContext(n));
      const double* measures = lbatch.measures();
      for (size_t r = 0; r < n; ++r) {
        for (size_t k = 0; k < nkeys; ++k) {
          st.key_vals[k] = lbatch.col(st.layout.shared_left[k])[r];
        }
        for (size_t c = 0; c < st.left_arity; ++c) {
          st.spill_row[c] = lbatch.col(c)[r];
        }
        if (position == UINT32_MAX) {
          return Status::ResourceExhausted(
              "HashProductJoin: probe side too large to spill");
        }
        st.spill_row[st.left_arity] = static_cast<VarValue>(position++);
        MPFDB_RETURN_IF_ERROR(
            st.left_parts[SpillPartOf(KeyHash()(st.key_vals))]->Append(
                st.spill_row.data(), measures[r]));
      }
    }
    left_->Close();
    st.left_open = false;
    return JoinSpillPartitions();
  }

  // Compact the staging copy so each key's rows are contiguous (preserving
  // their insertion order) and column-major; the heads switch to
  // (start, count) ranges. The codec path is a counting sort: prefix-sum
  // the per-key counts into starts, compute every row's destination with
  // the starts as bump cursors, then scatter column by column. The
  // vector-key path walks its insertion chains as before.
  const size_t total = staging_measures.size();
  st.arena_rows = total;
  st.arena_cols.resize(total * st.right_arity);
  st.arena_measures.resize(total);
  if (st.codec) {
    std::vector<uint32_t> row_pos(total);
    if (st.dense) {
      uint32_t pos = 0;
      for (auto& h : st.dense_heads) {
        h.first = pos;
        pos += h.second;
      }
      for (size_t r = 0; r < total; ++r) {
        row_pos[r] = st.dense_heads[staged_keys[r]].first++;
      }
      for (auto& h : st.dense_heads) h.first -= h.second;
    } else {
      std::vector<uint32_t> starts(head_counts.size());
      uint32_t pos = 0;
      for (size_t id = 0; id < head_counts.size(); ++id) {
        starts[id] = pos;
        pos += head_counts[id];
      }
      for (size_t r = 0; r < total; ++r) row_pos[r] = starts[staged_ids[r]]++;
      for (size_t id = 0; id < head_counts.size(); ++id) {
        starts[id] -= head_counts[id];
      }
      st.packed_heads.ForEachMutable(
          [&](uint64_t, std::pair<uint32_t, uint32_t>& payload) {
            const uint32_t id = payload.first;
            payload = {starts[id], head_counts[id]};
          });
    }
    for (size_t c = 0; c < st.right_arity; ++c) {
      const VarValue* src = staging_cols[c].data();
      VarValue* dst = st.arena_cols.data() + c * total;
      for (size_t r = 0; r < total; ++r) dst[row_pos[r]] = src[r];
    }
    for (size_t r = 0; r < total; ++r) {
      st.arena_measures[row_pos[r]] = staging_measures[r];
    }
  } else {
    size_t pos = 0;
    st.vec_heads.ForEachMutable([&](const std::vector<VarValue>&,
                                    std::pair<uint32_t, uint32_t>& payload) {
      const size_t start = pos;
      for (uint32_t idx = payload.first; idx != kNoChain; idx = next_row[idx]) {
        for (size_t c = 0; c < st.right_arity; ++c) {
          st.arena_cols[c * total + pos] = staging_cols[c][idx];
        }
        st.arena_measures[pos] = staging_measures[idx];
        ++pos;
      }
      payload = {static_cast<uint32_t>(start),
                 static_cast<uint32_t>(pos - start)};
    });
  }
  MPFDB_RETURN_IF_ERROR(left_->Open());
  st.left_open = true;
  return Status::Ok();
}

StatusOr<bool> HashProductJoin::NextBatch(RowBatch* out) {
  Impl& st = *impl_;
  if (!st.built) {
    MPFDB_RETURN_IF_ERROR(BuildBatches());
    st.built = true;
  }
  if (st.spilling) return NextBatchSpill(out);
  return JoinProbeNextBatch(st, st.probe, *left_, semiring_, ctx_, out);
}

// Reads build run `part` into its SpillJoinPart and rewinds its probe run.
Status HashProductJoin::LoadSpillPartition(size_t part) {
  Impl& st = *impl_;
  SpillJoinPart& jp = st.join_parts[st.resident ? part : 0];
  SpillFile& build = *st.right_parts[part];
  SpillFile& probe = *st.left_parts[part];
  MPFDB_RETURN_IF_ERROR(build.Rewind());
  MPFDB_RETURN_IF_ERROR(probe.Rewind());
  if (ctx_ != nullptr) {
    ctx_->RecordSpill(build.num_rows(), build.bytes_written());
    ctx_->RecordSpill(probe.num_rows(), probe.bytes_written());
  }
  const size_t total = static_cast<size_t>(build.num_rows());
  jp.vars.assign(total * st.right_arity, 0);
  jp.measures.assign(total, 0.0);
  jp.next_row.assign(total, kNoChain);
  jp.chains.clear();
  jp.probe_row.resize(st.left_arity + 1);
  jp.match = kNoChain;
  std::vector<VarValue>& key = st.key_vals;
  for (size_t r = 0; r < total; ++r) {
    VarValue* src = jp.vars.data() + r * st.right_arity;
    MPFDB_ASSIGN_OR_RETURN(bool has, build.Next(src, &jp.measures[r]));
    if (!has) return Status::Internal("spill partition shorter than expected");
    for (size_t k = 0; k < key.size(); ++k) {
      key[k] = src[st.layout.shared_right[k]];
    }
    const uint32_t idx = static_cast<uint32_t>(r);
    auto [slot, inserted] = jp.chains.FindOrInsert(key, {idx, idx});
    if (!inserted) {
      jp.next_row[slot->second] = idx;
      slot->second = idx;
    }
  }
  st.right_parts[part].reset();
  return PollContext(total);
}

// Moves partition `part` to its next joined row — the next build row
// matching the current probe row, else the first match of the next probe row
// that has one — and writes it into heads[part], its probe row's position
// last. False once the probe run is exhausted.
StatusOr<bool> HashProductJoin::NextSpillJoinRow(size_t part) {
  Impl& st = *impl_;
  SpillJoinPart& jp = st.join_parts[st.resident ? part : 0];
  SpillFile& probe = *st.left_parts[part];
  if (jp.match != kNoChain) jp.match = jp.next_row[jp.match];
  std::vector<VarValue>& key = st.key_vals;
  while (jp.match == kNoChain) {
    MPFDB_ASSIGN_OR_RETURN(bool has,
                           probe.Next(jp.probe_row.data(), &jp.probe_measure));
    if (!has) return false;
    MPFDB_RETURN_IF_ERROR(PollContext());
    for (size_t k = 0; k < key.size(); ++k) {
      key[k] = jp.probe_row[st.layout.shared_left[k]];
    }
    if (const auto* chain = jp.chains.Find(key)) jp.match = chain->first;
  }
  std::vector<VarValue>& row = st.heads[part];
  for (auto [out_c, left_c] : st.out_left_cols) {
    row[out_c] = jp.probe_row[left_c];
  }
  const VarValue* src = jp.vars.data() + size_t{jp.match} * st.right_arity;
  for (auto [out_c, right_c] : st.out_right_cols) row[out_c] = src[right_c];
  row.back() = jp.probe_row[st.left_arity];
  st.head_measures[part] =
      semiring_.Multiply(jp.probe_measure, jp.measures[jp.match]);
  return true;
}

// Moves partition `part` of the merge to its next row: joined on the spot
// when resident, else read back from its output run.
StatusOr<bool> HashProductJoin::NextMergeRow(size_t part) {
  Impl& st = *impl_;
  if (st.resident) return NextSpillJoinRow(part);
  return st.out_parts[part]->Next(st.heads[part].data(),
                                  &st.head_measures[part]);
}

// Prepares the merge. When the budget holds every build partition they all
// stay loaded and are joined as the merge pulls them; otherwise each is
// joined in turn, holding one partition, into an output run.
Status HashProductJoin::JoinSpillPartitions() {
  Impl& st = *impl_;
  const size_t arity = st.layout.schema.arity();
  const size_t row_bytes = st.right_arity * sizeof(VarValue) + sizeof(double);
  size_t build_bytes = 0;
  for (const auto& run : st.right_parts) build_bytes += run->num_rows();
  st.resident =
      st.part_memory.Charge(build_bytes * row_bytes, "HashProductJoin").ok();
  st.join_parts.resize(st.resident ? kSpillPartitions : 1);
  st.heads.assign(kSpillPartitions, std::vector<VarValue>(arity + 1));
  st.head_measures.assign(kSpillPartitions, 0.0);
  st.live.assign(kSpillPartitions, 0);
  if (!st.resident) {
    MPFDB_ASSIGN_OR_RETURN(st.out_parts, MakeSpillPartitions(ctx_, arity + 1));
  }
  for (size_t part = 0; part < kSpillPartitions; ++part) {
    const size_t rows = static_cast<size_t>(st.right_parts[part]->num_rows());
    MPFDB_RETURN_IF_ERROR(LoadSpillPartition(part));
    if (!st.resident) {
      st.part_memory.ReleaseAll();
      st.part_memory.ChargeUnchecked(rows * row_bytes);
      MPFDB_RETURN_IF_ERROR(JoinIntoRun(part));
    }
    MPFDB_ASSIGN_OR_RETURN(st.live[part], NextMergeRow(part));
  }
  if (!st.resident) st.part_memory.ReleaseAll();
  return Status::Ok();
}

// Joins partition `part` into its output run and rewinds the run.
Status HashProductJoin::JoinIntoRun(size_t part) {
  Impl& st = *impl_;
  SpillFile& joined = *st.out_parts[part];
  while (true) {
    MPFDB_ASSIGN_OR_RETURN(bool has, NextSpillJoinRow(part));
    if (!has) break;
    MPFDB_RETURN_IF_ERROR(
        joined.Append(st.heads[part].data(), st.head_measures[part]));
  }
  st.left_parts[part].reset();
  MPFDB_RETURN_IF_ERROR(joined.Rewind());
  if (ctx_ != nullptr) {
    ctx_->RecordSpill(joined.num_rows(), joined.bytes_written());
  }
  return Status::Ok();
}

// Merges the partitions by probe position: a probe row's matches lie in one
// partition, in build order, so the rows come out in exactly the order the
// in-memory join emits them.
StatusOr<bool> HashProductJoin::NextBatchSpill(RowBatch* out) {
  Impl& st = *impl_;
  const size_t arity = st.layout.schema.arity();
  out->Prepare(arity);
  while (!out->full()) {
    size_t next = kSpillPartitions;
    for (size_t part = 0; part < kSpillPartitions; ++part) {
      if (st.live[part] &&
          (next == kSpillPartitions ||
           static_cast<uint32_t>(st.heads[part][arity]) <
               static_cast<uint32_t>(st.heads[next][arity]))) {
        next = part;
      }
    }
    if (next == kSpillPartitions) break;
    out->AppendRow(st.heads[next].data(), st.head_measures[next]);
    MPFDB_ASSIGN_OR_RETURN(st.live[next], NextMergeRow(next));
  }
  MPFDB_RETURN_IF_ERROR(PollContext(out->num_rows()));
  return !out->empty();
}

StatusOr<std::vector<OperatorPtr>> HashProductJoin::MakeMorselStreams(
    size_t n) {
  Impl& st = *impl_;
  // Vending streams forces the blocking build, exactly as the first
  // NextBatch pull would. Afterwards the head maps and arena are frozen:
  // each stream probes them through a private cursor over a disjoint range
  // of the left child, so concatenating stream outputs in index order
  // reproduces the serial probe output.
  if (!st.built) {
    MPFDB_RETURN_IF_ERROR(BuildBatches());
    st.built = true;
  }
  // The spill path rebuilds per-partition state as it probes; that is
  // inherently sequential, so a degraded join drains serially.
  if (st.spilling) return std::vector<OperatorPtr>{};
  MPFDB_ASSIGN_OR_RETURN(std::vector<OperatorPtr> left_streams,
                         left_->MakeMorselStreams(n));
  std::vector<OperatorPtr> streams;
  streams.reserve(left_streams.size());
  for (auto& ls : left_streams) {
    streams.push_back(std::make_unique<HashJoinProbeStream<Impl>>(
        st, std::move(ls), semiring_));
  }
  return streams;
}

void HashProductJoin::Close() {
  if (impl_) {
    if (impl_->left_open) left_->Close();
    if (impl_->right_open) right_->Close();
  }
  impl_.reset();
}

}  // namespace mpfdb::exec
