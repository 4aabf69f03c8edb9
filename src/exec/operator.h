#ifndef MPFDB_EXEC_OPERATOR_H_
#define MPFDB_EXEC_OPERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/batch.h"
#include "exec/hash_table.h"
#include "plan/plan.h"
#include "semiring/semiring.h"
#include "storage/catalog.h"
#include "storage/index.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "util/query_context.h"
#include "util/status.h"

namespace mpfdb::exec {

// Batch-at-a-time physical operator. Usage: Open(), then NextBatch() until
// it returns false, then Close(). Operators own their children.
class PhysicalOperator {
 public:
  virtual ~PhysicalOperator() = default;

  virtual Status Open() = 0;
  // Fills `batch` with 1..kBatchSize rows and returns true, or returns false
  // at end of stream. The batch is Prepare()d to output_schema().arity() by
  // the callee; callers just pass the same RowBatch on every pull so its
  // buffers are reused.
  virtual StatusOr<bool> NextBatch(RowBatch* batch) = 0;
  virtual void Close() = 0;

  // Binds the per-query resource context (memory budget, deadline,
  // cancellation, spill configuration). Must be called before Open;
  // operators with children override it to propagate the binding down the
  // tree. A null context — the default — disables all governance.
  virtual void BindContext(QueryContext* ctx) { ctx_ = ctx; }

  // Approximate number of source rows feeding this operator's stream, used
  // to presize a consumer's buffers (HashProductJoin's build staging); 0
  // when unknown.
  virtual size_t SourceRowsHint() const { return 0; }

  virtual const Schema& output_schema() const = 0;
  virtual std::string name() const = 0;

  // Attaches this operator's runtime stats record (EXPLAIN ANALYZE). The
  // operator routes its MemoryGuard high-water marks and spill partition
  // counts into it; rows/batches/wall time are measured from outside by the
  // executor's instrumentation decorator. Must be set before Open; the
  // record must outlive the operator. Null (the default) disables the hook.
  void set_stats(OperatorStats* stats) { stats_ = stats; }

 protected:
  // How many locally processed rows PollContext accumulates before it
  // forwards to QueryContext::Poll. Amortizes the poll's atomic load across
  // per-row and per-group loops while keeping cancellation latency far below
  // one batch (each polling operator adds at most this many rows of slack).
  static constexpr size_t kPollStride = 64;

  // Cancellation/deadline check; called from operator loops with the number
  // of rows processed since the last check. Free when no context is bound.
  Status PollContext(size_t rows = 1) {
    if (ctx_ == nullptr) return Status::Ok();
    pending_poll_rows_ += rows;
    if (pending_poll_rows_ < kPollStride) return Status::Ok();
    size_t pending = pending_poll_rows_;
    pending_poll_rows_ = 0;
    return ctx_->Poll(pending);
  }

  QueryContext* ctx_ = nullptr;
  OperatorStats* stats_ = nullptr;

 private:
  size_t pending_poll_rows_ = 0;
};

using OperatorPtr = std::unique_ptr<PhysicalOperator>;

// Runs `op` to completion on the calling thread and materializes its
// output. When `ctx` is supplied the drive loop also polls it as a backstop
// for operators that emit many rows per leaf pull, and the operator is
// Closed on error so partial state is torn down before the Status
// propagates.
StatusOr<TablePtr> Run(PhysicalOperator& op, const std::string& result_name,
                       QueryContext* ctx = nullptr);

// --- Leaf ------------------------------------------------------------------

// Full scan of an in-memory table.
class SeqScan : public PhysicalOperator {
 public:
  explicit SeqScan(TablePtr table) : table_(std::move(table)) {}

  Status Open() override;
  StatusOr<bool> NextBatch(RowBatch* batch) override;
  void Close() override;
  size_t SourceRowsHint() const override { return table_->NumRows(); }
  const Schema& output_schema() const override { return table_->schema(); }
  std::string name() const override {
    return "SeqScan(" + table_->name() + ")";
  }

 private:
  TablePtr table_;
  size_t next_row_ = 0;
};

// Equality scan served by a hash index: emits exactly the rows whose indexed
// variable equals `value`, in the index's row-id order.
class IndexScan : public PhysicalOperator {
 public:
  // `index` must index `table` (same snapshot) and outlive this operator.
  IndexScan(TablePtr table, const HashIndex* index, VarValue value)
      : table_(std::move(table)), index_(index), value_(value) {}

  Status Open() override;
  StatusOr<bool> NextBatch(RowBatch* batch) override;
  void Close() override {}
  const Schema& output_schema() const override { return table_->schema(); }
  std::string name() const override {
    return "IndexScan(" + table_->name() + ")";
  }

 private:
  TablePtr table_;
  const HashIndex* index_;
  VarValue value_;
  const std::vector<size_t>* matches_ = nullptr;
  size_t cursor_ = 0;
};

// --- Unary -----------------------------------------------------------------

// Streaming equality filter var = value.
class Filter : public PhysicalOperator {
 public:
  Filter(OperatorPtr child, std::string var, VarValue value);

  Status Open() override;
  StatusOr<bool> NextBatch(RowBatch* batch) override;
  void Close() override;
  void BindContext(QueryContext* ctx) override {
    ctx_ = ctx;
    child_->BindContext(ctx);
  }
  size_t SourceRowsHint() const override { return child_->SourceRowsHint(); }
  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  std::string name() const override {
    return "Filter(" + var_ + "=" + std::to_string(value_) + ")";
  }

 private:
  OperatorPtr child_;
  std::string var_;
  VarValue value_;
  size_t var_index_ = 0;
  std::vector<uint32_t> sel_;  // surviving row indices, reused per batch
};

// Streaming filter on the measure value (the HAVING clause of
// constrained-range MPF queries). Placed above the final marginalization.
class MeasureFilter : public PhysicalOperator {
 public:
  MeasureFilter(OperatorPtr child, HavingClause having)
      : child_(std::move(child)), having_(having) {}

  Status Open() override { return child_->Open(); }
  StatusOr<bool> NextBatch(RowBatch* batch) override;
  void Close() override { child_->Close(); }
  void BindContext(QueryContext* ctx) override {
    ctx_ = ctx;
    child_->BindContext(ctx);
  }
  size_t SourceRowsHint() const override { return child_->SourceRowsHint(); }
  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  std::string name() const override { return "MeasureFilter"; }

 private:
  OperatorPtr child_;
  HavingClause having_;
  std::vector<uint32_t> sel_;
};

// Streaming column-dropping projection (no deduplication). Only legal when
// the retained variables functionally determine the dropped ones
// (Proposition 1); the optimizer is responsible for that precondition.
class StreamProject : public PhysicalOperator {
 public:
  StreamProject(OperatorPtr child, std::vector<std::string> keep_vars);

  Status Open() override;
  StatusOr<bool> NextBatch(RowBatch* batch) override;
  void Close() override;
  void BindContext(QueryContext* ctx) override {
    ctx_ = ctx;
    child_->BindContext(ctx);
  }
  size_t SourceRowsHint() const override { return child_->SourceRowsHint(); }
  const Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "StreamProject"; }

 private:
  OperatorPtr child_;
  std::vector<std::string> keep_vars_;
  Schema schema_;
  std::vector<size_t> keep_indices_;
  RowBatch child_batch_;
};

// Blocking hash aggregation implementing the marginalizing GroupBy: groups on
// `group_vars`, combines measures with the semiring's Add.
//
// When a `catalog` is supplied and its domain statistics show the group
// variables pack into 64 bits, the drain hashes one uint64 per row instead
// of a std::vector<VarValue>; otherwise it falls back to vector keys (or,
// without a catalog, to a 32-bit-per-component packing when the key is
// short enough). Every path folds into the Swiss tables of hash_table.h, and
// every drain sorts its groups before emitting, so table iteration order
// never reaches the output.
class HashMarginalize : public PhysicalOperator {
 public:
  HashMarginalize(OperatorPtr child, std::vector<std::string> group_vars,
                  Semiring semiring, const Catalog* catalog = nullptr);

  Status Open() override;
  StatusOr<bool> NextBatch(RowBatch* batch) override;
  void Close() override;
  void BindContext(QueryContext* ctx) override {
    ctx_ = ctx;
    child_->BindContext(ctx);
  }
  size_t SourceRowsHint() const override { return child_->SourceRowsHint(); }
  const Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "HashMarginalize"; }

 private:
  Status DrainBatches();

  OperatorPtr child_;
  std::vector<std::string> group_vars_;
  Semiring semiring_;
  const Catalog* catalog_;
  Schema schema_;
  std::vector<size_t> key_indices_;
  bool drained_ = false;
  // Accounting for the materialized groups (released on Close/re-Open); the
  // transient aggregation tables use drain-local guards.
  MemoryGuard memory_;
  // The sorted groups: row-major group keys plus parallel measures.
  std::vector<VarValue> out_vars_;
  std::vector<double> out_measures_;
  size_t next_group_ = 0;
};

// --- Binary ----------------------------------------------------------------

// Hash product join: builds a hash table over the right child on the shared
// variables, then streams the left child, producing one output row per match
// with measure Multiply(left.f, right.f). With no shared variables this
// degenerates to a cross product.
//
// The build side is materialized into a flat arena with packed 64-bit keys
// when `catalog` domain statistics allow (vector-key fallback otherwise).
// The key heads live in a Swiss table, except when the packed-key universe
// is small (at most 2^16 keys, or up to 2^24 when the build side is large
// enough to amortize it): then they live in a dense array indexed by the
// packed key itself, collision-free because the catalog fixes the domains.
// Each key's match run stays contiguous and insertion-ordered either way,
// so emission is bit-identical.
class HashProductJoin : public PhysicalOperator {
 public:
  HashProductJoin(OperatorPtr left, OperatorPtr right, Semiring semiring,
                  const Catalog* catalog = nullptr);
  ~HashProductJoin() override;

  Status Open() override;
  StatusOr<bool> NextBatch(RowBatch* batch) override;
  void Close() override;
  void BindContext(QueryContext* ctx) override {
    ctx_ = ctx;
    left_->BindContext(ctx);
    right_->BindContext(ctx);
  }
  size_t SourceRowsHint() const override { return left_->SourceRowsHint(); }
  const Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "HashProductJoin"; }

 private:
  struct Impl;
  Status BuildBatches();
  StatusOr<bool> NextBatchSpill(RowBatch* out);
  Status JoinSpillPartitions();
  Status LoadSpillPartition(size_t part);
  Status JoinIntoRun(size_t part);
  StatusOr<bool> NextSpillJoinRow(size_t part);
  StatusOr<bool> NextMergeRow(size_t part);

  OperatorPtr left_;
  OperatorPtr right_;
  Semiring semiring_;
  const Catalog* catalog_;
  Schema schema_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mpfdb::exec

#endif  // MPFDB_EXEC_OPERATOR_H_
