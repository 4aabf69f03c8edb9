#ifndef MPFDB_EXEC_TRIE_JOIN_H_
#define MPFDB_EXEC_TRIE_JOIN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/operator.h"
#include "exec/spill.h"
#include "semiring/semiring.h"
#include "storage/schema.h"
#include "util/query_context.h"
#include "util/status.h"

namespace mpfdb::exec {

// --- Trie iterator ----------------------------------------------------------

// Per-depth seek/next counters for one trie iterator; surfaced per variable
// through OperatorStats::trie_vars for EXPLAIN ANALYZE.
struct TrieLevelStats {
  uint64_t seeks = 0;
  uint64_t nexts = 0;
};

// Sorted-array trie cursor over one staged relation: `num_rows` rows of
// `arity` VarValues each, row-major and sorted lexicographically. The trie
// is implicit — depth d ranges over the distinct values of column d within
// the parent key's row run, so Open/Up push and pop [begin, end) ranges and
// Seek/Next move by binary search instead of pointer chasing.
//
// Protocol (LeapFrog TrieJoin's linear-iterator contract): at depth d the
// iterator is positioned on a key (the distinct value run [block_begin,
// block_end)) or AtEnd. Open() descends into the current key's run and
// positions on its first child key; Up() returns to the parent key; Next()
// advances to the following distinct key at this depth; Seek(v) advances to
// the first key >= v. Seek never moves backwards — LFTJ only seeks forward.
// At the deepest level every column is fixed, so [block_begin, block_end) is
// exactly the run of duplicate rows matching the full key.
class TrieIterator {
 public:
  TrieIterator(const VarValue* rows, size_t num_rows, size_t arity);

  // Requires depth() + 1 < arity and, when depth() >= 0, !AtEnd().
  void Open();
  // Requires depth() >= 0.
  void Up();
  // Requires depth() >= 0 and !AtEnd().
  void Next();
  void Seek(VarValue v);

  bool AtEnd() const;
  VarValue Key() const;
  // -1 before the first Open (positioned above the root).
  int depth() const { return static_cast<int>(levels_.size()) - 1; }
  size_t arity() const { return arity_; }

  // Row run of the current key at the current depth.
  size_t block_begin() const { return levels_.back().pos; }
  size_t block_end() const { return levels_.back().end; }

  // One entry per trie depth.
  const std::vector<TrieLevelStats>& level_stats() const { return stats_; }

 private:
  struct Level {
    size_t range_begin = 0;  // parent key's row run
    size_t range_end = 0;
    size_t pos = 0;  // current key's run [pos, end); pos == range_end at end
    size_t end = 0;
  };

  VarValue At(size_t row, size_t col) const {
    return rows_[row * arity_ + col];
  }
  // First row in [lo, hi) whose `col` value is >= v.
  size_t LowerBound(size_t col, size_t lo, size_t hi, VarValue v) const;
  // End of the run of rows equal to At(pos, col) within [pos, hi).
  size_t RunEnd(size_t col, size_t pos, size_t hi) const;

  const VarValue* rows_;
  size_t num_rows_;
  size_t arity_;
  std::vector<Level> levels_;
  std::vector<TrieLevelStats> stats_;
};

// --- Operator ---------------------------------------------------------------

// LeapFrog TrieJoin: the worst-case-optimal n-ary product join backing the
// kMultiwayJoin physical node. Children are drained into per-child columnar
// arenas whose columns are permuted to the global variable order restricted
// to the child's variables, then sorted lexicographically (stable, so
// duplicate rows keep arrival order). The join intersects the tries one
// variable at a time in `var_order`, emitting output tuples in lexicographic
// var_order order. Duplicate-key runs produce the full cross
// product, child-major (child 0 varies slowest), with measures combined by
// Multiply in child order.
//
// Governance: staging charges the arenas against the query's memory budget;
// on kResourceExhausted with spills enabled the operator degrades to a
// binary Grace-hash-join cascade over SpillFile-backed scans (LFTJ's trie
// positions are not globally monotone — relations lacking the outer
// variables re-scan per binding — so the tries themselves cannot stream from
// disk). The degraded pipeline emits the same multiset of rows in a
// different order; downstream marginalizes aggregate per key, and the bit-
// identity guarantees of auto-selected plans are unaffected because the FAQ
// planner only emits multiway nodes for cyclic cores. Cancellation and
// deadlines are polled throughout staging and search.
class TrieJoin : public PhysicalOperator {
 public:
  // `var_order` must equal the union of the children's variables; children
  // must be >= 2.
  TrieJoin(std::vector<OperatorPtr> children,
           std::vector<std::string> var_order, Semiring semiring);
  ~TrieJoin() override;

  Status Open() override;
  StatusOr<bool> NextBatch(RowBatch* batch) override;
  void Close() override;
  void BindContext(QueryContext* ctx) override;
  size_t SourceRowsHint() const override;
  const Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "TrieJoin"; }

 private:
  // One staged child relation.
  struct ChildStage {
    std::vector<std::string> vars;   // trie column order
    std::vector<size_t> from_child;  // trie column -> child schema column
    size_t arity = 0;
    std::vector<VarValue> rows;  // row-major, sorted lexicographically
    std::vector<double> measures;
    std::unique_ptr<SpillFile> spill;  // degraded mode only
  };

  Status EnsureStaged();
  Status StageChildren();
  Status SortStage(ChildStage* stage);
  // Switches to spill mode: staged arenas are written out and released;
  // children still draining append straight to their spill files.
  Status DegradeToSpill();
  Status AppendToSpill(ChildStage* stage, const RowBatch& batch);
  Status BuildDegradedPipeline();

  Status InitMachine();
  void TearDownMachine();
  // Positions the machine on the next full variable assignment; every
  // child's deepest block is then its duplicate-row match run.
  StatusOr<bool> FindNextMatch();
  void OpenLevel(size_t k);
  void CloseLevel(size_t k);
  // Leapfrog intersection at level k; fills bound_[k] on success.
  StatusOr<bool> SearchLevel(size_t k);
  StatusOr<bool> AdvanceLevel(size_t k);
  void CollectIteratorStats();

  std::vector<OperatorPtr> children_;
  std::vector<std::string> var_order_;
  Semiring semiring_;
  Schema schema_;
  MemoryGuard memory_;

  // Staging state.
  bool staged_ = false;
  bool degraded_ = false;
  std::vector<ChildStage> stages_;
  OperatorPtr degraded_root_;

  // Children participating at each global level (indices into stages).
  std::vector<std::vector<size_t>> active_;

  // LFTJ machine.
  std::vector<std::unique_ptr<TrieIterator>> iters_;  // one per child
  bool started_ = false;
  bool done_ = false;
  std::vector<VarValue> bound_;  // matched key per level
  // Cross-product odometer over the match runs (valid while have_match_).
  bool have_match_ = false;
  std::vector<size_t> odo_;
};

}  // namespace mpfdb::exec

#endif  // MPFDB_EXEC_TRIE_JOIN_H_
