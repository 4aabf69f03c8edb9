#ifndef MPFDB_WORKLOAD_VECACHE_H_
#define MPFDB_WORKLOAD_VECACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/table_ops.h"
#include "plan/plan.h"
#include "semiring/semiring.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "util/query_context.h"
#include "util/status.h"
#include "workload/bp.h"

namespace mpfdb::workload {

// A workload of MPF queries over one view: each query is a single-variable
// basic or restricted-answer query with an occurrence probability (the MPF
// Workload Problem of Section 6).
struct WorkloadQuery {
  MpfQuerySpec spec;
  double probability = 1.0;
};

struct VeCacheOptions {
  // Elimination heuristic for the no-query-variable VE plan of Algorithm 3
  // line 1: "degree" (default) or "width".
  bool use_width_heuristic = false;
  // Optional resource governor: Build charges each materialized cache table
  // against its memory budget and polls cancel/deadline between elimination
  // steps. Cache construction does not spill — a budget breach fails with
  // kResourceExhausted. The charges are construction-scoped (released when
  // Build returns); the budget bounds the build's peak, not the lifetime of
  // the returned cache.
  QueryContext* context = nullptr;
};

// --- Exact-replay delta plan -------------------------------------------
//
// Build() records, besides the cache tables themselves, the row-level
// dataflow that produced them: which factor row fed which joined row, which
// joined rows fold into which message row, and which separator group each
// row belongs to on every tree edge. The table kernels (exec/table_ops.h)
// report these maps as they compute the tables. A measure update then
// *replays* exactly the Build dataflow for the affected rows — same
// per-entry formulas, same fold orders — so the incrementally refreshed
// cache is bit-identical to a full rebuild against the updated base tables
// (the kernels' row structure is measure-independent, and IEEE +/* are
// bitwise commutative, which covers the operand order a product join picks
// by input size). Rows whose recomputed value is bitwise unchanged are
// pruned, so propagation dies out on untouched subtrees and per-update work
// scales with the changed rows.

// Compressed group->members adjacency (members stored back to back).
struct DeltaCsr {
  std::vector<uint32_t> offsets;  // size = num_groups + 1
  std::vector<uint32_t> members;

  const uint32_t* begin(size_t g) const { return members.data() + offsets[g]; }
  const uint32_t* end(size_t g) const {
    return members.data() + offsets[g + 1];
  }
};

// One factor of a clique's join, in fold (clique) order.
struct DeltaFactorSlot {
  bool is_base = false;  // base table, else the message of clique `index`
  uint32_t index = 0;    // base_tables_ index or producing clique index
  std::vector<uint32_t> row_map;  // joined row -> factor row
  DeltaCsr rev;                   // factor row -> joined rows
};

// Per-clique replay maps: the clique's join fold and its outgoing message.
struct DeltaCliquePlan {
  // Single-factor cliques alias the factor table as `joined`; no fold.
  bool alias = false;
  std::vector<DeltaFactorSlot> slots;
  std::vector<uint32_t> msg_group_of;  // joined row -> message row
  // Message row -> joined rows, in fold order.
  DeltaCsr msg_members;
  bool msg_consumed = false;  // message feeds a later clique
};

// Per-edge replay maps for the backward update semijoin
//   final_i = PJ(cache0_i,
//                DivisionJoin(Marg(final_j, sep), Marg(cache0_i, sep))).
// Groups are the separator assignments of t = cache0_i (== joined_i),
// numbered in ascending order: group g is row g of Marg(cache0_i, sep)
// (exec::SemijoinRows).
struct DeltaEdgePlan {
  static constexpr uint32_t kNoGroup = exec::SemijoinRows::kNoGroup;
  uint32_t t_clique = 0;  // i: the cache being refreshed
  uint32_t s_clique = 0;  // j: the neighbor whose marginal flows in
  std::vector<uint32_t> t_group_of;  // t row -> group
  std::vector<uint32_t> s_group_of;  // s row -> group (kNoGroup: sep not in t)
  DeltaCsr t_members;                // group -> t rows (t row order = gt fold)
  DeltaCsr s_members;                // group -> s rows (s row order = gs fold)
  std::vector<uint32_t> final_to_t;  // final_i row -> t row
  DeltaCsr group_final;              // group -> final_i rows
};

struct DeltaPlan {
  std::vector<DeltaCliquePlan> cliques;
  std::vector<DeltaEdgePlan> edges;    // parallel to VeCache::edges()
  std::vector<int32_t> out_edge;       // clique -> edge index, -1 for roots
  std::vector<uint8_t> base_absorbed;  // per base table: feeds some clique
  // Lowest cache index per component id (the cache whose scalar marginal
  // TotalComponents publishes as the component total).
  std::map<size_t, size_t> component_rep;
};

// One base-relation measure-update batch for WithMeasureDelta.
struct VeCacheDeltaOp {
  std::string table;
  // Replacement version of the base table (sharing its variable block). May
  // be null: the delta then synthesizes it via Table::WithMeasureUpdates.
  TablePtr new_table;
  std::vector<std::pair<size_t, double>> rows;  // (row index, new measure)
};

// The VE-cache materialized-view set (Algorithm 3). Build() runs a
// no-query-variable Variable Elimination pass over the view's base tables,
// materializing every pre-GroupBy join result; the cached tables are exactly
// the cliques of the triangulation induced by the elimination order
// (Theorem 10), so they form an acyclic schema. The backward update-semijoin
// pass (DistributePass in workload/bp.h, BP's distribute pass) then
// establishes the workload correctness invariant of Definition 5 within each
// var-disjoint component: any MPF query on a variable of cache t answered
// from t, times the other components' totals, equals the query answered from
// the full view.
class VeCache {
 public:
  static StatusOr<VeCache> Build(const MpfViewDef& view, const Catalog& catalog,
                                 const VeCacheOptions& options = {});

  // Answers an MPF query from the cache. Group variables contained in a
  // single cached table (the single-variable workload queries of Section 6)
  // marginalize that table directly; variables spanning several caches are
  // answered by joining the calibrated caches along their tree paths while
  // dividing out each edge's separator marginal — the standard
  // out-of-clique inference on a calibrated junction tree, so no mass is
  // double-counted. Selections are absorbed with the restricted-domain
  // protocol before marginalizing. A non-null `ctx` is polled between the
  // relational steps, so its cancel token and deadline stop the read.
  StatusOr<TablePtr> Answer(const MpfQuerySpec& query,
                            QueryContext* ctx = nullptr) const;

  // The restricted-domain protocol (Theorem 5): applies var = value to a
  // cache containing the variable and propagates update-semijoin reductions
  // along the cache tree, returning a new cache set satisfying the invariant
  // for the constrained view.
  StatusOr<VeCache> WithSelection(const std::string& var, VarValue value,
                                  QueryContext* ctx = nullptr) const;

  const std::vector<TablePtr>& caches() const { return caches_; }
  // Dependency tree edges (i, j), i < j: GroupBy(cache i) participated in
  // the join that created cache j. Children come before their parents, as
  // in workload::TreeEdges.
  const TreeEdges& edges() const { return edges_; }
  const std::vector<std::string>& elimination_order() const { return order_; }
  // The caches' var-disjoint components and their totals.
  const ComponentTotals& components() const { return components_; }

  // Total rows across all cached tables — the C(S) materialization size the
  // workload objective charges.
  int64_t TotalCacheRows() const;

  // Incremental maintenance (the paper's "option 1": keep materialized views
  // consistent as base relations are updated): a new VeCache version with
  // the given base-measure batch applied, leaving this version untouched
  // (readers keep answering from it). Bit-identical to a rebuild. New
  // cache/message tables share every measure chunk their rows did not
  // change, and the replay walks only cliques on the path from the changed
  // factors, pruning rows whose recomputed value is bitwise unchanged.
  // Fails with kFailedPrecondition when exact replay cannot proceed (no
  // delta plan — e.g. a selection-restricted cache; an absorbing zero in a
  // product semiring; a base table no clique absorbed): the caller falls
  // back to a full Build against the updated catalog.
  StatusOr<VeCache> WithMeasureDelta(
      const std::vector<VeCacheDeltaOp>& ops) const;

  // True when this cache retains the Build artifacts WithMeasureDelta needs.
  bool SupportsDelta() const { return delta_plan_ != nullptr; }

  const std::vector<TablePtr>& base_tables() const { return base_tables_; }
  StatusOr<size_t> BaseIndexOf(const std::string& table_name) const;
  // Row of base table `base_index` whose variable values equal `row_vars`
  // (the lowest such row): a binary search over the table's canonical row
  // order. NotFound if absent; InvalidArgument for an out-of-range
  // `base_index` or a wrong arity.
  StatusOr<size_t> LocateBaseRow(size_t base_index,
                                 const std::vector<VarValue>& row_vars) const;

 private:
  VeCache(Semiring semiring) : semiring_(semiring) {}

  // Completes the delta plan whose row maps Build collected from the
  // kernels (the reverse maps, edge directions, message consumers and
  // component representatives) and adopts it. Called once at the end of
  // Build.
  Status FinishDeltaPlan(std::shared_ptr<DeltaPlan> plan);

  // Re-propagates updates outward from cache `start` along the tree, then
  // recomputes the component totals.
  Status DistributeFrom(size_t start, QueryContext* ctx);
  // Builds base_row_orders_ over base_tables_.
  void BuildBaseRowOrders();
  // Combines the calibrated caches of the minimal subtrees covering
  // `needed_vars` into one relation holding the joint's marginal over (at
  // least) those variables, including cross-component totals.
  StatusOr<TablePtr> CombineForVars(const std::vector<std::string>& needed_vars,
                                    QueryContext* ctx) const;
  Semiring semiring_;
  std::vector<TablePtr> caches_;
  TreeEdges edges_;
  std::vector<std::string> order_;
  // Base tables of the view, in view order, and the cache that absorbed each.
  std::vector<TablePtr> base_tables_;
  std::vector<size_t> base_to_cache_;
  // Per-base-table canonical row orders (exec::CanonicalRowOrder), which
  // LocateBaseRow binary-searches. Built once at Build and shared by every
  // version derived from it — measure updates never change row variables,
  // and a selection restricts the caches, not the base tables.
  std::shared_ptr<const std::vector<std::vector<uint32_t>>> base_row_orders_;
  // Component per cache and total per component. Answer multiplies the
  // totals of the components a query does not cover into its result.
  ComponentTotals components_;
  // Retained Build artifacts for exact-replay maintenance: the pre-GroupBy
  // clique join (joined_[i]; == the pre-backward cache0_i values; aliases
  // the factor table for single-factor cliques) and the outgoing message
  // (msgs_[i]). Shared between versions; WithMeasureDelta replaces them with
  // chunk-sharing new versions. Empty (with a null delta_plan_) on caches
  // whose structure diverged from Build, e.g. WithSelection results.
  std::vector<TablePtr> joined_;
  std::vector<TablePtr> msgs_;
  std::shared_ptr<const DeltaPlan> delta_plan_;
};

}  // namespace mpfdb::workload

#endif  // MPFDB_WORKLOAD_VECACHE_H_
