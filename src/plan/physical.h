#ifndef MPFDB_PLAN_PHYSICAL_H_
#define MPFDB_PLAN_PHYSICAL_H_

#include <memory>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "plan/plan.h"
#include "semiring/semiring.h"
#include "storage/catalog.h"
#include "util/status.h"

// Logical -> physical planning pass.
//
// Every optimizer (cs, cs+, cs+nonlinear, ve(*)) produces a *logical*
// PlanNode tree: it fixes the marginalization order and join shape, but says
// nothing about how each operator runs. The PhysicalPlanner walks that tree
// bottom-up and picks, per node, a concrete algorithm:
//
//   - joins:    hash, sort-merge, or nested-loop (JoinAlgorithm)
//   - group-by: hash or sort marginalize (AggAlgorithm)
//   - Select(Scan(t), v=c) may fuse into an IndexScan when t has an index
//     on v (the catalog's HashIndex stores row ids in table order, so the
//     fused scan emits exactly the rows Select(Scan) would, in order)
//
// Choices are driven by the CostModel's per-algorithm costs plus
// Selinger-style *interesting orders*: each candidate sub-plan advertises
// the variable sequence its output is sorted by (sort-merge join output is
// sorted by the shared variables; either marginalize emits groups sorted by
// the group variables; hash/nested-loop joins and streaming unary operators
// propagate the left/child order). A downstream sort-merge join or
// sort-marginalize whose key sequence is a prefix of the incoming order
// skips its own sort (the skip_sort_* flags below); skipped sorts are free
// in the cost model, which is how order-producing plans win.
//
// Bit-identity. The planner only ever picks algorithms that produce results
// bit-identical to the all-hash baseline:
//   - Agg: HashMarginalize folds each group in arrival order and emits
//     groups sorted by key; a *stable* sort-marginalize does exactly the
//     same, so the agg choice is always free.
//   - Hash and nested-loop joins emit identical sequences (left-major, right
//     matches in arrival order), so that choice is always free too.
//   - Sort-merge join reorders emission. Under semirings whose Add is
//     order-invariant (min/max based — see Semiring::AddIsOrderInvariant)
//     that never matters. Under sum-based semirings it is admissible only
//     when every output row's downstream fold is confluent: the nearest
//     enclosing GroupBy — reached through streaming unary operators only —
//     must group by a superset of the join's shared variables, so each
//     fold group receives the same multiset of contributions in the same
//     per-group relative order regardless of the merge emission order.
//     Joins reset this fold context for their children.
//   - Memory rule: sort-based operators cannot spill. When the planner sees
//     a finite memory limit it selects hash everywhere in auto mode, so
//     governed queries keep their spill-degradation behavior (and the spill
//     path's partition-major emission can never invalidate a claimed order,
//     because orders are only consumed by sort operators).
//
// Force overrides (ExecOptions::join / agg != kAuto) bypass cost and
// admissibility entirely — they exist for ablation benchmarks and tests.
namespace mpfdb {

// Physical algorithm for a product-join node. kAuto is only meaningful in
// ExecOptions / PhysicalPlannerOptions ("let the planner choose per node");
// a finished physical plan never contains kAuto. kLeapfrog is the
// worst-case-optimal trie join; it is the only implementation of the n-ary
// kMultiwayJoin logical node and never applies to binary joins, so the
// binary force overrides leave it untouched.
enum class JoinAlgorithm {
  kAuto,
  kHash,
  kSortMerge,
  kNestedLoop,
  kLeapfrog,
};

// Physical algorithm for a marginalizing group-by node. Same kAuto contract
// as JoinAlgorithm.
enum class AggAlgorithm {
  kAuto,
  kHash,
  kSort,
};

const char* JoinAlgorithmName(JoinAlgorithm algorithm);
const char* AggAlgorithmName(AggAlgorithm algorithm);

// One node of a physical plan. Mirrors the logical tree (one physical node
// per logical node), except that a fused index scan collapses a
// Select(Scan) pair into a single leaf. `logical` always points at the
// logical node this physical node implements — for a fused leaf that is the
// kSelect node (whose left child is the absorbed kScan).
struct PhysicalPlanNode {
  // kind is usually logical->kind; kIndexScan when index fusion collapsed a
  // Select(Scan) pair (then logical->kind == kSelect).
  PlanNodeKind kind = PlanNodeKind::kScan;
  const PlanNode* logical = nullptr;
  std::unique_ptr<PhysicalPlanNode> left;
  std::unique_ptr<PhysicalPlanNode> right;
  // kMultiwayJoin operands (left/right stay null).
  std::vector<std::unique_ptr<PhysicalPlanNode>> children;

  // Algorithm choices. Meaningful only for the matching kind.
  JoinAlgorithm join = JoinAlgorithm::kHash;  // kJoin
  AggAlgorithm agg = AggAlgorithm::kHash;     // kGroupBy
  bool index_fused = false;  // kIndexScan produced by Select(Scan) fusion

  // Interesting orders: the variable sequence this node's output is sorted
  // by (lexicographically, by VarValue), empty when unordered.
  std::vector<std::string> output_order;
  // Sort-merge join: input already sorted by the shared variables, skip the
  // (stable) sort of that side.
  bool skip_sort_left = false;
  bool skip_sort_right = false;
  // Sort marginalize: input already sorted by the group variables.
  bool skip_sort_input = false;

  // Physical cost of this node alone and cumulative for the subtree, from
  // the planner's CostModel (not comparable to logical est_cost, which the
  // optimizers computed with their own model).
  double node_cost = 0.0;
  double total_cost = 0.0;

  std::unique_ptr<PhysicalPlanNode> Clone() const;
};

struct PhysicalPlannerOptions {
  // kAuto = per-node cost-based choice; anything else forces that algorithm
  // on every node of the matching kind (admissibility checks are skipped —
  // forcing sort-merge under a sum semiring can legitimately change result
  // bits, exactly like the pre-physical-planner global knob did).
  JoinAlgorithm force_join = JoinAlgorithm::kAuto;
  AggAlgorithm force_agg = AggAlgorithm::kAuto;
  // Planner-visible memory budget in bytes; 0 = unbounded. Finite budgets
  // restrict auto mode to hash operators (they can spill; sorts cannot).
  size_t memory_limit = 0;
  // Allow Select(Scan) -> IndexScan fusion when the catalog has an index.
  bool allow_index_fusion = true;
};

// Bottom-up cost-based physical planner. Stateless apart from the borrowed
// catalog / cost model / semiring, all of which must outlive the planner.
class PhysicalPlanner {
 public:
  PhysicalPlanner(const Catalog& catalog, const CostModel& cost_model,
                  Semiring semiring, PhysicalPlannerOptions options);

  // Plans the whole logical tree. Returns the chosen physical tree; every
  // join/agg node carries a concrete (non-kAuto) algorithm.
  StatusOr<std::unique_ptr<PhysicalPlanNode>> PlanTree(
      const PlanNode& root) const;

 private:
  struct Candidate;

  StatusOr<std::vector<Candidate>> Enumerate(
      const PlanNode& node, const std::vector<std::string>* fold_vars) const;
  static void Prune(std::vector<Candidate>* candidates);

  const Catalog& catalog_;
  const CostModel& cost_model_;
  Semiring semiring_;
  PhysicalPlannerOptions options_;
};

// Renders the physical tree, two-space indented, one node per line:
//   GroupBy{y}  [agg=sort presorted est=120 cost=340]
//     ProductJoin  [join=sort_merge order=(y) est=4000 cost=220]
std::string ExplainPhysicalPlan(const PhysicalPlanNode& root);

}  // namespace mpfdb

#endif  // MPFDB_PLAN_PHYSICAL_H_
