#ifndef MPFDB_OPT_JOINPLAN_H_
#define MPFDB_OPT_JOINPLAN_H_

#include <cstdint>
#include <vector>

#include "opt/optimizer.h"

namespace mpfdb::opt {

struct JoinPlanOptions {
  // Search bushy (nonlinear) join trees instead of left-linear only
  // (Section 5.1's nonlinear extension).
  bool bushy = false;
  // Apply the greedy-conservative GroupBy pushdown of Chaudhuri-Shim at each
  // join: compare joining each operand as-is against joining it under a
  // GroupBy on its semantically safe variable set, and keep the cheaper
  // (Algorithm 1 lines 2-4; four candidates in the bushy case).
  bool groupby_pushdown = false;
  // Never join operands that share no variables unless the subset admits no
  // connected decomposition (cross products as a last resort).
  bool avoid_cross_products = true;
  // When true, candidates covering the FULL factor set are compared by
  // est_cost + GroupByCost(est_card) — the cost including the root
  // marginalization onto the query variables, which Algorithm 1's optPlan
  // for the complete query includes. Without this, a plan with a cheaper
  // join tree but a larger pre-aggregation result wrongly beats one whose
  // operand GroupBys shrank the final join.
  bool charge_root_groupby = false;
};

// Exhaustive dynamic-programming join planning over `factors` under `opts`.
// Returns the best plan covering all factors. Requires factors.size() <= 16
// when bushy (the DP is O(3^n)) and <= 20 otherwise.
StatusOr<PlanPtr> BestJoinPlan(const QueryContext& ctx,
                               const std::vector<Factor>& factors,
                               const JoinPlanOptions& opts);

// Chains `factors` in ascending estimated-cardinality order with plain joins
// (no GroupBys). This is the "fixed linear join ordering" overestimate the
// paper uses to implement the elimination-cost heuristic cheaply.
StatusOr<PlanPtr> FixedOrderJoinPlan(const QueryContext& ctx,
                                     std::vector<Factor> factors);

}  // namespace mpfdb::opt

#endif  // MPFDB_OPT_JOINPLAN_H_
