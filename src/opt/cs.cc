#include "opt/cs.h"

#include "opt/joinplan.h"

namespace mpfdb::opt {

StatusOr<PlanPtr> CsOptimizer::Optimize(const MpfViewDef& view,
                                        const MpfQuerySpec& query,
                                        const Catalog& catalog,
                                        const CostModel& cost_model) {
  MPFDB_ASSIGN_OR_RETURN(QueryContext ctx,
                         QueryContext::Make(view, query, catalog, cost_model));
  JoinPlanOptions opts;
  opts.bushy = false;
  opts.groupby_pushdown = false;
  opts.charge_root_groupby = true;
  MPFDB_ASSIGN_OR_RETURN(PlanPtr plan,
                         BestJoinPlan(ctx, LeafFactors(ctx), opts));
  MPFDB_ASSIGN_OR_RETURN(plan, FinalizePlan(ctx, std::move(plan)));
  last_order_ = EliminationOrderFromPlan(*plan);
  return plan;
}

StatusOr<PlanPtr> CsPlusOptimizer::Optimize(const MpfViewDef& view,
                                            const MpfQuerySpec& query,
                                            const Catalog& catalog,
                                            const CostModel& cost_model) {
  MPFDB_ASSIGN_OR_RETURN(QueryContext ctx,
                         QueryContext::Make(view, query, catalog, cost_model));
  JoinPlanOptions opts;
  opts.bushy = nonlinear_;
  opts.groupby_pushdown = true;
  opts.charge_root_groupby = true;
  MPFDB_ASSIGN_OR_RETURN(PlanPtr plan,
                         BestJoinPlan(ctx, LeafFactors(ctx), opts));
  MPFDB_ASSIGN_OR_RETURN(plan, FinalizePlan(ctx, std::move(plan)));
  last_order_ = EliminationOrderFromPlan(*plan);
  return plan;
}

}  // namespace mpfdb::opt
