#ifndef MPFDB_OPT_OPTIMIZER_H_
#define MPFDB_OPT_OPTIMIZER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "plan/plan.h"
#include "storage/catalog.h"
#include "util/status.h"

namespace mpfdb::opt {

// Common interface of all MPF query optimizers (Section 5). An optimizer
// takes the view definition, the query, the catalog, and a cost model, and
// produces an annotated logical plan whose root yields a functional relation
// over exactly the query variables X. Logical plans fix the join shape and
// marginalization order only; per-node physical algorithm selection (hash vs
// sort-merge vs nested-loop joins, hash vs sort marginalize, index fusion)
// happens in the shared logical->physical pass every optimizer's output
// flows through (PhysicalPlanner in plan/physical.h, driven by the
// Executor).
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  virtual std::string name() const = 0;

  virtual StatusOr<PlanPtr> Optimize(const MpfViewDef& view,
                                     const MpfQuerySpec& query,
                                     const Catalog& catalog,
                                     const CostModel& cost_model) = 0;

  // The common variable-order IR every optimizer produces alongside its
  // plan: the order in which non-query variables are marginalized away by
  // the most recent Optimize call. VE and FAQ fill it from their search
  // directly; CS/CS+ derive it from the finished plan (the order GroupBy /
  // Project nodes drop variables, bottom-up). Empty before the first call.
  // EXPLAIN renders it, and FAQ scores candidate orders in this same
  // representation.
  const std::vector<std::string>& last_variable_order() const {
    return last_order_;
  }

 protected:
  std::vector<std::string> last_order_;
};

// Shared per-query state set up identically by every optimizer: validated
// inputs, one leaf plan per base relation (scan plus any pushed-down
// selections), and the variable -> relations index.
struct QueryContext {
  PlanBuilder builder;
  std::vector<std::string> query_vars;
  // HAVING clause to apply at the plan root, if any.
  std::optional<HavingClause> having;
  // Leaf plan for each base relation, in view order.
  std::vector<PlanPtr> leaves;
  // Variables of each leaf (after selections; selections do not drop vars).
  std::vector<std::vector<std::string>> leaf_vars;
  // All variables of the view.
  std::vector<std::string> all_vars;

  // Builds the context or reports why the query is invalid (unknown
  // relation, query variable absent from the view, ...).
  static StatusOr<QueryContext> Make(const MpfViewDef& view,
                                     const MpfQuerySpec& query,
                                     const Catalog& catalog,
                                     const CostModel& cost_model);
};

// A unit of join planning: an already-built subplan plus the bitmask of base
// relations (indices into QueryContext::leaves) it covers. Base relations are
// factors with a single bit set; VE's intermediate elimination results and
// FAQ's multiway bags are factors with several.
struct Factor {
  PlanPtr plan;
  uint64_t covered = 0;
};

// One Factor per context leaf, in view order — the starting factor set of
// every optimizer's search.
std::vector<Factor> LeafFactors(const QueryContext& ctx);

// The semantic-safety grouping set of Chaudhuri-Shim adapted to MPF queries:
// for a subplan that covers exactly the base relations indexed by
// `covered` (bitmask over ctx.leaves), a GroupBy placed on top of it must
// retain the query variables plus every variable shared with a relation not
// yet covered. Returns the retained variables in output order.
std::vector<std::string> SafeRetainVars(const QueryContext& ctx,
                                        uint64_t covered,
                                        const std::vector<std::string>& out_vars);

// Factor-set form of the same rule, used inside elimination searches: the
// variables of `out_vars` a GroupBy over a clique's join must retain are the
// query variables plus everything shared with a factor outside the clique.
// Everything else — the eliminated variable and any variable local to the
// clique — is grouped away at once, exactly as Algorithm 2's "grouped by the
// variables not eliminated yet" implies.
std::vector<std::string> RetainedVars(const QueryContext& ctx,
                                      const std::vector<std::string>& out_vars,
                                      const std::vector<Factor>& others);

// Number of fill edges eliminating `var` adds to the variable graph induced
// by the current factor scopes: pairs of var's neighbors (the clique's other
// variables) that do not already co-occur in some factor. Used by VE's
// min-fill heuristic and FAQ's order search.
double CountFillEdges(const std::vector<std::string>& clique_vars,
                      const std::string& var,
                      const std::vector<Factor>& all_factors);

// The single deterministic argmin rule every order search uses: the smallest
// score wins, and exact ties go to the earliest index (candidate lists are
// built in first-seen variable order, which is platform-independent). Keeping
// one tie-break here is what makes plan choice reproducible across
// optimizers and platforms. Returns 0 on an empty input.
size_t PickMinScore(const std::vector<double>& scores);

// Derives the variable-order IR from a finished plan: the order in which
// GroupBy/Project nodes drop variables, collected bottom-up (children before
// parents, left before right). This is how the CS family — which searches
// join orders, not variable orders — reports through the shared interface.
std::vector<std::string> EliminationOrderFromPlan(const PlanNode& root);

// Adds a final GroupBy onto X unless the plan already ends with a
// GroupBy/Project on exactly X, then applies the HAVING filter if the query
// has one.
StatusOr<PlanPtr> FinalizePlan(const QueryContext& ctx, PlanPtr plan);

// Wraps `plan` in the context's HAVING measure filter (no-op without one).
StatusOr<PlanPtr> ApplyHaving(const QueryContext& ctx, PlanPtr plan);

// The plan-linearity admissibility test of Section 5.1 (Equation 1): a
// linear plan is admissible for query variable X when
//   sigma_X^2 + sigma_hat_X * log(sigma_hat_X) >= sigma_X * sigma_hat_X,
// where sigma_X = |domain(X)| and sigma_hat_X is the size of the smallest
// base relation containing X. When it fails, nonlinear plans should be
// considered.
bool LinearPlanAdmissible(double sigma_x, double sigma_hat_x);

// Convenience wrapper reading both statistics from the catalog for query
// variable `var` over the view's relations.
StatusOr<bool> LinearPlanAdmissible(const MpfViewDef& view,
                                    const std::string& var,
                                    const Catalog& catalog);

}  // namespace mpfdb::opt

namespace mpfdb {

// Builds an optimizer from a textual spec, the same names the paper's plots
// use:
//   "cs" | "cs+" | "cs+nonlinear" |
//   "ve(deg)" | "ve(width)" | "ve(elim_cost)" | "ve(deg&width)" |
//   "ve(deg&elim_cost)" | "ve(random)"       — each with optional " ext."
//   suffix (e.g. "ve(deg) ext.") for the Section 5.4 extended space —
//   plus "faq", the FAQ variable-order planner (worst-case-optimal
//   multiway joins on cyclic cores, binary planning otherwise).
StatusOr<std::unique_ptr<opt::Optimizer>> MakeOptimizer(
    const std::string& spec, uint64_t random_seed = 0);

}  // namespace mpfdb

#endif  // MPFDB_OPT_OPTIMIZER_H_
