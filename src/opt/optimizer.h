#ifndef MPFDB_OPT_OPTIMIZER_H_
#define MPFDB_OPT_OPTIMIZER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cost/cost_model.h"
#include "opt/var_set.h"
#include "plan/plan.h"
#include "storage/catalog.h"
#include "util/status.h"

namespace mpfdb::opt {

// Common interface of all MPF query optimizers (Section 5). An optimizer
// takes the view definition, the query, the catalog, and a cost model, and
// produces an annotated logical plan whose root yields a functional relation
// over exactly the query variables X. Logical plans fix the join shape and
// marginalization order; the shared logical->physical pass every optimizer's
// output flows through (PlanPhysicalTree in plan/physical.h, driven by the
// Executor) maps each node kind to its one algorithm and fuses indexed
// selections.
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
// selections), and the view's variables interned as dense VarIds.
struct QueryContext {
  PlanBuilder builder;
  std::vector<std::string> query_vars;
  // HAVING clause to apply at the plan root, if any.
  std::optional<HavingClause> having;
  // Leaf plan for each base relation, in view order.
  std::vector<PlanPtr> leaves;
  // The view's variables in first-seen order (VarId = index), their domain
  // sizes, and the query's and each leaf's variables as sets.
  std::vector<std::string> all_vars;
  std::vector<double> domain;
  VarSet query_set;
  std::vector<VarSet> leaf_sets;
  std::unordered_map<std::string, VarId> ids;  // all_vars' inverse

  // Builds the context or reports why the query is invalid (unknown
  // relation, query variable absent from the view, ...).
  static StatusOr<QueryContext> Make(const MpfViewDef& view,
                                     const MpfQuerySpec& query,
                                     const Catalog& catalog,
                                     const CostModel& cost_model);

  // The VarId of a view variable.
  VarId Id(const std::string& name) const { return ids.find(name)->second; }
  // The set of view variables `names`.
  VarSet SetOf(const std::vector<std::string>& names) const;
  // The members of `set` in the order they appear in `ordered`.
  std::vector<std::string> Names(const std::vector<std::string>& ordered,
                                 const VarSet& set) const;
  // Product of the domain sizes of `set`'s members, or nothing from 2^53 on.
  // Below it all partial products are exact, so it matches
  // PlanBuilder::DomainProduct over any order bit for bit; past it rounding
  // depends on order, and callers fall back to the ordered name list.
  std::optional<double> ExactDomainProduct(const VarSet& set) const {
    double product = 1.0;
    set.ForEach([&](VarId id) { product *= domain[id]; });
    if (product >= 9007199254740992.0) return std::nullopt;
    return product;
  }

};

// A unit of join planning: an already-built subplan, the bitmask of base
// relations (indices into QueryContext::leaves) it covers, and its output
// variables. Base relations are factors with a single bit set; VE's
// elimination results and FAQ's multiway bags are factors with several.
struct Factor {
  PlanPtr plan;
  uint64_t covered = 0;
  VarSet vars;
};

// One Factor per context leaf, in view order — the starting factor set of
// every optimizer's search.
std::vector<Factor> LeafFactors(const QueryContext& ctx);

// The variables of `vars` a GroupBy must retain while `outside` is still to
// be joined: X plus everything shared with the outside. The rest is grouped
// away at once, as Algorithm 2's "grouped by the variables not eliminated
// yet" implies.
VarSet RetainedVars(const QueryContext& ctx, const VarSet& vars,
                    const VarSet& outside);

// The semantic-safety grouping set of Chaudhuri-Shim adapted to MPF queries:
// RetainedVars for a subplan covering the leaves in bitmask `covered`, whose
// outside is every leaf not yet covered.
VarSet SafeRetainVars(const QueryContext& ctx, uint64_t covered,
                      const VarSet& vars);

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
