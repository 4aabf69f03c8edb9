#include "opt/ve.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "opt/joinplan.h"
#include "util/rng.h"

namespace mpfdb::opt {
namespace {

// Per-candidate heuristic scores; lower is better.
struct Scores {
  double degree = 0;
  double width = 0;
  double elim_cost = 0;
  double fill = 0;
};

// Number of fill edges eliminating `var` adds to the variable graph induced
// by the current factor scopes: pairs of var's neighbors (the clique's other
// variables) that do not already co-occur in some factor. The min-fill
// heuristic's score.
double CountFillEdges(const VarSet& clique_vars, VarId var,
                      const std::vector<Factor>& all_factors) {
  VarSet neighbors = clique_vars;
  neighbors.Erase(var);
  double fill = 0;
  neighbors.ForEach([&](VarId a) {
    VarSet adjacent;
    for (const Factor& f : all_factors) {
      if (f.vars.Contains(a)) adjacent |= f.vars;
    }
    (neighbors - adjacent).ForEach([&](VarId b) {
      if (b > a) ++fill;
    });
  });
  return fill;
}

// Scores eliminating `var` next; its clique is every factor containing it.
// Nothing when no factor does: an extended-space GroupBy already grouped the
// variable away.
StatusOr<std::optional<Scores>> ScoreCandidate(
    const QueryContext& ctx, const std::vector<Factor>& factors, VarId var,
    bool need_elim_cost, bool need_fill) {
  VarSet clique_vars, outside;
  for (const Factor& f : factors) {
    (f.vars.Contains(var) ? clique_vars : outside) |= f.vars;
  }
  if (clique_vars.empty()) return std::optional<Scores>();
  // Domain products past 2^53 depend on multiplication order; those take
  // the clique's first-seen variable order, as the name lists did.
  auto product = [&](const VarSet& set) -> StatusOr<double> {
    if (auto exact = ctx.ExactDomainProduct(set)) return *exact;
    std::vector<std::string> order;
    for (const Factor& f : factors) {
      if (f.vars.Contains(var)) {
        order = varset::Union(order, f.plan->output_vars);
      }
    }
    return ctx.builder.DomainProduct(ctx.Names(order, set));
  };
  Scores scores;
  // Width estimates the pre-elimination relation: the clique's domain
  // product. Degree estimates the post-elimination relation: the domain
  // product of what the GroupBy retains (this is what makes degree pick the
  // star schema's common variable — the retained set shrinks to the query
  // variable, see Section 7.3).
  MPFDB_ASSIGN_OR_RETURN(scores.width, product(clique_vars));
  MPFDB_ASSIGN_OR_RETURN(scores.degree,
                         product(RetainedVars(ctx, clique_vars, outside)));
  if (need_elim_cost) {
    std::vector<Factor> clique;
    for (const Factor& f : factors) {
      if (f.vars.Contains(var)) clique.push_back(f);
    }
    MPFDB_ASSIGN_OR_RETURN(PlanPtr overestimate,
                           FixedOrderJoinPlan(ctx, std::move(clique)));
    scores.elim_cost = overestimate->est_cost;
  }
  if (need_fill) scores.fill = CountFillEdges(clique_vars, var, factors);
  return std::optional<Scores>(scores);
}

// Normalizes each score dimension by the maximum over candidates, as the
// paper's footnote describes, combines per the heuristic, and delegates the
// argmin to the shared deterministic tie-break rule.
size_t PickCandidate(VeHeuristic heuristic, const std::vector<Scores>& scores) {
  double max_degree = 0, max_width = 0, max_elim = 0;
  for (const Scores& s : scores) {
    max_degree = std::max(max_degree, s.degree);
    max_width = std::max(max_width, s.width);
    max_elim = std::max(max_elim, s.elim_cost);
  }
  auto norm = [](double v, double m) { return m > 0 ? v / m : 0.0; };
  std::vector<double> combined(scores.size(), 0.0);
  for (size_t i = 0; i < scores.size(); ++i) {
    const Scores& s = scores[i];
    switch (heuristic) {
      case VeHeuristic::kDegree:
        combined[i] = s.degree;
        break;
      case VeHeuristic::kWidth:
        combined[i] = s.width;
        break;
      case VeHeuristic::kElimCost:
        combined[i] = s.elim_cost;
        break;
      case VeHeuristic::kDegreeWidth:
        combined[i] = norm(s.degree, max_degree) * norm(s.width, max_width);
        break;
      case VeHeuristic::kDegreeElimCost:
        combined[i] = norm(s.degree, max_degree) * norm(s.elim_cost, max_elim);
        break;
      case VeHeuristic::kMinFill:
        // Tie-break zero-fill candidates by the post-elimination size.
        combined[i] = s.fill + norm(s.degree, max_degree);
        break;
      case VeHeuristic::kRandom:
        break;  // handled by the caller
    }
  }
  return PickMinScore(combined);
}

}  // namespace

std::string VeHeuristicName(VeHeuristic heuristic) {
  switch (heuristic) {
    case VeHeuristic::kDegree:
      return "deg";
    case VeHeuristic::kWidth:
      return "width";
    case VeHeuristic::kElimCost:
      return "elim_cost";
    case VeHeuristic::kDegreeWidth:
      return "deg&width";
    case VeHeuristic::kDegreeElimCost:
      return "deg&elim_cost";
    case VeHeuristic::kRandom:
      return "random";
    case VeHeuristic::kMinFill:
      return "min_fill";
  }
  return "unknown";
}

std::string VeOptimizer::name() const {
  std::string result = "VE(" + VeHeuristicName(options_.heuristic) + ")";
  if (options_.extended) result += " ext.";
  return result;
}

StatusOr<PlanPtr> VeOptimizer::Optimize(const MpfViewDef& view,
                                        const MpfQuerySpec& query,
                                        const Catalog& catalog,
                                        const CostModel& cost_model) {
  MPFDB_ASSIGN_OR_RETURN(PlanPtr plan,
                         RunVe(view, query, catalog, cost_model, options_));
  if (options_.extended) {
    // The extension's greedy local decisions can diverge from the plain-VE
    // elimination order. Theorem 3's guarantee — the extended space contains
    // every plain VE plan — is realized by also computing the plain plan
    // under the same heuristic and keeping the cheaper.
    VeOptions plain = options_;
    plain.extended = false;
    std::vector<std::string> extended_order = std::move(last_order_);
    MPFDB_ASSIGN_OR_RETURN(PlanPtr plain_plan,
                           RunVe(view, query, catalog, cost_model, plain));
    if (plain_plan->est_cost < plan->est_cost) {
      return plain_plan;  // last_order_ already holds the plain order
    }
    last_order_ = std::move(extended_order);
  }
  return plan;
}

StatusOr<PlanPtr> VeOptimizer::RunVe(const MpfViewDef& view,
                                     const MpfQuerySpec& query,
                                     const Catalog& catalog,
                                     const CostModel& cost_model,
                                     const VeOptions& options) {
  MPFDB_ASSIGN_OR_RETURN(QueryContext ctx,
                         QueryContext::Make(view, query, catalog, cost_model));
  last_order_.clear();
  Rng rng(options.seed);

  // Current factor set S (Algorithm 2 line 1).
  std::vector<Factor> factors = LeafFactors(ctx);

  // V = Var(r) \ X (line 2). VarIds number all_vars in order, so walking
  // the set visits candidates in first-seen variable order.
  VarSet to_eliminate;
  for (VarId id = 0; id < ctx.all_vars.size(); ++id) to_eliminate.Insert(id);
  to_eliminate -= ctx.query_set;

  // Proposition 1: drop from the candidate set every variable not in any
  // declared primary key, provided all base relations declare keys. Such
  // variables never cause row merging, so a root projection handles them.
  bool all_keys_known = true;
  VarSet key_union;
  for (const auto& rel : view.relations) {
    MPFDB_ASSIGN_OR_RETURN(TablePtr table, catalog.GetTable(rel));
    if (table->key_vars().empty()) {
      all_keys_known = false;
      break;
    }
    key_union |= ctx.SetOf(table->key_vars());
  }
  VarSet projection_only;
  if (options.fd_pruning && all_keys_known) {
    projection_only = to_eliminate - key_union;
    to_eliminate &= key_union;
  }

  // Within a clique, joins are planned left-linear — the extension adds only
  // the CS+ greedy-conservative GroupBy pushdown (Section 5.4), keeping VE's
  // planning-time advantage (Theorem 2). Nonlinear plan shapes still arise
  // across eliminations, as in Figure 5.
  const JoinPlanOptions clique_join_opts{
      /*bushy=*/false,
      /*groupby_pushdown=*/options.extended,
      /*avoid_cross_products=*/true};
  const bool need_elim_cost =
      options.heuristic == VeHeuristic::kElimCost ||
      options.heuristic == VeHeuristic::kDegreeElimCost;
  const bool need_fill = options.heuristic == VeHeuristic::kMinFill;

  while (!to_eliminate.empty()) {
    // Score every candidate over the current factor set; variables already
    // grouped away drop out.
    std::vector<VarId> ids, candidates;
    to_eliminate.ForEach([&](VarId c) { ids.push_back(c); });
    std::vector<Scores> scores;
    for (VarId c : ids) {
      MPFDB_ASSIGN_OR_RETURN(
          std::optional<Scores> s,
          ScoreCandidate(ctx, factors, c, need_elim_cost, need_fill));
      if (!s) {
        to_eliminate.Erase(c);
        continue;
      }
      candidates.push_back(c);
      scores.push_back(*s);
    }
    if (candidates.empty()) break;

    size_t pick;
    if (options.heuristic == VeHeuristic::kRandom) {
      pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(candidates.size()) - 1));
    } else {
      pick = PickCandidate(options.heuristic, scores);
    }
    const VarId var = candidates[pick];
    last_order_.push_back(ctx.all_vars[var]);

    // Split S into the clique of `var` and the rest (lines 5 and 8).
    std::vector<Factor> clique, rest;
    VarSet outside;
    uint64_t covered = 0;
    for (Factor& f : factors) {
      if (f.vars.Contains(var)) {
        covered |= f.covered;
        clique.push_back(std::move(f));
      } else {
        outside |= f.vars;
        rest.push_back(std::move(f));
      }
    }

    // Join the clique (line 6). Plain VE: best join order with no inner
    // GroupBys, then a forced GroupBy eliminating the variable. Extended VE:
    // cost-based GroupBy placement inside the joinplan and no forced
    // elimination (Section 5.4).
    MPFDB_ASSIGN_OR_RETURN(PlanPtr joined,
                           BestJoinPlan(ctx, clique, clique_join_opts));
    VarSet joined_vars = ctx.SetOf(joined->output_vars);
    if (!options.extended) {
      // Group by the variables still needed (query variables and variables
      // shared with factors outside the clique): this eliminates `var` plus
      // any variable local to the clique in one GroupBy, as the paper's
      // Algorithm 2 describes.
      joined_vars = RetainedVars(ctx, joined_vars, outside);
      MPFDB_ASSIGN_OR_RETURN(
          joined, ctx.builder.GroupBy(
                      joined, ctx.Names(joined->output_vars, joined_vars)));
    }

    // Replace the clique's factors by the new one (line 9).
    rest.push_back(Factor{std::move(joined), covered, std::move(joined_vars)});
    factors = std::move(rest);
    to_eliminate.Erase(var);
  }

  // Join whatever remains (factors over query variables only, plus — in the
  // extended / fd-pruned cases — variables awaiting the root GroupBy).
  JoinPlanOptions final_opts = clique_join_opts;
  final_opts.charge_root_groupby = true;
  PlanPtr plan;
  if (factors.size() <= 16) {
    MPFDB_ASSIGN_OR_RETURN(plan, BestJoinPlan(ctx, factors, final_opts));
  } else {
    MPFDB_ASSIGN_OR_RETURN(plan, FixedOrderJoinPlan(ctx, factors));
  }

  // Root: if every variable to drop is projection-only (Proposition 1),
  // project; otherwise aggregate.
  const VarSet extra = ctx.SetOf(plan->output_vars) - ctx.query_set;
  if (!extra.empty() && extra.IsSubsetOf(projection_only)) {
    MPFDB_ASSIGN_OR_RETURN(
        plan, ctx.builder.Project(std::move(plan), ctx.query_vars));
    return ApplyHaving(ctx, std::move(plan));
  }
  return FinalizePlan(ctx, std::move(plan));
}

}  // namespace mpfdb::opt
