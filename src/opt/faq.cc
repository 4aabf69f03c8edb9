#include "opt/faq.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "cost/agm.h"
#include "opt/joinplan.h"

namespace mpfdb::opt {
namespace {

// Greedy minimum-domain order over `vars`; ties go to the earliest index via
// the shared deterministic rule. Used for the retained prefix of the
// multiway variable order.
std::vector<std::string> OrderByDomain(const QueryContext& ctx,
                                       std::vector<std::string> vars) {
  std::vector<std::string> out;
  out.reserve(vars.size());
  while (!vars.empty()) {
    std::vector<double> scores(vars.size(), 0.0);
    for (size_t i = 0; i < vars.size(); ++i) {
      scores[i] = ctx.domain[ctx.Id(vars[i])];
    }
    size_t pick = PickMinScore(scores);
    out.push_back(std::move(vars[pick]));
    vars.erase(vars.begin() + pick);
  }
  return out;
}

// A hyperedge of the elimination search: its variables in order (the AGM
// LP's input) and as a set (for the membership tests).
struct BagEdge {
  agm::Edge edge;
  VarSet vars;
};

// Appends the names of `names` not yet in `seen` to `out`: the first-seen
// union of ordered name lists in linear time.
void UnionInto(const QueryContext& ctx, const std::vector<std::string>& names,
               VarSet* seen, std::vector<std::string>* out) {
  for (const auto& name : names) {
    const VarId id = ctx.Id(name);
    if (seen->Contains(id)) continue;
    seen->Insert(id);
    out->push_back(name);
  }
}

// Greedy fractional-hypertree-width order for the eliminated core variables:
// at each step the candidate whose bag (the union of its incident
// hyperedges) has the smallest AGM bound is eliminated next, and its
// incident edges are contracted into one bag edge of that bound — the
// standard width-style evaluation of a variable order, with the AGM bound
// standing in for N^{rho*} per bag.
std::vector<std::string> OrderEliminatedByAgm(const QueryContext& ctx,
                                              std::vector<std::string> vars,
                                              std::vector<BagEdge> edges) {
  std::vector<std::string> out;
  out.reserve(vars.size());
  while (!vars.empty()) {
    std::vector<double> scores(vars.size(), 0.0);
    for (size_t c = 0; c < vars.size(); ++c) {
      const VarId id = ctx.Id(vars[c]);
      std::vector<std::string> bag;
      VarSet seen;
      std::vector<agm::Edge> incident;
      for (const BagEdge& e : edges) {
        if (!e.vars.Contains(id)) continue;
        incident.push_back(e.edge);
        UnionInto(ctx, e.edge.vars, &seen, &bag);
      }
      scores[c] = incident.empty() ? 1.0 : agm::AgmBound(bag, incident);
    }
    size_t pick = PickMinScore(scores);
    const std::string var = std::move(vars[pick]);
    vars.erase(vars.begin() + pick);

    // Contract: incident edges collapse to one bag edge without `var`.
    const VarId id = ctx.Id(var);
    std::vector<BagEdge> next;
    std::vector<std::string> bag;
    VarSet bag_set;
    for (BagEdge& e : edges) {
      if (e.vars.Contains(id)) {
        UnionInto(ctx, e.edge.vars, &bag_set, &bag);
      } else {
        next.push_back(std::move(e));
      }
    }
    if (auto it = std::find(bag.begin(), bag.end(), var); it != bag.end()) {
      bag.erase(it);
    }
    bag_set.Erase(id);
    if (!bag.empty()) {
      next.push_back(BagEdge{
          agm::Edge{std::move(bag), std::max(1.0, scores[pick])}, bag_set});
    }
    edges = std::move(next);
    out.push_back(var);
  }
  return out;
}

// Binary planning shared by the acyclic path and the periphery around the
// multiway core: the CS+ nonlinear search space (bushy trees with greedy
// GroupBy pushdown) when the factor count admits the DP, the fixed-order
// chain otherwise, finalized onto the query variables.
StatusOr<PlanPtr> BinaryPlan(const QueryContext& ctx,
                             std::vector<Factor> factors) {
  JoinPlanOptions opts;
  opts.bushy = true;
  opts.groupby_pushdown = true;
  opts.charge_root_groupby = true;
  PlanPtr plan;
  if (factors.size() <= 16) {
    MPFDB_ASSIGN_OR_RETURN(plan, BestJoinPlan(ctx, factors, opts));
  } else {
    MPFDB_ASSIGN_OR_RETURN(plan, FixedOrderJoinPlan(ctx, std::move(factors)));
  }
  return FinalizePlan(ctx, std::move(plan));
}

}  // namespace

std::vector<size_t> GyoCyclicCore(
    const std::vector<std::vector<std::string>>& edges) {
  // Intern the names so the reduction runs on bitsets.
  std::unordered_map<std::string, VarId> ids;
  std::vector<VarSet> e;
  for (const auto& edge : edges) {
    VarSet set;
    for (const std::string& v : edge) {
      set.Insert(ids.emplace(v, VarId(ids.size())).first->second);
    }
    e.push_back(std::move(set));
  }
  std::vector<bool> alive(e.size(), true);
  bool changed = true;
  while (changed) {
    changed = false;
    // Vertex rule: a variable occurring in exactly one surviving edge is an
    // ear tip — delete it.
    std::vector<int> occurrences(ids.size(), 0);
    for (size_t i = 0; i < e.size(); ++i) {
      if (alive[i]) e[i].ForEach([&](VarId v) { ++occurrences[v]; });
    }
    VarSet shared;
    for (VarId v = 0; v < occurrences.size(); ++v) {
      if (occurrences[v] >= 2) shared.Insert(v);
    }
    for (size_t i = 0; i < e.size(); ++i) {
      if (!alive[i]) continue;
      VarSet kept = e[i] & shared;
      if (kept != e[i]) {
        e[i] = std::move(kept);
        changed = true;
      }
    }
    // Edge rule: an edge that became empty, or is contained in another
    // surviving edge, is removed. Equal sets keep the earliest index.
    for (size_t i = 0; i < e.size(); ++i) {
      if (!alive[i]) continue;
      if (e[i].empty()) {
        alive[i] = false;
        changed = true;
        continue;
      }
      for (size_t j = 0; j < e.size(); ++j) {
        if (j == i || !alive[j]) continue;
        if (e[i].IsSubsetOf(e[j]) && (e[i] != e[j] || j < i)) {
          alive[i] = false;
          changed = true;
          break;
        }
      }
    }
  }
  std::vector<size_t> core;
  for (size_t i = 0; i < e.size(); ++i) {
    if (alive[i]) core.push_back(i);
  }
  return core;
}

StatusOr<PlanPtr> FaqOptimizer::Optimize(const MpfViewDef& view,
                                         const MpfQuerySpec& query,
                                         const Catalog& catalog,
                                         const CostModel& cost_model) {
  MPFDB_ASSIGN_OR_RETURN(QueryContext ctx,
                         QueryContext::Make(view, query, catalog, cost_model));
  last_order_.clear();
  std::vector<Factor> factors = LeafFactors(ctx);

  // Pure-binary baseline over the full factor set. On an acyclic hypergraph
  // this IS the FAQ plan (every GYO ear order is realizable as a join tree),
  // which keeps acyclic FAQ results bit-identical to the other optimizers'
  // hash/sort plans.
  MPFDB_ASSIGN_OR_RETURN(PlanPtr binary, BinaryPlan(ctx, factors));

  std::vector<std::vector<std::string>> scopes;
  scopes.reserve(factors.size());
  for (const Factor& f : factors) scopes.push_back(f.plan->output_vars);
  std::vector<size_t> core = GyoCyclicCore(scopes);
  // A cyclic core has at least three edges; anything smaller means the GYO
  // reduction finished (alpha-acyclic view).
  if (core.size() < 3) {
    last_order_ = EliminationOrderFromPlan(*binary);
    return binary;
  }

  // Multiway candidate: one worst-case-optimal join node covering the whole
  // cyclic core, binary planning for the periphery hanging off it.
  std::vector<bool> in_core(factors.size(), false);
  for (size_t idx : core) in_core[idx] = true;
  std::vector<PlanPtr> children;
  std::vector<Factor> periphery;
  std::vector<BagEdge> core_edges;
  std::vector<std::string> core_vars;
  VarSet core_set;
  uint64_t covered = 0;
  for (size_t i = 0; i < factors.size(); ++i) {
    if (!in_core[i]) {
      periphery.push_back(factors[i]);
      continue;
    }
    const PlanPtr& plan = factors[i].plan;
    children.push_back(plan);
    covered |= factors[i].covered;
    UnionInto(ctx, plan->output_vars, &core_set, &core_vars);
    core_edges.push_back(BagEdge{
        agm::Edge{plan->output_vars, std::max(1.0, plan->est_card)},
        factors[i].vars});
  }

  // Variable order: retained variables first — the LeapFrog emission order
  // then presorts the eliminating GroupBy — followed by the eliminated core
  // variables in greedy min-bag-AGM order.
  VarSet retained_set = SafeRetainVars(ctx, covered, core_set);
  std::vector<std::string> retained =
      OrderByDomain(ctx, ctx.Names(core_vars, retained_set));
  std::vector<std::string> eliminated =
      OrderEliminatedByAgm(ctx, ctx.Names(core_vars, core_set - retained_set),
                           std::move(core_edges));
  std::vector<std::string> var_order = retained;
  var_order.insert(var_order.end(), eliminated.begin(), eliminated.end());

  MPFDB_ASSIGN_OR_RETURN(
      PlanPtr merged, ctx.builder.MultiwayJoin(std::move(children), var_order));
  if (!eliminated.empty()) {
    MPFDB_ASSIGN_OR_RETURN(merged,
                           ctx.builder.GroupBy(std::move(merged), retained));
  }
  periphery.push_back(
      Factor{std::move(merged), covered, std::move(retained_set)});
  MPFDB_ASSIGN_OR_RETURN(PlanPtr faq, BinaryPlan(ctx, std::move(periphery)));

  if (faq->est_cost < binary->est_cost) {
    last_order_ = EliminationOrderFromPlan(*faq);
    return faq;
  }
  last_order_ = EliminationOrderFromPlan(*binary);
  return binary;
}

}  // namespace mpfdb::opt
