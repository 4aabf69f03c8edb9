#include "opt/optimizer.h"

#include <cmath>

#include "opt/cs.h"
#include "opt/faq.h"
#include "opt/ve.h"
#include "util/strings.h"

namespace mpfdb::opt {

StatusOr<QueryContext> QueryContext::Make(const MpfViewDef& view,
                                          const MpfQuerySpec& query,
                                          const Catalog& catalog,
                                          const CostModel& cost_model) {
  if (view.relations.empty()) {
    return Status::InvalidArgument("view '" + view.name + "' has no relations");
  }
  if (view.relations.size() > 64) {
    return Status::InvalidArgument(
        "optimizers support at most 64 base relations");
  }
  QueryContext ctx{PlanBuilder(catalog, cost_model), query.group_vars,
                   query.having};

  for (const auto& rel : view.relations) {
    // Access path choice for the leaf: if exactly one pushed-down selection
    // can be served by an index, start from an IndexScan; further
    // selections layer as filters. (The paper's Section 5.4 point that
    // access methods change which plans are optimal enters here.)
    PlanPtr leaf;
    std::string index_var;
    MPFDB_ASSIGN_OR_RETURN(TablePtr table, catalog.GetTable(rel));
    for (const auto& sel : query.selections) {
      if (table->schema().HasVariable(sel.var) &&
          catalog.GetIndex(rel, sel.var) != nullptr) {
        MPFDB_ASSIGN_OR_RETURN(leaf,
                               ctx.builder.IndexScan(rel, sel.var, sel.value));
        index_var = sel.var;
        break;
      }
    }
    if (leaf == nullptr) {
      MPFDB_ASSIGN_OR_RETURN(leaf, ctx.builder.Scan(rel));
    }
    // Push every applicable selection not already served by the index.
    bool index_applied = false;
    for (const auto& sel : query.selections) {
      if (sel.var == index_var && !index_applied) {
        index_applied = true;
        continue;
      }
      if (table->schema().HasVariable(sel.var)) {
        MPFDB_ASSIGN_OR_RETURN(leaf,
                               ctx.builder.Select(leaf, sel.var, sel.value));
      }
    }
    // Intern the leaf's variables (selections do not drop any).
    VarSet leaf_set;
    for (const auto& var : leaf->output_vars) {
      auto [it, added] = ctx.ids.emplace(var, VarId(ctx.all_vars.size()));
      if (added) {
        MPFDB_ASSIGN_OR_RETURN(int64_t size, catalog.DomainSize(var));
        ctx.all_vars.push_back(var);
        ctx.domain.push_back(static_cast<double>(size));
      }
      leaf_set.Insert(it->second);
    }
    ctx.leaf_sets.push_back(std::move(leaf_set));
    ctx.leaves.push_back(std::move(leaf));
  }

  for (const auto& var : query.group_vars) {
    if (ctx.ids.count(var) == 0) {
      return Status::InvalidArgument("query variable '" + var +
                                     "' does not appear in view '" +
                                     view.name + "'");
    }
  }
  for (const auto& sel : query.selections) {
    if (ctx.ids.count(sel.var) == 0) {
      return Status::InvalidArgument("selection variable '" + sel.var +
                                     "' does not appear in view '" +
                                     view.name + "'");
    }
  }
  ctx.query_set = ctx.SetOf(ctx.query_vars);
  return ctx;
}

VarSet QueryContext::SetOf(const std::vector<std::string>& names) const {
  VarSet set;
  for (const auto& name : names) set.Insert(Id(name));
  return set;
}

std::vector<std::string> QueryContext::Names(
    const std::vector<std::string>& ordered, const VarSet& set) const {
  std::vector<std::string> names;
  for (const auto& name : ordered) {
    if (set.Contains(Id(name))) names.push_back(name);
  }
  return names;
}

std::vector<Factor> LeafFactors(const QueryContext& ctx) {
  std::vector<Factor> factors;
  factors.reserve(ctx.leaves.size());
  for (size_t i = 0; i < ctx.leaves.size(); ++i) {
    factors.push_back(
        Factor{ctx.leaves[i], uint64_t{1} << i, ctx.leaf_sets[i]});
  }
  return factors;
}

VarSet RetainedVars(const QueryContext& ctx, const VarSet& vars,
                    const VarSet& outside) {
  return vars & (ctx.query_set | outside);
}

VarSet SafeRetainVars(const QueryContext& ctx, uint64_t covered,
                      const VarSet& vars) {
  VarSet outside;
  for (size_t i = 0; i < ctx.leaves.size(); ++i) {
    if (!(covered & (uint64_t{1} << i))) outside |= ctx.leaf_sets[i];
  }
  return RetainedVars(ctx, vars, outside);
}

size_t PickMinScore(const std::vector<double>& scores) {
  size_t best = 0;
  for (size_t i = 1; i < scores.size(); ++i) {
    // Strict < : the earliest candidate wins exact ties.
    if (scores[i] < scores[best]) best = i;
  }
  return best;
}

namespace {

void EliminationOrderRec(const PlanNode& node, std::vector<std::string>* out) {
  if (node.left) EliminationOrderRec(*node.left, out);
  if (node.right) EliminationOrderRec(*node.right, out);
  for (const auto& child : node.children) EliminationOrderRec(*child, out);
  if (node.kind != PlanNodeKind::kGroupBy &&
      node.kind != PlanNodeKind::kProject) {
    return;
  }
  const std::vector<std::string> dropped =
      varset::Difference(node.left->output_vars, node.output_vars);
  for (const auto& var : dropped) {
    if (!varset::Contains(*out, var)) out->push_back(var);
  }
}

}  // namespace

std::vector<std::string> EliminationOrderFromPlan(const PlanNode& root) {
  std::vector<std::string> order;
  EliminationOrderRec(root, &order);
  return order;
}

StatusOr<PlanPtr> ApplyHaving(const QueryContext& ctx, PlanPtr plan) {
  if (!ctx.having.has_value()) return plan;
  return ctx.builder.MeasureFilter(std::move(plan), *ctx.having);
}

StatusOr<PlanPtr> FinalizePlan(const QueryContext& ctx, PlanPtr plan) {
  if (plan == nullptr) return Status::Internal("null plan to finalize");
  const bool already_grouped =
      (plan->kind == PlanNodeKind::kGroupBy ||
       plan->kind == PlanNodeKind::kProject) &&
      ctx.SetOf(plan->output_vars) == ctx.query_set;
  if (already_grouped) return ApplyHaving(ctx, std::move(plan));
  // A join of functional relations whose output is exactly X is itself a
  // functional relation over X only if no other variables were ever joined
  // away without aggregation — which FinalizePlan cannot see. A root GroupBy
  // over an FR on exactly X is a cheap no-op pass, so add it whenever the
  // top node is not already a grouping on X.
  MPFDB_ASSIGN_OR_RETURN(plan,
                         ctx.builder.GroupBy(std::move(plan), ctx.query_vars));
  return ApplyHaving(ctx, std::move(plan));
}

bool LinearPlanAdmissible(double sigma_x, double sigma_hat_x) {
  double log_term =
      sigma_hat_x <= 2.0 ? sigma_hat_x : sigma_hat_x * std::log2(sigma_hat_x);
  return sigma_x * sigma_x + log_term >= sigma_x * sigma_hat_x;
}

StatusOr<bool> LinearPlanAdmissible(const MpfViewDef& view,
                                    const std::string& var,
                                    const Catalog& catalog) {
  MPFDB_ASSIGN_OR_RETURN(int64_t sigma, catalog.DomainSize(var));
  MPFDB_ASSIGN_OR_RETURN(int64_t sigma_hat,
                         catalog.SmallestRelationWith(var, view.relations));
  return LinearPlanAdmissible(static_cast<double>(sigma),
                              static_cast<double>(sigma_hat));
}

}  // namespace mpfdb::opt

namespace mpfdb {

StatusOr<std::unique_ptr<opt::Optimizer>> MakeOptimizer(const std::string& spec,
                                                        uint64_t random_seed) {
  std::string s = ToLower(std::string(StripWhitespace(spec)));
  if (s == "cs") return std::unique_ptr<opt::Optimizer>(new opt::CsOptimizer());
  if (s == "cs+" || s == "cs+linear") {
    return std::unique_ptr<opt::Optimizer>(new opt::CsPlusOptimizer(false));
  }
  if (s == "cs+nonlinear") {
    return std::unique_ptr<opt::Optimizer>(new opt::CsPlusOptimizer(true));
  }
  if (s == "faq") {
    return std::unique_ptr<opt::Optimizer>(new opt::FaqOptimizer());
  }
  if (s.rfind("ve(", 0) == 0) {
    size_t close = s.find(')');
    if (close == std::string::npos) {
      return Status::InvalidArgument("unterminated VE heuristic in: " + spec);
    }
    std::string heuristic_name = s.substr(3, close - 3);
    std::string suffix = std::string(StripWhitespace(s.substr(close + 1)));
    opt::VeOptions options;
    options.seed = random_seed;
    if (heuristic_name == "degree") heuristic_name = "deg";
    bool known = false;
    for (int h = 0; h <= static_cast<int>(opt::VeHeuristic::kMinFill); ++h) {
      auto heuristic = static_cast<opt::VeHeuristic>(h);
      if (opt::VeHeuristicName(heuristic) != heuristic_name) continue;
      options.heuristic = heuristic;
      known = true;
    }
    if (!known) {
      return Status::InvalidArgument("unknown VE heuristic: " + heuristic_name);
    }
    if (suffix == "ext." || suffix == "ext") {
      options.extended = true;
    } else if (suffix == "ext+fd" || suffix == "ext. fd") {
      options.extended = true;
      options.fd_pruning = true;
    } else if (!suffix.empty()) {
      return Status::InvalidArgument("unknown VE suffix: '" + suffix + "'");
    }
    return std::unique_ptr<opt::Optimizer>(new opt::VeOptimizer(options));
  }
  return Status::InvalidArgument("unknown optimizer spec: " + spec);
}

}  // namespace mpfdb
