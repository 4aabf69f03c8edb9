#include "opt/dissociate.h"

#include <algorithm>
#include <map>
#include <set>

#include "opt/faq.h"
#include "storage/schema.h"

namespace mpfdb::opt {

namespace {

// The view's join hypergraph: one edge per relation, vertices = variables.
StatusOr<std::vector<std::vector<std::string>>> ViewEdges(
    const MpfViewDef& view, const Catalog& catalog) {
  std::vector<std::vector<std::string>> edges;
  edges.reserve(view.relations.size());
  for (const auto& rel : view.relations) {
    MPFDB_ASSIGN_OR_RETURN(TablePtr table, catalog.GetTable(rel));
    edges.push_back(table->schema().variables());
  }
  return edges;
}

}  // namespace

BoundSide DissociatedBoundSide(const Semiring& semiring) {
  return semiring.AddMonotoneNondecreasing() ? BoundSide::kUpper
                                             : BoundSide::kLower;
}

StatusOr<std::vector<std::string>> ChooseSplitVars(const MpfViewDef& view,
                                                   const MpfQuerySpec& query,
                                                   const Catalog& catalog) {
  MPFDB_ASSIGN_OR_RETURN(std::vector<std::vector<std::string>> edges,
                         ViewEdges(view, catalog));
  std::set<std::string> protected_vars(query.group_vars.begin(),
                                       query.group_vars.end());
  for (const auto& sel : query.selections) protected_vars.insert(sel.var);

  std::vector<std::string> split;
  // Each round: find the cyclic core; split the max-degree unprotected core
  // variable by renaming it apart per edge (mirroring what DissociateView
  // will do), then re-reduce. Terminates: every split strictly decreases the
  // number of shared occurrences of some variable.
  for (;;) {
    std::vector<size_t> core = GyoCyclicCore(edges);
    if (core.empty()) break;
    std::map<std::string, size_t> degree;
    for (size_t e : core) {
      for (const auto& v : edges[e]) {
        if (protected_vars.count(v) == 0) ++degree[v];
      }
    }
    // Highest degree wins; ties to the lexicographically smallest name so
    // the split set is deterministic.
    std::string best;
    size_t best_degree = 1;  // must appear in >= 2 core edges to matter
    for (const auto& [v, d] : degree) {
      if (d > best_degree || (d == best_degree && !best.empty() && v < best)) {
        best = v;
        best_degree = d;
      }
    }
    if (best.empty()) break;  // core held together by protected vars only
    split.push_back(best);
    size_t copy = 0;
    for (auto& edge : edges) {
      for (auto& v : edge) {
        if (v == best) v = best + "__d" + std::to_string(copy++);
      }
    }
  }
  return split;
}

StatusOr<DissociatedQuery> DissociateView(
    const MpfViewDef& view, const MpfQuerySpec& query, const Catalog& catalog,
    const std::vector<std::string>& split_vars, const std::string& suffix) {
  for (const auto& v : split_vars) {
    if (varset::Contains(query.group_vars, v)) {
      return Status::InvalidArgument("cannot dissociate group variable '" + v +
                                     "'");
    }
  }

  DissociatedQuery out;
  out.catalog = catalog;
  out.view = view;
  out.view.name = view.name + suffix;
  out.query = query;

  // The superset (dissociated) and subset (conditioned) comparisons both
  // reason term-by-term over full products, so a single negative measure
  // anywhere in the view voids the bound under plain sum.
  if (view.semiring.AddMonotoneNeedsNonNegative() && !split_vars.empty()) {
    for (const auto& rel : view.relations) {
      MPFDB_ASSIGN_OR_RETURN(TablePtr table, catalog.GetTable(rel));
      for (size_t i = 0; i < table->NumRows(); ++i) {
        if (table->measure(i) < 0) {
          return Status::FailedPrecondition(
              "dissociation bounds under " + view.semiring.name() +
              " require non-negative measures; table '" + rel +
              "' has a negative measure");
        }
      }
    }
  }
  std::set<std::string> split_set(split_vars.begin(), split_vars.end());

  // Selections on split variables are pinned per copy below; strip them from
  // the rewritten query first (each copy gets its own).
  std::vector<QuerySelection> split_selections;
  out.query.selections.clear();
  for (const auto& sel : query.selections) {
    if (split_set.count(sel.var)) {
      split_selections.push_back(sel);
    } else {
      out.query.selections.push_back(sel);
    }
  }

  // Per split variable, the running copy index (copies are numbered in view
  // relation order, matching ChooseSplitVars' rename simulation).
  std::map<std::string, size_t> next_copy;

  for (size_t r = 0; r < view.relations.size(); ++r) {
    const std::string& rel = view.relations[r];
    MPFDB_ASSIGN_OR_RETURN(TablePtr table, out.catalog.GetTable(rel));
    const std::vector<std::string>& vars = table->schema().variables();
    bool touched = false;
    std::vector<std::string> renamed = vars;
    for (auto& v : renamed) {
      if (split_set.count(v) == 0) continue;
      touched = true;
      size_t copy = next_copy[v]++;
      std::string copy_name = v + "__d" + std::to_string(copy);
      MPFDB_ASSIGN_OR_RETURN(int64_t domain, out.catalog.DomainSize(v));
      MPFDB_RETURN_IF_ERROR(out.catalog.RegisterVariable(copy_name, domain));
      out.copy_vars.push_back(copy_name);
      // Selections on the original pin every copy to the same value.
      for (const auto& sel : split_selections) {
        if (sel.var == v) {
          out.query.selections.push_back({copy_name, sel.value});
        }
      }
      v = copy_name;
    }
    if (!touched) continue;
    TablePtr clone(table->CloneRenamed(rel + suffix, std::move(renamed)));
    MPFDB_RETURN_IF_ERROR(out.catalog.RegisterTable(clone));
    out.view.relations[r] = clone->name();
  }
  return out;
}

StatusOr<MpfQuerySpec> ConditionQuery(
    const MpfViewDef& view, const MpfQuerySpec& query, const Catalog& catalog,
    const std::vector<std::string>& split_vars) {
  const Semiring& sr = view.semiring;
  MpfQuerySpec out = query;
  std::set<std::string> already;
  for (const auto& sel : query.selections) already.insert(sel.var);
  for (const auto& var : split_vars) {
    if (already.count(var)) continue;  // an existing selection already pins it
    MPFDB_ASSIGN_OR_RETURN(int64_t domain, catalog.DomainSize(var));
    // score[v] = Multiply over factors containing `var` of the Add-fold of
    // that factor's measures at var = v. A factor with no row at var = v
    // contributes AddIdentity, the Multiply annihilator — that value is
    // unsupported there.
    std::vector<double> score(static_cast<size_t>(domain),
                              sr.MultiplyIdentity());
    std::vector<bool> supported(static_cast<size_t>(domain), true);
    for (const auto& rel : view.relations) {
      MPFDB_ASSIGN_OR_RETURN(TablePtr table, catalog.GetTable(rel));
      auto idx = table->schema().IndexOf(var);
      if (!idx) continue;
      std::vector<double> fold(static_cast<size_t>(domain), sr.AddIdentity());
      std::vector<bool> seen(static_cast<size_t>(domain), false);
      for (size_t i = 0; i < table->NumRows(); ++i) {
        RowView row = table->Row(i);
        auto v = static_cast<size_t>(row.var(*idx));
        if (v >= fold.size()) continue;
        fold[v] = seen[v] ? sr.Add(fold[v], row.measure) : row.measure;
        seen[v] = true;
      }
      for (size_t v = 0; v < fold.size(); ++v) {
        if (!seen[v]) {
          supported[v] = false;
        } else {
          score[v] = sr.Multiply(score[v], fold[v]);
        }
      }
    }
    // argbest over supported values: max under superset-monotone semirings
    // (tightest lower bound), min under kMinSum (tightest upper bound).
    // Ties, and the no-supported-value edge case, go to the lowest value.
    const bool want_max = sr.AddMonotoneNondecreasing();
    VarValue best = 0;
    bool have = false;
    double best_score = 0;
    for (size_t v = 0; v < score.size(); ++v) {
      if (!supported[v]) continue;
      if (!have || (want_max ? score[v] > best_score : score[v] < best_score)) {
        best = static_cast<VarValue>(v);
        best_score = score[v];
        have = true;
      }
    }
    out.selections.push_back({var, best});
  }
  return out;
}

}  // namespace mpfdb::opt
