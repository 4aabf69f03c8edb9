#include "workload/bp.h"

#include <algorithm>

#include "workload/vecache.h"

namespace mpfdb::workload {
namespace {

bool SharesVariables(const Table& a, const Table& b) {
  return !varset::Intersect(a.schema().variables(), b.schema().variables())
              .empty();
}

// The join tree's edges rooted at node 0, children before parents: the
// edges in DFS preorder of their child, reversed (a child pops after its
// parent, so reversing puts it first).
TreeEdges RootedEdges(const graph::JoinTree& tree) {
  const size_t n = tree.node_vars.size();
  std::vector<std::vector<size_t>> adj(n);
  for (const auto& [a, b] : tree.edges) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  TreeEdges edges;
  std::vector<size_t> parent(n, 0);
  std::vector<bool> seen(n, false);
  std::vector<size_t> stack = {0};
  seen[0] = true;
  while (!stack.empty()) {
    const size_t v = stack.back();
    stack.pop_back();
    if (v != 0) edges.emplace_back(v, parent[v]);
    for (size_t nbr : adj[v]) {
      if (seen[nbr]) continue;
      seen[nbr] = true;
      parent[nbr] = v;
      stack.push_back(nbr);
    }
  }
  std::reverse(edges.begin(), edges.end());
  return edges;
}

}  // namespace

Status DistributePass(std::vector<TablePtr>* tables, const TreeEdges& edges,
                      const Semiring& semiring, QueryContext* ctx,
                      std::vector<exec::SemijoinRows>* rows) {
  std::vector<TablePtr>& t = *tables;
  if (rows != nullptr) rows->assign(edges.size(), exec::SemijoinRows{});
  for (size_t e = edges.size(); e-- > 0;) {
    const auto [child, parent] = edges[e];
    if (!SharesVariables(*t[child], *t[parent])) continue;
    if (ctx != nullptr) MPFDB_RETURN_IF_ERROR(ctx->Poll(t[child]->NumRows()));
    MPFDB_ASSIGN_OR_RETURN(
        t[child],
        exec::UpdateSemijoinTable(*t[child], *t[parent], semiring,
                                  t[child]->name(),
                                  rows != nullptr ? &(*rows)[e] : nullptr));
  }
  return Status::Ok();
}

std::optional<double> ComponentTotals::OthersProduct(
    const std::set<size_t>& covered, const Semiring& semiring) const {
  double product = semiring.MultiplyIdentity();
  for (const auto& [id, total] : totals) {
    if (covered.count(id) != 0) continue;
    if (!total) return std::nullopt;
    product = semiring.Multiply(product, *total);
  }
  return product;
}

StatusOr<ComponentTotals> TotalComponents(const std::vector<TablePtr>& tables,
                                          const TreeEdges& edges,
                                          const Semiring& semiring,
                                          QueryContext* ctx) {
  ComponentTotals out;
  std::vector<size_t>& root = out.component;
  root.resize(tables.size());
  for (size_t i = 0; i < root.size(); ++i) root[i] = i;
  auto find = [&](size_t x) {
    while (root[x] != x) {
      root[x] = root[root[x]];
      x = root[x];
    }
    return x;
  };
  for (const auto& [a, b] : edges) {
    if (SharesVariables(*tables[a], *tables[b])) root[find(a)] = find(b);
  }
  for (size_t i = 0; i < tables.size(); ++i) {
    const size_t id = find(i);
    if (out.totals.count(id) != 0) continue;
    MPFDB_ASSIGN_OR_RETURN(
        TablePtr scalar,
        exec::MarginalizeTable(*tables[i], {}, semiring, "total"));
    if (ctx != nullptr) MPFDB_RETURN_IF_ERROR(ctx->Poll(tables[i]->NumRows()));
    out.totals[id] = scalar->Empty()
                         ? std::nullopt
                         : std::optional<double>(scalar->measure(0));
  }
  for (size_t i = 0; i < root.size(); ++i) root[i] = find(i);
  return out;
}

TablePtr ScaleTable(const TablePtr& t, std::optional<double> factor,
                    const Semiring& semiring) {
  if (!factor) return std::make_shared<Table>(t->name(), t->schema());
  if (*factor == semiring.MultiplyIdentity()) return t;
  TablePtr scaled(t->Clone(t->name()));
  for (size_t r = 0; r < scaled->NumRows(); ++r) {
    scaled->set_measure(r, semiring.Multiply(scaled->measure(r), *factor));
  }
  return scaled;
}

StatusOr<std::vector<TablePtr>> BeliefPropagation(
    const std::vector<TablePtr>& tables, const Semiring& semiring) {
  if (tables.empty()) return Status::InvalidArgument("no tables");
  if (!semiring.HasDivision()) {
    return Status::FailedPrecondition(
        "Belief Propagation requires a semiring with division (the update "
        "semijoin divides out previously propagated values)");
  }
  std::vector<std::vector<std::string>> relation_vars;
  for (const TablePtr& t : tables) {
    relation_vars.push_back(t->schema().variables());
  }
  if (!graph::IsAcyclicSchema(relation_vars)) {
    return Status::FailedPrecondition(
        "Belief Propagation requires an acyclic schema; apply the Junction "
        "Tree algorithm first (JunctionTreeBp)");
  }

  // Message passing follows the join tree's edges only — reducing
  // non-adjacent tables that share variables would double-count (the running
  // intersection property makes tree edges sufficient).
  graph::JoinTree tree = graph::MaxSpanningJoinTree(relation_vars);
  if (!SatisfiesRunningIntersection(tree)) {
    return Status::Internal("acyclic schema without RIP join tree");
  }
  const TreeEdges edges = RootedEdges(tree);
  std::vector<TablePtr> updated = tables;
  // Collect pass: each parent absorbs its child's marginal (the product
  // semijoin), children first.
  for (const auto& [child, parent] : edges) {
    const std::vector<std::string> shared =
        varset::Intersect(updated[parent]->schema().variables(),
                          updated[child]->schema().variables());
    if (shared.empty()) continue;
    MPFDB_ASSIGN_OR_RETURN(
        TablePtr marginal,
        exec::MarginalizeTable(*updated[child], shared, semiring, "tmp_marg"));
    MPFDB_ASSIGN_OR_RETURN(
        updated[parent],
        exec::JoinTables(*updated[parent], *marginal, semiring,
                         updated[parent]->name(), /*divide=*/false));
  }
  MPFDB_RETURN_IF_ERROR(DistributePass(&updated, edges, semiring));
  MPFDB_ASSIGN_OR_RETURN(ComponentTotals components,
                         TotalComponents(updated, edges, semiring));
  for (size_t i = 0; i < updated.size(); ++i) {
    const std::optional<double> others =
        components.OthersProduct({components.component[i]}, semiring);
    updated[i] = ScaleTable(updated[i], others, semiring);
    // A table no step rewrote is still the caller's; return a copy.
    if (updated[i] == tables[i]) {
      updated[i] = TablePtr(tables[i]->Clone(tables[i]->name()));
    }
  }
  return updated;
}

StatusOr<JunctionTreeBpResult> JunctionTreeBp(const MpfViewDef& view,
                                              const Catalog& catalog) {
  MPFDB_ASSIGN_OR_RETURN(VeCache cache, VeCache::Build(view, catalog));
  const ComponentTotals& components = cache.components();
  JunctionTreeBpResult result;
  result.tree.edges = cache.edges();
  for (size_t i = 0; i < cache.caches().size(); ++i) {
    const TablePtr& t = cache.caches()[i];
    result.tree.node_vars.push_back(t->schema().variables());
    const std::optional<double> others =
        components.OthersProduct({components.component[i]}, view.semiring);
    result.clique_tables.push_back(ScaleTable(t, others, view.semiring));
  }
  return result;
}

}  // namespace mpfdb::workload
