#include "graph/junction_tree.h"

#include <algorithm>
#include <map>
#include <set>

#include "storage/schema.h"

namespace mpfdb::graph {

bool IsAcyclicSchema(
    const std::vector<std::vector<std::string>>& relation_vars) {
  std::vector<std::set<std::string>> edges;
  for (const auto& vars : relation_vars) {
    edges.emplace_back(vars.begin(), vars.end());
  }
  bool changed = true;
  while (changed) {
    changed = false;
    // Rule 1: remove variables occurring in exactly one hyperedge.
    std::map<std::string, int> occurrences;
    for (const auto& e : edges) {
      for (const auto& v : e) ++occurrences[v];
    }
    for (auto& e : edges) {
      for (auto it = e.begin(); it != e.end();) {
        if (occurrences[*it] == 1) {
          it = e.erase(it);
          changed = true;
        } else {
          ++it;
        }
      }
    }
    // Rule 2: remove hyperedges contained in another (including empties and
    // duplicates).
    for (size_t i = 0; i < edges.size(); ++i) {
      bool contained = false;
      for (size_t j = 0; j < edges.size(); ++j) {
        if (i == j) continue;
        if (edges[j].size() > edges[i].size() ||
            (edges[j].size() == edges[i].size() && j < i)) {
          if (std::includes(edges[j].begin(), edges[j].end(), edges[i].begin(),
                            edges[i].end())) {
            contained = true;
            break;
          }
        }
      }
      if (contained) {
        edges.erase(edges.begin() + i);
        changed = true;
        break;  // restart; indices shifted
      }
    }
  }
  if (edges.empty()) return true;
  if (edges.size() == 1) return true;  // a single edge is trivially acyclic
  return false;
}

JoinTree MaxSpanningJoinTree(
    const std::vector<std::vector<std::string>>& node_vars) {
  JoinTree tree;
  tree.node_vars = node_vars;
  const size_t n = node_vars.size();
  if (n <= 1) return tree;

  // Prim's algorithm with weight = |shared variables| (>= 0, so the result
  // also spans var-disjoint components via zero-weight edges).
  std::vector<bool> in_tree(n, false);
  in_tree[0] = true;
  for (size_t step = 1; step < n; ++step) {
    size_t best_from = 0, best_to = 0;
    int best_weight = -1;
    for (size_t a = 0; a < n; ++a) {
      if (!in_tree[a]) continue;
      for (size_t b = 0; b < n; ++b) {
        if (in_tree[b]) continue;
        int weight = static_cast<int>(
            varset::Intersect(node_vars[a], node_vars[b]).size());
        if (weight > best_weight) {
          best_weight = weight;
          best_from = a;
          best_to = b;
        }
      }
    }
    in_tree[best_to] = true;
    tree.edges.emplace_back(best_from, best_to);
  }
  return tree;
}

bool SatisfiesRunningIntersection(const JoinTree& tree) {
  const size_t n = tree.node_vars.size();
  // For every unordered pair (i, j), walk the unique tree path and check the
  // intersection is contained in every node on it. n is small (cliques), so
  // the O(n^3) walk is fine.
  // Build adjacency.
  std::vector<std::vector<size_t>> adj(n);
  for (const auto& [a, b] : tree.edges) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      std::vector<std::string> shared =
          varset::Intersect(tree.node_vars[i], tree.node_vars[j]);
      if (shared.empty()) continue;
      // BFS path from i to j.
      std::vector<int> parent(n, -1);
      std::vector<size_t> queue = {i};
      parent[i] = static_cast<int>(i);
      for (size_t qi = 0; qi < queue.size(); ++qi) {
        for (size_t nbr : adj[queue[qi]]) {
          if (parent[nbr] == -1) {
            parent[nbr] = static_cast<int>(queue[qi]);
            queue.push_back(nbr);
          }
        }
      }
      if (parent[j] == -1) return false;  // disconnected but sharing vars
      for (size_t node = j; node != i;
           node = static_cast<size_t>(parent[node])) {
        if (!varset::IsSubset(shared, tree.node_vars[node])) return false;
      }
    }
  }
  return true;
}

StatusOr<JunctionTree> BuildJunctionTree(
    const std::vector<std::vector<std::string>>& relation_vars,
    const std::vector<std::string>& order) {
  if (relation_vars.empty()) {
    return Status::InvalidArgument("empty schema");
  }
  VariableGraph graph = VariableGraph::FromSchema(relation_vars);
  JunctionTree jt;
  VariableGraph chordal;
  if (order.empty()) {
    VariableGraph::TriangulationResult t = graph.TriangulateMinFill();
    chordal = std::move(t.chordal);
    jt.elimination_order = std::move(t.order);
    jt.fill_edges = std::move(t.fill_edges);
  } else {
    MPFDB_ASSIGN_OR_RETURN(chordal, graph.Triangulate(order, &jt.fill_edges));
    jt.elimination_order = order;
  }
  MPFDB_ASSIGN_OR_RETURN(std::vector<std::vector<std::string>> cliques,
                         chordal.MaximalCliques());
  jt.tree = MaxSpanningJoinTree(cliques);
  if (!SatisfiesRunningIntersection(jt.tree)) {
    return Status::Internal(
        "junction tree construction violated the running intersection "
        "property (triangulation bug)");
  }
  // Assign each relation to some clique containing all its variables
  // (Algorithm 5 step 4); one must exist because the relation's variables
  // form a clique in the (triangulated) variable graph.
  jt.assignment.resize(relation_vars.size());
  for (size_t r = 0; r < relation_vars.size(); ++r) {
    bool assigned = false;
    for (size_t c = 0; c < cliques.size(); ++c) {
      if (varset::IsSubset(relation_vars[r], jt.tree.node_vars[c])) {
        jt.assignment[r] = c;
        assigned = true;
        break;
      }
    }
    if (!assigned) {
      return Status::Internal("relation " + std::to_string(r) +
                              " fits no clique (triangulation bug)");
    }
  }
  return jt;
}

}  // namespace mpfdb::graph
