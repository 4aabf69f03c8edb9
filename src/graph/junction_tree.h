#ifndef MPFDB_GRAPH_JUNCTION_TREE_H_
#define MPFDB_GRAPH_JUNCTION_TREE_H_

#include <string>
#include <vector>

#include "graph/variable_graph.h"
#include "util/status.h"

namespace mpfdb::graph {

// GYO reduction test for schema (hypergraph) acyclicity: repeatedly remove
// variables that occur in a single relation and relations contained in
// another; the schema is acyclic iff everything reduces away. This is the
// property Theorems 7/8 of the paper characterize via join trees and chordal
// variable graphs.
bool IsAcyclicSchema(const std::vector<std::vector<std::string>>& relation_vars);

// A tree over var-set nodes. For acyclic schemas the nodes are the relations
// themselves (a join tree); for the Junction Tree algorithm the nodes are the
// maximal cliques of the triangulated variable graph.
struct JoinTree {
  // node_vars[i] is the variable set of node i.
  std::vector<std::vector<std::string>> node_vars;
  // Undirected tree edges (parent/child orientation is chosen by consumers).
  std::vector<std::pair<size_t, size_t>> edges;
};

// Builds a maximum-weight spanning tree over the nodes where edge weight is
// the number of shared variables. Components that share no variables are
// connected by zero-weight edges (their separators are empty, which keeps
// the running intersection property intact). For an acyclic schema the
// result satisfies the running intersection property (Theorem 7).
JoinTree MaxSpanningJoinTree(
    const std::vector<std::vector<std::string>>& node_vars);

// True if for every pair of nodes, their shared variables appear in every
// node on the tree path between them (the running intersection property).
bool SatisfiesRunningIntersection(const JoinTree& tree);

// The Junction Tree algorithm (Algorithm 5): triangulates the schema's
// variable graph, takes maximal cliques as the new schema, builds a
// spanning tree with the running intersection property, and assigns each
// original relation to a clique containing all its variables.
struct JunctionTree {
  JoinTree tree;
  // assignment[r] = index of the clique relation r was assigned to.
  std::vector<size_t> assignment;
  // The elimination order used for triangulation.
  std::vector<std::string> elimination_order;
  // Fill edges added by triangulation (empty iff the variable graph was
  // already chordal).
  std::vector<std::pair<std::string, std::string>> fill_edges;
};

// Builds the junction tree with min-fill triangulation, or with the given
// elimination order when `order` is non-empty.
StatusOr<JunctionTree> BuildJunctionTree(
    const std::vector<std::vector<std::string>>& relation_vars,
    const std::vector<std::string>& order = {});

}  // namespace mpfdb::graph

#endif  // MPFDB_GRAPH_JUNCTION_TREE_H_
