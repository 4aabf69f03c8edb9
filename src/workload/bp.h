#ifndef MPFDB_WORKLOAD_BP_H_
#define MPFDB_WORKLOAD_BP_H_

#include <cstddef>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "exec/table_ops.h"
#include "graph/junction_tree.h"
#include "plan/plan.h"
#include "semiring/semiring.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "util/query_context.h"
#include "util/status.h"

namespace mpfdb::workload {

// --- The calibration routine ---------------------------------------------
//
// Belief Propagation over a tree of tables (Appendix A) is two passes of
// semijoins along the tree's edges: a collect pass, children first, in
// which each parent absorbs its child's marginal (product semijoin), and a
// distribute pass, parents first, in which each child is refreshed from its
// parent (update semijoin, Definition 6). The VE-cache build (Algorithm 3)
// is the same program: its VE pass already leaves every clique holding the
// product of its subtree, so it runs only the distribute pass.
//
// A tree is a list of directed edges (child, parent), children before
// parents: the order in which the collect pass absorbs them. The
// distribute pass walks the list backwards. An edge whose tables share no
// variable carries no message, and both passes skip it.
using TreeEdges = std::vector<std::pair<size_t, size_t>>;

// The distribute pass: for each edge (child, parent), last to first,
// tables[child] becomes exec::UpdateSemijoinTable(child, parent). A non-null
// `rows` receives each edge's semijoin dataflow (empty for a skipped edge);
// a non-null `ctx` is polled before each step.
Status DistributePass(std::vector<TablePtr>* tables, const TreeEdges& edges,
                      const Semiring& semiring, QueryContext* ctx = nullptr,
                      std::vector<exec::SemijoinRows>* rows = nullptr);

// The connected components of a calibrated tree, over the edges that carry
// messages, and each component's scalar total. A var-disjoint component
// never receives another's mass through messages, but the full joint is the
// cross product of components, so a marginal of one component is scaled by
// the totals of the others.
struct ComponentTotals {
  std::vector<size_t> component;  // per table: its component's id
  // Per component id, the total every table of that component carries; no
  // total when the component's join is empty, which empties the joint.
  std::map<size_t, std::optional<double>> totals;

  // The product of the totals of every component not in `covered`, in id
  // order; nullopt when one of them is empty.
  std::optional<double> OthersProduct(const std::set<size_t>& covered,
                                      const Semiring& semiring) const;
};

// Labels the tables' components and totals each one with
// exec::MarginalizeTable on its lowest-index table, polling `ctx` after each.
StatusOr<ComponentTotals> TotalComponents(const std::vector<TablePtr>& tables,
                                          const TreeEdges& edges,
                                          const Semiring& semiring,
                                          QueryContext* ctx = nullptr);

// `t` with every measure multiplied by `factor`: `t` itself when the factor
// is the multiplicative identity, an empty table when there is no factor.
TablePtr ScaleTable(const TablePtr& t, std::optional<double> factor,
                    const Semiring& semiring);

// Belief Propagation as a semijoin program (Algorithm 4).
//
// Runs the collect and distribute passes over the join tree of the given
// tables, then scales each table by the other components' totals. On
// return, every table satisfies the workload correctness invariant of
// Definition 5: marginalizing table i onto any subset of its variables
// yields exactly the marginal of the full product join.
//
// Preconditions: the schema of the tables must be acyclic (checked; this is
// what makes the program sound — the paper's Figure 12 example shows how a
// cyclic schema double-counts), and the semiring must support division.
// Inputs are not modified; new tables are returned in the same order.
StatusOr<std::vector<TablePtr>> BeliefPropagation(
    const std::vector<TablePtr>& tables, const Semiring& semiring);

// Junction-tree BP over any schema (Algorithm 5). By Theorem 10 the
// VE-cache's tables are the cliques of a triangulation and its build is BP
// over them, so this is VeCache::Build plus the cross-component scaling.
// Returns the calibrated clique tables and their tree (node i is clique i;
// a forest when the view has var-disjoint components).
struct JunctionTreeBpResult {
  std::vector<TablePtr> clique_tables;
  graph::JoinTree tree;
};

StatusOr<JunctionTreeBpResult> JunctionTreeBp(const MpfViewDef& view,
                                              const Catalog& catalog);

}  // namespace mpfdb::workload

#endif  // MPFDB_WORKLOAD_BP_H_
