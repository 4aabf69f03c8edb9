#ifndef MPFDB_PLAN_PHYSICAL_H_
#define MPFDB_PLAN_PHYSICAL_H_

#include <memory>
#include <string>
#include <vector>

#include "plan/plan.h"
#include "storage/catalog.h"

// Logical -> physical planning pass.
//
// Every optimizer (cs, cs+, cs+nonlinear, ve(*), faq) produces a *logical*
// PlanNode tree: it fixes the marginalization order and join shape. The
// physical pass is a plain walk with no choices, because each logical node
// kind has exactly one physical algorithm:
//
//   - kJoin         -> hash product join        (EXPLAIN: join=hash)
//   - kMultiwayJoin -> LeapFrog TrieJoin        (EXPLAIN: join=leapfrog)
//   - kGroupBy      -> hash marginalize         (EXPLAIN: agg=hash)
//   - Select(Scan(t), v=c) fuses into an IndexScan whenever t has an index
//     on v (the catalog's HashIndex stores row ids in table order, so the
//     fused scan emits exactly the rows Select(Scan) would, in order)
//
// The paper's results concern plan shape (where the optimizers place the
// GroupBys); per-node algorithm choice is not part of them, and no workload
// measured a choice beating all-hash, so there is no physical cost model.
namespace mpfdb {

// One node of a physical plan. Mirrors the logical tree (one physical node
// per logical node), except that a fused index scan collapses a
// Select(Scan) pair into a single leaf. `logical` always points at the
// logical node this physical node implements — for a fused leaf that is the
// kSelect node (whose left child is the absorbed kScan).
struct PhysicalPlanNode {
  // kind is usually logical->kind; kIndexScan when index fusion collapsed a
  // Select(Scan) pair (then logical->kind == kSelect).
  PlanNodeKind kind = PlanNodeKind::kScan;
  const PlanNode* logical = nullptr;
  std::unique_ptr<PhysicalPlanNode> left;
  std::unique_ptr<PhysicalPlanNode> right;
  // kMultiwayJoin operands (left/right stay null).
  std::vector<std::unique_ptr<PhysicalPlanNode>> children;
  bool index_fused = false;  // kIndexScan produced by Select(Scan) fusion
};

// Maps the logical tree rooted at `root` to its physical tree; `catalog`
// supplies the indexes that fusion consults.
std::unique_ptr<PhysicalPlanNode> PlanPhysicalTree(const PlanNode& root,
                                                   const Catalog& catalog);

// The one physical algorithm of a node kind, as EXPLAIN prints it: "hash"
// for kJoin and kGroupBy, "leapfrog" for kMultiwayJoin, nullptr otherwise.
const char* AlgorithmName(PlanNodeKind kind);

// Renders the physical tree, two-space indented, one node per line:
//   GroupBy{y}  [agg=hash est=120]
//     ProductJoin  [join=hash est=4000]
std::string ExplainPhysicalPlan(const PhysicalPlanNode& root);

}  // namespace mpfdb

#endif  // MPFDB_PLAN_PHYSICAL_H_
