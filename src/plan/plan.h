#ifndef MPFDB_PLAN_PLAN_H_
#define MPFDB_PLAN_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "semiring/semiring.h"
#include "storage/catalog.h"
#include "storage/schema.h"
#include "util/status.h"

namespace mpfdb {

// Definition of an MPF view (the paper's `create mpfview`): a product join of
// named base functional relations under one semiring.
struct MpfViewDef {
  std::string name;
  std::vector<std::string> relations;
  Semiring semiring = Semiring::SumProduct();

  // Union of the variables of all base relations, in first-seen order.
  StatusOr<std::vector<std::string>> AllVariables(const Catalog& catalog) const;
};

// An equality predicate var = value appearing in a query's WHERE clause.
struct QuerySelection {
  std::string var;
  VarValue value;
};

// A predicate on the aggregated measure (the HAVING clause of the
// constrained-range query form, Section 3.1). Applied at the plan root,
// after the final marginalization.
enum class CompareOp { kLt, kLe, kGt, kGe, kEq, kNe };

const char* CompareOpSymbol(CompareOp op);
bool EvalCompare(CompareOp op, double lhs, double rhs);

struct HavingClause {
  CompareOp op = CompareOp::kLt;
  double threshold = 0;
};

// An MPF query over a view:
//   select X, AGG(f) from view [where var=c ...] group by X
// Covers the Basic, Restricted-answer (selection on an X variable) and
// Constrained-domain (selection on a non-X variable) forms of Section 3.1.
struct MpfQuerySpec {
  std::vector<std::string> group_vars;  // the query variables X
  std::vector<QuerySelection> selections;
  // Constrained-range filter on the aggregated measure, if any.
  std::optional<HavingClause> having;

  std::string ToString(const MpfViewDef& view) const;
};

// Logical plan node. Plans are immutable trees shared across the dynamic
// programming tables of the optimizers, hence shared_ptr-to-const.
// kProject drops variable columns *without* aggregation; it is only legal
// when the retained variables functionally determine the dropped ones
// (Proposition 1 of the paper, via declared primary keys), so no two rows
// collapse. The optimizers that use it verify that precondition.
// kMeasureFilter filters rows on the measure value (the HAVING clause); it
// is only placed at the plan root, above the final marginalization.
// kIndexScan is a fused scan + equality selection served by a hash index
// (select_var/select_value name the lookup key).
// kMultiwayJoin is an n-ary product join over `children`, evaluated by a
// worst-case-optimal algorithm (LeapFrog TrieJoin); `output_vars` doubles as
// the global variable order the trie iterators walk, so it is ordering-
// significant, unlike the set-valued output_vars of binary nodes.
enum class PlanNodeKind {
  kScan,
  kIndexScan,
  kSelect,
  kJoin,
  kMultiwayJoin,
  kGroupBy,
  kProject,
  kMeasureFilter,
};

struct PlanNode;
using PlanPtr = std::shared_ptr<const PlanNode>;

struct PlanNode {
  PlanNodeKind kind;
  // kSelect (declared here, beside `kind`, so the two share one word).
  VarValue select_value = 0;

  // kScan.
  std::string table_name;

  // kJoin uses left+right; kSelect and kGroupBy use left only.
  PlanPtr left;
  PlanPtr right;

  // kMultiwayJoin: the n-ary operand list (left/right stay null).
  std::vector<PlanPtr> children;

  // kSelect.
  std::string select_var;

  // kMeasureFilter.
  HavingClause having;

  // Annotations, filled by PlanBuilder. For kGroupBy / kProject these are
  // the variables retained.
  std::vector<std::string> output_vars;
  double est_card = 0;   // estimated output cardinality
  double est_cost = 0;   // cumulative cost of the subtree

  // Number of join nodes in the subtree (for plan-shape assertions).
  int JoinCount() const;
  // Number of GroupBy nodes in the subtree.
  int GroupByCount() const;
  // Maximum chain of joins where some join node's right child is itself a
  // join: 0 for left-linear plans, >0 for bushy (nonlinear) plans.
  bool IsLinear() const;
  // Base table names referenced by the subtree, in scan order.
  std::vector<std::string> BaseTables() const;
};

// Builds annotated plan nodes: every constructor estimates output
// cardinality from catalog statistics and accumulates cost from the cost
// model. Cardinality estimation for functional relations uses the
// independence bound |L||R| / Π σ_v over shared variables v, capped by the
// domain product of the output variables.
class PlanBuilder {
 public:
  PlanBuilder(const Catalog& catalog, const CostModel& cost_model)
      : catalog_(catalog), cost_model_(cost_model) {}

  StatusOr<PlanPtr> Scan(const std::string& table_name) const;
  // Index-served equality scan; requires an index on (table, var) in the
  // catalog.
  StatusOr<PlanPtr> IndexScan(const std::string& table_name,
                              const std::string& var, VarValue value) const;
  StatusOr<PlanPtr> Select(PlanPtr child, const std::string& var,
                           VarValue value) const;
  StatusOr<PlanPtr> Join(PlanPtr left, PlanPtr right) const;
  // N-ary worst-case-optimal product join. `var_order` fixes the global
  // variable order the trie iterators walk (it must be a permutation of the
  // union of the children's output variables) and becomes the node's
  // output_vars verbatim. Cardinality is estimated with the AGM bound over
  // the children's (vars, est_card) hyperedges — the defining improvement
  // over the pairwise independence estimate on cyclic shapes.
  StatusOr<PlanPtr> MultiwayJoin(std::vector<PlanPtr> children,
                                 std::vector<std::string> var_order) const;
  StatusOr<PlanPtr> GroupBy(PlanPtr child,
                            std::vector<std::string> group_vars) const;
  // Column-dropping projection (Proposition 1); output cardinality is the
  // child's, cost is a linear pass.
  StatusOr<PlanPtr> Project(PlanPtr child,
                            std::vector<std::string> keep_vars) const;
  // Measure filter (HAVING); estimated selectivity 1/3, cost a linear pass.
  StatusOr<PlanPtr> MeasureFilter(PlanPtr child, HavingClause having) const;

  const Catalog& catalog() const { return catalog_; }
  const CostModel& cost_model() const { return cost_model_; }

  // Product of the domain sizes of `vars` (the paper's size estimate for a
  // complete functional relation over those variables).
  StatusOr<double> DomainProduct(const std::vector<std::string>& vars) const;

 private:
  const Catalog& catalog_;
  const CostModel& cost_model_;
};

// Comma-joins a variable-name list for EXPLAIN order/vars annotations.
// Generated workloads produce multi-character names (grid cells like
// "g2_11"), so any name that could make the rendering ambiguous — one
// containing a comma, parenthesis, brace, quote, or whitespace, or an empty
// name — is double-quoted with backslash escapes. Plain identifiers render
// bare, keeping existing golden strings stable.
std::string FormatVarList(const std::vector<std::string>& vars);

// A node's EXPLAIN label, e.g. "Select(x=1)" or "GroupBy{a,b}"; the
// logical and physical renderings share it.
std::string PlanNodeLabel(const PlanNode& node);

// Multi-line indented rendering of a plan with cardinality and cost
// annotations, in the spirit of EXPLAIN.
std::string ExplainPlan(const PlanNode& root);

// Compact single-line rendering, e.g.
// "GroupBy{wid}(Join(Scan(a), GroupBy{x,y}(Scan(b))))".
std::string PlanSignature(const PlanNode& root);

}  // namespace mpfdb

#endif  // MPFDB_PLAN_PLAN_H_
