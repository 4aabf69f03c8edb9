#ifndef MPFDB_PLAN_PLAN_TEMPLATE_H_
#define MPFDB_PLAN_PLAN_TEMPLATE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cost/cost_model.h"
#include "plan/plan.h"
#include "storage/catalog.h"
#include "util/status.h"

// Compact, parameterized plan templates: the plan cache's storage format.
//
// An optimizer's plan depends on which variables a query selects on, never
// on the selected values: PlanBuilder's estimates read domain sizes, not
// constants. A template is such a plan with the values taken out — a flat
// array of fixed-size nodes whose Select / IndexScan nodes carry a parameter
// slot instead of a value. Inflate binds a query's values and rebuilds the
// PlanNode tree that the executor, EXPLAIN and QueryResult::plan read, so
// the template is storage only and never a second plan format.
namespace mpfdb {

// A view's variable and relation numbering, shared by every template of the
// view at one structural epoch. Variables are numbered densely in
// first-seen view order (the numbering opt::QueryContext::Make assigns);
// relation r is view.relations[r]. The base scans are built once here and
// shared by every inflated plan: a structural epoch pins row counts, so a
// scan's estimates are the same bits whichever query plans it.
struct PlanVocabulary {
  std::vector<std::string> vars;  // id -> name
  std::unordered_map<std::string, uint16_t> ids;  // name -> id
  std::vector<PlanPtr> scans;     // Scan(view.relations[r])
  std::vector<std::vector<uint16_t>> scan_vars;  // ids of scans[r]'s output

  // Fails on a missing relation or a view of more than 65,535 variables.
  static StatusOr<std::shared_ptr<const PlanVocabulary>> Build(
      const MpfViewDef& view, const Catalog& catalog,
      const CostModel& cost_model);
};

// A plan ready to run: the logical tree plus the header lines EXPLAIN
// prints beside it.
struct BoundPlan {
  PlanPtr logical;
  std::string optimizer_name;
  std::vector<std::string> variable_order;
};

// A plan with its selection values lifted into parameter slots. Slot k binds
// the k-th selection of the query's selections sorted by (var, value): a
// template is only ever bound to queries with the same sorted selection
// variables (the plan-cache key guarantees it), so slot k names the same
// variable in every query that binds it.
class PlanTemplate {
 public:
  PlanTemplate() = default;

  // Flattens `plan` (with the optimizer's name and variable order) against
  // `vocab`. `selections` are the query's, sorted by (var, value). Fails if
  // the plan names a variable or relation the vocabulary lacks, a selection
  // the query does not make, or outgrows the 16-bit indices.
  static StatusOr<PlanTemplate> Compact(
      const PlanNode& plan, const std::string& optimizer_name,
      const std::vector<std::string>& variable_order,
      const PlanVocabulary& vocab,
      const std::vector<QuerySelection>& selections);

  // Rebuilds the plan with `selections` (sorted by (var, value)) bound into
  // the slots and `having` into the measure filter.
  StatusOr<BoundPlan> Inflate(const PlanVocabulary& vocab,
                              const std::vector<QuerySelection>& selections,
                              const std::optional<HavingClause>& having) const;

  // Resident bytes: the object plus its arrays' capacity.
  size_t Bytes() const;

 private:
  // A child reference: a node index, or kScanRef | r for the vocabulary's
  // shared scan of relation r.
  using Ref = uint16_t;
  static constexpr Ref kScanRef = 0x8000;

  // One plan node. Output variables are re-derived where PlanBuilder fixes
  // them (a scan's table, a selection's or measure filter's child, a join's
  // ordered union) and stored in ids_ otherwise. Fields by kind:
  //   kIndexScan      a = relation, b = slot
  //   kSelect         a = child, b = slot
  //   kJoin           a = left, b = right
  //   kMultiwayJoin   ids_[a, a+b) = children, ids_[a+b, a+b+c) = var order
  //   kGroupBy/kProject  a = child, ids_[b, b+c) = retained vars
  //   kMeasureFilter  a = child (the threshold binds from the query)
  struct Node {
    double est_card = 0;
    double est_cost = 0;
    uint8_t kind = 0;
    uint16_t a = 0;
    uint16_t b = 0;
    uint16_t c = 0;
  };
  static_assert(sizeof(Node) == 24);

  class Compactor;

  std::vector<Node> nodes_;     // children before parents
  std::vector<uint16_t> ids_;   // [0, order_len_) is the variable order
  std::string optimizer_name_;
  Ref root_ = 0;
  uint16_t order_len_ = 0;
};

// True when two plan trees agree in every field, estimates and HAVING
// thresholds compared by bits.
bool SamePlan(const PlanNode& a, const PlanNode& b);

}  // namespace mpfdb

#endif  // MPFDB_PLAN_PLAN_TEMPLATE_H_
