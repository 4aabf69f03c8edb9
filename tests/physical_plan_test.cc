// Unit and golden-snapshot tests for the logical->physical planning pass:
// per-algorithm cost formulas, admissibility rules (semiring order
// invariance, fold-context containment, the finite-memory hash rule),
// interesting-order propagation with sort skipping, Select(Scan) index
// fusion, force overrides, and planner determinism. Logical inputs are
// hand-annotated PlanNode trees with exact cardinalities, so every cost the
// planner computes — and therefore every choice — is a stable golden.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cost/cost_model.h"
#include "plan/physical.h"
#include "plan/plan.h"
#include "semiring/semiring.h"
#include "storage/catalog.h"
#include "storage/schema.h"

namespace mpfdb {
namespace {

// --- Hand-annotated logical plan builders --------------------------------

std::shared_ptr<PlanNode> MakeScan(const std::string& table,
                                   std::vector<std::string> vars,
                                   double card) {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanNodeKind::kScan;
  node->table_name = table;
  node->output_vars = std::move(vars);
  node->est_card = card;
  return node;
}

std::shared_ptr<PlanNode> MakeJoin(PlanPtr left, PlanPtr right, double card) {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanNodeKind::kJoin;
  node->output_vars = varset::Union(left->output_vars, right->output_vars);
  node->left = std::move(left);
  node->right = std::move(right);
  node->est_card = card;
  return node;
}

std::shared_ptr<PlanNode> MakeGroupBy(PlanPtr child,
                                      std::vector<std::string> vars,
                                      double card) {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanNodeKind::kGroupBy;
  node->group_vars = vars;
  node->output_vars = std::move(vars);
  node->left = std::move(child);
  node->est_card = card;
  return node;
}

std::shared_ptr<PlanNode> MakeSelect(PlanPtr child, const std::string& var,
                                     VarValue value, double card) {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanNodeKind::kSelect;
  node->select_var = var;
  node->select_value = value;
  node->output_vars = child->output_vars;
  node->left = std::move(child);
  node->est_card = card;
  return node;
}

// The worked three-relation chain a(x,y) |x| b(y,z) |x| c(z,w), 10k rows
// each, inner join out 10k, top join out 1M, marginalized onto {z}. Under
// the page model the mixed plan (hash inner join, sort-merge top join whose
// (z) order lets the final sort-marginalize skip its sort) beats all-hash.
PlanPtr ChainOnZ() {
  auto a = MakeScan("a", {"x", "y"}, 10000);
  auto b = MakeScan("b", {"y", "z"}, 10000);
  auto c = MakeScan("c", {"z", "w"}, 10000);
  auto inner = MakeJoin(a, b, 10000);
  auto top = MakeJoin(inner, c, 1e6);
  return MakeGroupBy(top, {"z"}, 100);
}

std::unique_ptr<PhysicalPlanNode> PlanOrDie(const PlanNode& root,
                                            Semiring semiring,
                                            const CostModel& model,
                                            PhysicalPlannerOptions options = {},
                                            const Catalog* catalog = nullptr) {
  static const Catalog empty_catalog;
  PhysicalPlanner planner(catalog != nullptr ? *catalog : empty_catalog,
                          model, semiring, options);
  auto physical = planner.PlanTree(root);
  EXPECT_TRUE(physical.ok()) << physical.status();
  return std::move(*physical);
}

// --- Per-algorithm cost formulas -----------------------------------------

TEST(PhysicalPlanCost, PageModelPerAlgorithmFormulas) {
  PageCostModel model(100.0);  // unbounded memory
  const double lg100 = std::log2(100.0);

  // 10k rows = 100 pages per operand.
  EXPECT_DOUBLE_EQ(model.HashJoinCost(10000, 10000), 200.0);
  EXPECT_DOUBLE_EQ(model.SortMergeJoinCost(10000, 10000, true, true), 200.0);
  EXPECT_DOUBLE_EQ(model.SortMergeJoinCost(10000, 10000, false, false),
                   200.0 + 2.0 * 100.0 * lg100);
  EXPECT_DOUBLE_EQ(model.SortMergeJoinCost(10000, 10000, true, false),
                   200.0 + 100.0 * lg100);
  EXPECT_DOUBLE_EQ(model.NestedLoopJoinCost(10000, 10000),
                   100.0 + 100.0 * 100.0);

  // 1M input rows = 10k pages; 100 output rows = 1 page.
  EXPECT_DOUBLE_EQ(model.HashGroupByCost(1e6, 100), 2.0 * 10000.0 + 1.0);
  EXPECT_DOUBLE_EQ(model.SortGroupByCost(1e6, /*input_sorted=*/true), 10000.0);
  EXPECT_DOUBLE_EQ(model.SortGroupByCost(1e6, /*input_sorted=*/false),
                   10000.0 * std::log2(10000.0) + 10000.0);
  // The presorted streaming fold is cheaper than hashing the same input —
  // this gap is what pays for an order-producing plan below a GroupBy.
  EXPECT_LT(model.SortGroupByCost(1e6, true), model.HashGroupByCost(1e6, 100));
}

TEST(PhysicalPlanCost, GracePenaltyChargesOverflowPages) {
  // 10 pages of working memory; a 100-page build side overflows by 90
  // pages, each written and re-read once.
  PageCostModel tight(100.0, /*memory_pages=*/10.0);
  PageCostModel roomy(100.0);
  EXPECT_DOUBLE_EQ(tight.HashJoinCost(10000, 10000),
                   roomy.HashJoinCost(10000, 10000) + 2.0 * 90.0);
  EXPECT_DOUBLE_EQ(tight.SortMergeJoinCost(10000, 10000, false, false),
                   roomy.SortMergeJoinCost(10000, 10000, false, false) +
                       2.0 * 2.0 * 90.0);
  EXPECT_DOUBLE_EQ(tight.SortGroupByCost(10000, false),
                   roomy.SortGroupByCost(10000, false) + 2.0 * 90.0);
  // Fits-in-memory operands are unaffected.
  EXPECT_DOUBLE_EQ(tight.HashJoinCost(500, 500), roomy.HashJoinCost(500, 500));
}

TEST(PhysicalPlanCost, BaseModelDefaultsDelegate) {
  // Derived models that predate the physical planner keep working: hash
  // costs fall back to the generic JoinCost/GroupByCost.
  SimpleCostModel model;
  EXPECT_DOUBLE_EQ(model.HashJoinCost(300, 40), model.JoinCost(300, 40));
  EXPECT_DOUBLE_EQ(model.HashGroupByCost(300, 40), model.GroupByCost(300));
  EXPECT_DOUBLE_EQ(model.SortMergeJoinCost(300, 40, true, true), 340.0);
  EXPECT_DOUBLE_EQ(model.NestedLoopJoinCost(300, 40), 12000.0);
  EXPECT_DOUBLE_EQ(model.SortGroupByCost(300, true), 300.0);
}

TEST(PhysicalPlanCost, AddOrderInvariancePerSemiring) {
  EXPECT_FALSE(Semiring::SumProduct().AddIsOrderInvariant());
  EXPECT_FALSE(Semiring::LogSumProduct().AddIsOrderInvariant());
  EXPECT_TRUE(Semiring::MinSum().AddIsOrderInvariant());
  EXPECT_TRUE(Semiring::MaxSum().AddIsOrderInvariant());
  EXPECT_TRUE(Semiring::MaxProduct().AddIsOrderInvariant());
  EXPECT_TRUE(Semiring::BoolOrAnd().AddIsOrderInvariant());
}

// --- Golden physical plans ------------------------------------------------

TEST(PhysicalPlanGolden, MixedAlgorithmsInOneQuery) {
  auto root = ChainOnZ();
  PageCostModel model(100.0);
  auto phys = PlanOrDie(*root, Semiring::SumProduct(), model);

  // The chosen plan mixes join algorithms: the inner join stays hash (its
  // sort-merge order over (y) helps nobody, and under sum-product the fold
  // context was reset by the top join anyway), while the top join goes
  // sort-merge because its (z) order lets the GroupBy{z} stream.
  ASSERT_EQ(phys->kind, PlanNodeKind::kGroupBy);
  EXPECT_EQ(phys->agg, AggAlgorithm::kSort);
  EXPECT_TRUE(phys->skip_sort_input);
  ASSERT_EQ(phys->left->kind, PlanNodeKind::kJoin);
  EXPECT_EQ(phys->left->join, JoinAlgorithm::kSortMerge);
  EXPECT_EQ(phys->left->output_order, std::vector<std::string>{"z"});
  EXPECT_FALSE(phys->left->skip_sort_left);
  EXPECT_FALSE(phys->left->skip_sort_right);
  ASSERT_EQ(phys->left->left->kind, PlanNodeKind::kJoin);
  EXPECT_EQ(phys->left->left->join, JoinAlgorithm::kHash);

  // Exact total: 3 scans (100 pages each) + hash inner join (200) +
  // sort-merge top join with both sides sorted here (200 + 2*100*lg 100)
  // + streaming presorted sort-marginalize over 10k pages.
  const double expected = 300.0 + 200.0 +
                          (200.0 + 2.0 * 100.0 * std::log2(100.0)) + 10000.0;
  EXPECT_DOUBLE_EQ(phys->total_cost, expected);

  const std::string explain = ExplainPhysicalPlan(*phys);
  EXPECT_EQ(explain,
            "GroupBy{z}  [agg=sort presorted order=(z) est=100 cost=12028.8]\n"
            "  ProductJoin  [join=sort_merge order=(z) est=1e+06 "
            "cost=2028.77]\n"
            "    ProductJoin  [join=hash est=10000 cost=400]\n"
            "      Scan(a)  [est=10000 cost=100]\n"
            "      Scan(b)  [est=10000 cost=100]\n"
            "    Scan(c)  [est=10000 cost=100]\n");
}

TEST(PhysicalPlanGolden, SumSemiringOrderRuleForcesHash) {
  // Same chain marginalized onto {x}: the top join's shared variables {z}
  // are not contained in the fold's group variables, so reordering its
  // emission could reassociate sum-product Adds — sort-merge is
  // inadmissible and everything stays hash.
  auto a = MakeScan("a", {"x", "y"}, 10000);
  auto b = MakeScan("b", {"y", "z"}, 10000);
  auto c = MakeScan("c", {"z", "w"}, 10000);
  auto root = MakeGroupBy(MakeJoin(MakeJoin(a, b, 10000), c, 1e6),
                          {"x"}, 100);
  PageCostModel model(100.0);
  auto phys = PlanOrDie(*root, Semiring::SumProduct(), model);

  EXPECT_EQ(phys->agg, AggAlgorithm::kHash);
  EXPECT_EQ(phys->left->join, JoinAlgorithm::kHash);
  EXPECT_EQ(phys->left->left->join, JoinAlgorithm::kHash);
  const std::string explain = ExplainPhysicalPlan(*phys);
  EXPECT_EQ(explain.find("sort_merge"), std::string::npos) << explain;
  EXPECT_EQ(explain.find("nested_loop"), std::string::npos) << explain;
}

TEST(PhysicalPlanGolden, OrderInvariantSemiringUnlocksSortMerge) {
  // Join sharing (z,q) under GroupBy{z}: the shared set is NOT contained in
  // the group variables, so sum-product must refuse sort-merge — but
  // max-product's Add is order-invariant, the admissibility gate passes,
  // and the (z,q) order (of which the group key (z) is a prefix) lets the
  // marginalize stream.
  auto mk = [] {
    auto a = MakeScan("a", {"x", "z", "q"}, 10000);
    auto b = MakeScan("b", {"z", "q", "w"}, 10000);
    return MakeGroupBy(MakeJoin(a, b, 1e6), {"z"}, 100);
  };
  PageCostModel model(100.0);

  auto sum = PlanOrDie(*mk(), Semiring::SumProduct(), model);
  EXPECT_EQ(sum->left->join, JoinAlgorithm::kHash);
  EXPECT_EQ(sum->agg, AggAlgorithm::kHash);

  auto max = PlanOrDie(*mk(), Semiring::MaxProduct(), model);
  EXPECT_EQ(max->left->join, JoinAlgorithm::kSortMerge);
  EXPECT_EQ(max->left->output_order, (std::vector<std::string>{"z", "q"}));
  EXPECT_EQ(max->agg, AggAlgorithm::kSort);
  EXPECT_TRUE(max->skip_sort_input);
}

TEST(PhysicalPlanGolden, FiniteMemoryStaysOnSpillCapableHash) {
  // Order-invariant semiring, so only the memory rule is in play: with any
  // finite planner-visible budget, auto mode must keep the spill-capable
  // hash operators everywhere (sorts cannot spill).
  auto root = ChainOnZ();
  PageCostModel model(100.0);
  PhysicalPlannerOptions options;
  options.memory_limit = 64 * 1024;
  auto phys = PlanOrDie(*root, Semiring::MaxProduct(), model, options);

  EXPECT_EQ(phys->agg, AggAlgorithm::kHash);
  EXPECT_EQ(phys->left->join, JoinAlgorithm::kHash);
  EXPECT_EQ(phys->left->left->join, JoinAlgorithm::kHash);
}

TEST(PhysicalPlanGolden, ForcedOverridesApplyToEveryNode) {
  auto root = ChainOnZ();
  PageCostModel model(100.0);

  // Forcing sort-merge applies even where auto mode would refuse it (the
  // inner join, under sum-product) — forcing bypasses admissibility.
  PhysicalPlannerOptions force_sm;
  force_sm.force_join = JoinAlgorithm::kSortMerge;
  force_sm.force_agg = AggAlgorithm::kSort;
  auto sm = PlanOrDie(*root, Semiring::SumProduct(), model, force_sm);
  EXPECT_EQ(sm->agg, AggAlgorithm::kSort);
  EXPECT_EQ(sm->left->join, JoinAlgorithm::kSortMerge);
  EXPECT_EQ(sm->left->left->join, JoinAlgorithm::kSortMerge);

  PhysicalPlannerOptions force_nl;
  force_nl.force_join = JoinAlgorithm::kNestedLoop;
  auto nl = PlanOrDie(*root, Semiring::SumProduct(), model, force_nl);
  EXPECT_EQ(nl->left->join, JoinAlgorithm::kNestedLoop);
  EXPECT_EQ(nl->left->left->join, JoinAlgorithm::kNestedLoop);

  PhysicalPlannerOptions force_hash;
  force_hash.force_join = JoinAlgorithm::kHash;
  force_hash.force_agg = AggAlgorithm::kHash;
  auto hash = PlanOrDie(*root, Semiring::MaxProduct(), model, force_hash);
  EXPECT_EQ(hash->agg, AggAlgorithm::kHash);
  EXPECT_EQ(hash->left->join, JoinAlgorithm::kHash);
  EXPECT_EQ(hash->left->left->join, JoinAlgorithm::kHash);
}

TEST(PhysicalPlanGolden, IndexFusionCollapsesSelectOverScan) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterVariable("x", 8).ok());
  ASSERT_TRUE(catalog.RegisterVariable("y", 8).ok());
  auto t = std::make_shared<Table>("t", Schema({"x", "y"}, "f"));
  for (VarValue x = 0; x < 8; ++x) {
    for (VarValue y = 0; y < 8; ++y) t->AppendRow({x, y}, 1.0);
  }
  ASSERT_TRUE(catalog.RegisterTable(t).ok());
  ASSERT_TRUE(catalog.CreateIndex("t", "x").ok());

  auto root = MakeSelect(MakeScan("t", {"x", "y"}, 600), "x", 3, 75);
  PageCostModel model(100.0);

  auto fused = PlanOrDie(*root, Semiring::SumProduct(), model, {}, &catalog);
  ASSERT_EQ(fused->kind, PlanNodeKind::kIndexScan);
  EXPECT_TRUE(fused->index_fused);
  EXPECT_EQ(fused->left, nullptr);
  // The fused leaf keeps a pointer at the Select it absorbed, and renders
  // with the scanned table plus the lookup key. The lookup costs one index
  // page plus one output page.
  EXPECT_EQ(fused->logical, root.get());
  EXPECT_EQ(ExplainPhysicalPlan(*fused),
            "IndexScan(t, x=3)  [fused est=75 cost=2]\n");

  // No index on y: the pair stays Select over Scan.
  auto no_index =
      MakeSelect(MakeScan("t", {"x", "y"}, 600), "y", 3, 75);
  auto unfused =
      PlanOrDie(*no_index, Semiring::SumProduct(), model, {}, &catalog);
  ASSERT_EQ(unfused->kind, PlanNodeKind::kSelect);
  ASSERT_NE(unfused->left, nullptr);
  EXPECT_EQ(unfused->left->kind, PlanNodeKind::kScan);

  // Fusion disabled by option.
  PhysicalPlannerOptions no_fusion;
  no_fusion.allow_index_fusion = false;
  auto off = PlanOrDie(*root, Semiring::SumProduct(), model, no_fusion,
                       &catalog);
  EXPECT_EQ(off->kind, PlanNodeKind::kSelect);
}

TEST(PhysicalPlanGolden, PlannerIsDeterministicAndCloneIsFaithful) {
  auto root = ChainOnZ();
  PageCostModel model(100.0);
  auto first = PlanOrDie(*root, Semiring::SumProduct(), model);
  auto second = PlanOrDie(*root, Semiring::SumProduct(), model);
  EXPECT_EQ(ExplainPhysicalPlan(*first), ExplainPhysicalPlan(*second));
  auto clone = first->Clone();
  EXPECT_EQ(ExplainPhysicalPlan(*first), ExplainPhysicalPlan(*clone));
}

}  // namespace
}  // namespace mpfdb
