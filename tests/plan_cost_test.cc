// Tests of the plan layer (PlanBuilder annotations, plan-shape helpers,
// EXPLAIN rendering) and of both cost models.

#include <gtest/gtest.h>

#include "cost/cost_model.h"
#include "plan/plan.h"

namespace mpfdb {
namespace {

class PlanBuilderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.RegisterVariable("x", 10).ok());
    ASSERT_TRUE(catalog_.RegisterVariable("y", 20).ok());
    ASSERT_TRUE(catalog_.RegisterVariable("z", 5).ok());
    auto a = std::make_shared<Table>("a", Schema({"x", "y"}, "f"));
    auto b = std::make_shared<Table>("b", Schema({"y", "z"}, "f"));
    for (int i = 0; i < 100; ++i) a->AppendRow({i % 10, i % 20}, 1.0);
    for (int i = 0; i < 40; ++i) b->AppendRow({i % 20, i % 5}, 1.0);
    ASSERT_TRUE(catalog_.RegisterTable(a).ok());
    ASSERT_TRUE(catalog_.RegisterTable(b).ok());
  }

  Catalog catalog_;
  CostModel cost_model_;
};

TEST_F(PlanBuilderTest, ScanAnnotations) {
  PlanBuilder builder(catalog_, cost_model_);
  auto scan = builder.Scan("a");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ((*scan)->kind, PlanNodeKind::kScan);
  EXPECT_EQ((*scan)->est_card, 100);
  EXPECT_EQ((*scan)->est_cost, 100);  // CostModel charges |R| per scan
  EXPECT_EQ((*scan)->output_vars, (std::vector<std::string>{"x", "y"}));
  EXPECT_FALSE(builder.Scan("nope").ok());
}

TEST_F(PlanBuilderTest, SelectReducesCardinality) {
  PlanBuilder builder(catalog_, cost_model_);
  auto scan = builder.Scan("a");
  auto select = builder.Select(*scan, "x", 3);
  ASSERT_TRUE(select.ok());
  EXPECT_DOUBLE_EQ((*select)->est_card, 10.0);  // 100 / |x|=10
  EXPECT_GT((*select)->est_cost, (*scan)->est_cost);
  EXPECT_FALSE(builder.Select(*scan, "z", 0).ok());  // z not in a
  EXPECT_FALSE(builder.Select(nullptr, "x", 0).ok());
}

TEST_F(PlanBuilderTest, JoinEstimates) {
  PlanBuilder builder(catalog_, cost_model_);
  auto a = builder.Scan("a");
  auto b = builder.Scan("b");
  auto join = builder.Join(*a, *b);
  ASSERT_TRUE(join.ok());
  // Independence: 100 * 40 / |y|=20 = 200, below the domain cap 10*20*5.
  EXPECT_DOUBLE_EQ((*join)->est_card, 200.0);
  // Cost adds |L||R| to the children's costs.
  EXPECT_DOUBLE_EQ((*join)->est_cost, 100 + 40 + 100.0 * 40.0);
  EXPECT_EQ((*join)->output_vars, (std::vector<std::string>{"x", "y", "z"}));
  EXPECT_FALSE(builder.Join(*a, nullptr).ok());
}

TEST_F(PlanBuilderTest, JoinCardinalityCappedByDomainProduct) {
  // Join with no shared vars: independence gives 100*40 = 4000, but the
  // output domain product is 10*20*20*5 = 20000 -> no cap; shrink domains to
  // force the cap instead.
  Catalog small;
  ASSERT_TRUE(small.RegisterVariable("u", 2).ok());
  ASSERT_TRUE(small.RegisterVariable("v", 2).ok());
  auto t1 = std::make_shared<Table>("t1", Schema({"u"}, "f"));
  auto t2 = std::make_shared<Table>("t2", Schema({"v"}, "f"));
  for (int i = 0; i < 2; ++i) {
    t1->AppendRow({i}, 1.0);
    t2->AppendRow({i}, 1.0);
  }
  ASSERT_TRUE(small.RegisterTable(t1).ok());
  ASSERT_TRUE(small.RegisterTable(t2).ok());
  PlanBuilder builder(small, cost_model_);
  auto join = builder.Join(*builder.Scan("t1"), *builder.Scan("t2"));
  ASSERT_TRUE(join.ok());
  EXPECT_DOUBLE_EQ((*join)->est_card, 4.0);  // capped at 2*2
}

TEST_F(PlanBuilderTest, GroupByEstimates) {
  PlanBuilder builder(catalog_, cost_model_);
  auto scan = builder.Scan("a");
  auto groupby = builder.GroupBy(*scan, {"x"});
  ASSERT_TRUE(groupby.ok());
  EXPECT_DOUBLE_EQ((*groupby)->est_card, 10.0);  // min(100, |x|)
  EXPECT_EQ((*groupby)->output_vars, (std::vector<std::string>{"x"}));
  EXPECT_FALSE(builder.GroupBy(*scan, {"z"}).ok());
}

TEST_F(PlanBuilderTest, ProjectKeepsCardinality) {
  PlanBuilder builder(catalog_, cost_model_);
  auto scan = builder.Scan("a");
  auto project = builder.Project(*scan, {"x"});
  ASSERT_TRUE(project.ok());
  EXPECT_DOUBLE_EQ((*project)->est_card, 100.0);
  EXPECT_FALSE(builder.Project(*scan, {"z"}).ok());
}

TEST_F(PlanBuilderTest, PlanShapeHelpers) {
  PlanBuilder builder(catalog_, cost_model_);
  auto a = builder.Scan("a");
  auto b = builder.Scan("b");
  auto linear = builder.Join(*builder.Join(*a, *b), *a);
  ASSERT_TRUE(linear.ok());
  EXPECT_TRUE((*linear)->IsLinear());
  EXPECT_EQ((*linear)->JoinCount(), 2);
  EXPECT_EQ((*linear)->GroupByCount(), 0);
  EXPECT_EQ((*linear)->BaseTables(),
            (std::vector<std::string>{"a", "b", "a"}));

  auto bushy = builder.Join(*builder.Join(*a, *b), *builder.Join(*b, *a));
  ASSERT_TRUE(bushy.ok());
  EXPECT_FALSE((*bushy)->IsLinear());
  EXPECT_EQ((*bushy)->JoinCount(), 3);
}

TEST_F(PlanBuilderTest, ExplainAndSignature) {
  PlanBuilder builder(catalog_, cost_model_);
  auto a = builder.Scan("a");
  auto select = builder.Select(*a, "x", 1);
  auto groupby = builder.GroupBy(*select, {"y"});
  auto filtered =
      builder.MeasureFilter(*groupby, HavingClause{CompareOp::kLt, 5.0});
  ASSERT_TRUE(filtered.ok());
  std::string explain = ExplainPlan(**filtered);
  EXPECT_NE(explain.find("Scan(a)"), std::string::npos);
  EXPECT_NE(explain.find("Select(x=1)"), std::string::npos);
  EXPECT_NE(explain.find("GroupBy{y}"), std::string::npos);
  EXPECT_NE(explain.find("MeasureFilter(f < 5)"), std::string::npos);
  EXPECT_EQ(PlanSignature(**filtered),
            "MeasureFilter{<5}(GroupBy{y}(Select{x=1}(Scan(a))))");
}

TEST(CompareOpTest, SymbolsAndEval) {
  EXPECT_STREQ(CompareOpSymbol(CompareOp::kLt), "<");
  EXPECT_STREQ(CompareOpSymbol(CompareOp::kLe), "<=");
  EXPECT_STREQ(CompareOpSymbol(CompareOp::kGt), ">");
  EXPECT_STREQ(CompareOpSymbol(CompareOp::kGe), ">=");
  EXPECT_STREQ(CompareOpSymbol(CompareOp::kEq), "=");
  EXPECT_STREQ(CompareOpSymbol(CompareOp::kNe), "<>");
  EXPECT_TRUE(EvalCompare(CompareOp::kLt, 1, 2));
  EXPECT_FALSE(EvalCompare(CompareOp::kLt, 2, 2));
  EXPECT_TRUE(EvalCompare(CompareOp::kLe, 2, 2));
  EXPECT_TRUE(EvalCompare(CompareOp::kGt, 3, 2));
  EXPECT_TRUE(EvalCompare(CompareOp::kGe, 2, 2));
  EXPECT_TRUE(EvalCompare(CompareOp::kEq, 2, 2));
  EXPECT_TRUE(EvalCompare(CompareOp::kNe, 1, 2));
}

TEST(SimpleCostModelTest, PaperFormulas) {
  CostModel model;
  EXPECT_DOUBLE_EQ(model.JoinCost(100, 50), 5000.0);
  EXPECT_DOUBLE_EQ(model.GroupByCost(8), 8 * 3.0);  // n log2 n
  EXPECT_DOUBLE_EQ(model.ScanCost(42), 42.0);
  EXPECT_DOUBLE_EQ(model.SelectCost(42), 42.0);
  // Degenerate inputs stay sane.
  EXPECT_GE(model.GroupByCost(1), 0.0);
  EXPECT_GE(model.GroupByCost(0), 0.0);
}

TEST(CostModelTest, MonotoneInInputSize) {
  CostModel simple;
  for (double small = 10; small < 1e6; small *= 10) {
    double big = small * 10;
    EXPECT_LE(simple.JoinCost(small, small), simple.JoinCost(big, big));
    EXPECT_LE(simple.GroupByCost(small), simple.GroupByCost(big));
  }
}

TEST(MpfViewDefTest, AllVariables) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterVariable("x", 2).ok());
  ASSERT_TRUE(catalog.RegisterVariable("y", 2).ok());
  auto a = std::make_shared<Table>("a", Schema({"x", "y"}, "f"));
  auto b = std::make_shared<Table>("b", Schema({"y"}, "f"));
  ASSERT_TRUE(catalog.RegisterTable(a).ok());
  ASSERT_TRUE(catalog.RegisterTable(b).ok());
  MpfViewDef view{"v", {"a", "b"}, Semiring::SumProduct()};
  auto vars = view.AllVariables(catalog);
  ASSERT_TRUE(vars.ok());
  EXPECT_EQ(*vars, (std::vector<std::string>{"x", "y"}));
  MpfViewDef bad{"v", {"missing"}, Semiring::SumProduct()};
  EXPECT_FALSE(bad.AllVariables(catalog).ok());
}

TEST(MpfQuerySpecTest, ToStringFormats) {
  MpfViewDef view{"v", {}, Semiring::MinSum()};
  MpfQuerySpec query{{"a", "b"}, {{"c", 3}}};
  query.having = HavingClause{CompareOp::kLt, 7.5};
  EXPECT_EQ(query.ToString(view),
            "select a, b, MIN(f) from v where c=3 group by a, b having f < "
            "7.5");
}

}  // namespace
}  // namespace mpfdb
