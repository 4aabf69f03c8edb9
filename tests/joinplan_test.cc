// Unit tests of the shared join-plan search (BestJoinPlan /
// FixedOrderJoinPlan): plan spaces, cross-product fallback, the
// greedy-conservative GroupBy pushdown, and the Theorem 1 inclusion
// relationships measured on concrete schemas.

#include <gtest/gtest.h>

#include "opt/cs.h"
#include "opt/joinplan.h"
#include "opt/optimizer.h"
#include "opt/ve.h"
#include "workload/generators.h"

namespace mpfdb::opt {
namespace {

class JoinPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.RegisterVariable("a", 10).ok());
    ASSERT_TRUE(catalog_.RegisterVariable("b", 10).ok());
    ASSERT_TRUE(catalog_.RegisterVariable("c", 10).ok());
    ASSERT_TRUE(catalog_.RegisterVariable("d", 10).ok());
    AddTable("t0", {"a", "b"}, 100);
    AddTable("t1", {"b", "c"}, 50);
    AddTable("t2", {"c", "d"}, 25);
    AddTable("iso", {"d"}, 5);  // shares d with t2 only
    view_ = MpfViewDef{"v", {"t0", "t1", "t2"}, Semiring::SumProduct()};
  }

  void AddTable(const std::string& name, std::vector<std::string> vars,
                int rows) {
    auto t = std::make_shared<Table>(name, Schema(std::move(vars), "f"));
    for (int i = 0; i < rows; ++i) {
      std::vector<VarValue> row;
      for (size_t c = 0; c < t->schema().arity(); ++c) {
        row.push_back((i + static_cast<int>(c)) % 10);
      }
      if (t->schema().arity() >= 2) row[1] = (i / 10) % 10;
      t->AppendRow(row, 1.0);
    }
    ASSERT_TRUE(catalog_.RegisterTable(t).ok());
  }

  StatusOr<QueryContext> MakeContext(const MpfViewDef& view,
                                     const MpfQuerySpec& query) {
    return QueryContext::Make(view, query, catalog_, cost_model_);
  }

  std::vector<Factor> Leaves(const QueryContext& ctx) {
    return LeafFactors(ctx);
  }

  Catalog catalog_;
  CostModel cost_model_;
  MpfViewDef view_;
};

TEST_F(JoinPlanTest, SingleFactorReturnsItself) {
  auto ctx = MakeContext(MpfViewDef{"v", {"t0"}, Semiring::SumProduct()},
                         MpfQuerySpec{{"a"}, {}});
  ASSERT_TRUE(ctx.ok());
  auto plan = BestJoinPlan(*ctx, Leaves(*ctx), JoinPlanOptions{});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->kind, PlanNodeKind::kScan);
}

TEST_F(JoinPlanTest, EmptyFactorsRejected) {
  auto ctx = MakeContext(view_, MpfQuerySpec{{"a"}, {}});
  ASSERT_TRUE(ctx.ok());
  EXPECT_FALSE(BestJoinPlan(*ctx, {}, JoinPlanOptions{}).ok());
}

TEST_F(JoinPlanTest, LinearSearchCoversAllFactors) {
  auto ctx = MakeContext(view_, MpfQuerySpec{{"a"}, {}});
  ASSERT_TRUE(ctx.ok());
  JoinPlanOptions opts;
  auto plan = BestJoinPlan(*ctx, Leaves(*ctx), opts);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->JoinCount(), 2);
  EXPECT_TRUE((*plan)->IsLinear());
  auto tables = (*plan)->BaseTables();
  EXPECT_TRUE(varset::SetEquals(tables, {"t0", "t1", "t2"}));
}

TEST_F(JoinPlanTest, BushyNotWorseThanLinear) {
  auto ctx = MakeContext(view_, MpfQuerySpec{{"a"}, {}});
  ASSERT_TRUE(ctx.ok());
  JoinPlanOptions linear{false, true, true};
  JoinPlanOptions bushy{true, true, true};
  auto p_linear = BestJoinPlan(*ctx, Leaves(*ctx), linear);
  auto p_bushy = BestJoinPlan(*ctx, Leaves(*ctx), bushy);
  ASSERT_TRUE(p_linear.ok() && p_bushy.ok());
  EXPECT_LE((*p_bushy)->est_cost, (*p_linear)->est_cost);
}

TEST_F(JoinPlanTest, GroupByPushdownNotWorseThanPlain) {
  auto ctx = MakeContext(view_, MpfQuerySpec{{"d"}, {}});
  ASSERT_TRUE(ctx.ok());
  JoinPlanOptions plain{false, false, true};
  JoinPlanOptions pushdown{false, true, true};
  auto p0 = BestJoinPlan(*ctx, Leaves(*ctx), plain);
  auto p1 = BestJoinPlan(*ctx, Leaves(*ctx), pushdown);
  ASSERT_TRUE(p0.ok() && p1.ok());
  EXPECT_LE((*p1)->est_cost, (*p0)->est_cost);
  EXPECT_EQ((*p0)->GroupByCount(), 0);  // plain never inserts GroupBys
}

TEST_F(JoinPlanTest, CrossProductFallbackForDisconnectedSets) {
  // t0(a,b) and iso(d) share nothing: the planner must fall back to a cross
  // product rather than fail.
  MpfViewDef disconnected{"v", {"t0", "iso"}, Semiring::SumProduct()};
  auto ctx = MakeContext(disconnected, MpfQuerySpec{{"a"}, {}});
  ASSERT_TRUE(ctx.ok());
  for (bool bushy : {false, true}) {
    JoinPlanOptions opts{bushy, false, true};
    auto plan = BestJoinPlan(*ctx, Leaves(*ctx), opts);
    ASSERT_TRUE(plan.ok()) << (bushy ? "bushy" : "linear");
    EXPECT_EQ((*plan)->JoinCount(), 1);
  }
}

TEST_F(JoinPlanTest, FixedOrderJoinsAscendingByCardinality) {
  auto ctx = MakeContext(view_, MpfQuerySpec{{"a"}, {}});
  ASSERT_TRUE(ctx.ok());
  auto plan = FixedOrderJoinPlan(*ctx, Leaves(*ctx));
  ASSERT_TRUE(plan.ok());
  // Smallest first: t2 (25) then t1 (50) then t0 (100).
  EXPECT_EQ((*plan)->BaseTables(),
            (std::vector<std::string>{"t2", "t1", "t0"}));
  EXPECT_FALSE(FixedOrderJoinPlan(*ctx, {}).ok());
}

TEST_F(JoinPlanTest, FactorLimitEnforced) {
  auto ctx = MakeContext(view_, MpfQuerySpec{{"a"}, {}});
  ASSERT_TRUE(ctx.ok());
  std::vector<Factor> many;
  for (int i = 0; i < 21; ++i) many.push_back(Leaves(*ctx)[0]);
  JoinPlanOptions opts;
  EXPECT_FALSE(BestJoinPlan(*ctx, many, opts).ok());
  opts.bushy = true;
  std::vector<Factor> seventeen(17, Leaves(*ctx)[0]);
  EXPECT_FALSE(BestJoinPlan(*ctx, seventeen, opts).ok());
}

// Theorem 1 measured: on the synthetic schemas, cost(CS+) <= cost(CS) and
// cost of VE's chosen plan >= cost of CS+'s (nonlinear) plan, since
// GDLPlan(VE) ⊂ GDLPlan(CS+).
TEST(PlanSpaceInclusionTest, Theorem1CostOrdering) {
  CostModel cost_model;
  for (auto kind : {workload::SyntheticKind::kStar,
                    workload::SyntheticKind::kMultistar,
                    workload::SyntheticKind::kLinear}) {
    Catalog catalog;
    workload::SyntheticParams params;
    params.kind = kind;
    params.num_tables = 5;
    params.domain_size = 6;
    auto schema = workload::GenerateSynthetic(params, catalog);
    ASSERT_TRUE(schema.ok());
    for (const auto& var : schema->linear_vars) {
      MpfQuerySpec query{{var}, {}};
      CsOptimizer cs;
      CsPlusOptimizer cs_plus(true);
      auto p_cs = cs.Optimize(schema->view, query, catalog, cost_model);
      auto p_csp = cs_plus.Optimize(schema->view, query, catalog, cost_model);
      ASSERT_TRUE(p_cs.ok() && p_csp.ok());
      EXPECT_LE((*p_csp)->est_cost, (*p_cs)->est_cost)
          << workload::SyntheticKindName(kind) << "/" << var;
      for (VeHeuristic h :
           {VeHeuristic::kDegree, VeHeuristic::kWidth, VeHeuristic::kMinFill}) {
        VeOptimizer ve(VeOptions{h, false, false, 0});
        auto p_ve = ve.Optimize(schema->view, query, catalog, cost_model);
        ASSERT_TRUE(p_ve.ok());
        EXPECT_GE((*p_ve)->est_cost - (*p_csp)->est_cost, -1e-6)
            << workload::SyntheticKindName(kind) << "/" << var << "/"
            << VeHeuristicName(h);
      }
    }
  }
}

}  // namespace
}  // namespace mpfdb::opt
