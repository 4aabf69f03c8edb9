// The FAQ planner's contract: GYO reduction finds cyclic cores, cyclic
// workloads (triangle / longer cycles / grids) plan into a worst-case-
// optimal MultiwayJoin whose golden signatures are stable, acyclic views
// delegate to the shared binary planner (no multiway node), and EXPLAIN /
// EXPLAIN ANALYZE render the chosen variable order and per-variable trie
// iterator counters. (FAQ's answers against the oracle are the differential
// driver's, tests/differential_test.cc.)

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "opt/faq.h"
#include "workload/generators.h"

namespace mpfdb {
namespace {

TEST(GyoTest, FindsCyclicCores) {
  using Edges = std::vector<std::vector<std::string>>;
  // A chain is acyclic: everything reduces away.
  EXPECT_TRUE(opt::GyoCyclicCore(Edges{{"a", "b"}, {"b", "c"}, {"c", "d"}})
                  .empty());
  // So is a star, and a relation contained in another.
  EXPECT_TRUE(opt::GyoCyclicCore(Edges{{"a", "b", "c"}, {"b"}, {"c", "d"}})
                  .empty());
  // The triangle survives whole.
  EXPECT_EQ(opt::GyoCyclicCore(Edges{{"a", "b"}, {"b", "c"}, {"c", "a"}}),
            (std::vector<size_t>{0, 1, 2}));
  // A pendant edge hanging off a triangle is shaved; the core remains.
  EXPECT_EQ(opt::GyoCyclicCore(
                Edges{{"a", "b"}, {"b", "c"}, {"c", "a"}, {"a", "d"}}),
            (std::vector<size_t>{0, 1, 2}));
  // Two equal edges are not a cycle.
  EXPECT_TRUE(opt::GyoCyclicCore(Edges{{"a", "b"}, {"a", "b"}}).empty());
}

TEST(FaqPlanTest, TriangleGoldenSignature) {
  Catalog catalog;
  auto schema = workload::GenerateCycle(workload::CycleParams{}, catalog);
  ASSERT_TRUE(schema.ok()) << schema.status();
  CostModel cost_model;
  opt::FaqOptimizer faq;
  auto plan = faq.Optimize(schema->view, MpfQuerySpec{{"x0"}, {}}, catalog,
                           cost_model);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(PlanSignature(**plan),
            "GroupBy{x0}(MultiwayJoin{x0,x1,x2}("
            "Scan(e0), Scan(e1), Scan(e2)))");
  // The variable-order IR reports the eliminated variables in search order.
  EXPECT_EQ(faq.last_variable_order(),
            (std::vector<std::string>{"x1", "x2"}));
}

TEST(FaqPlanTest, LongerCycleFallsBackWhenAgmBoundIsLoose) {
  // The AGM bound of a 4-cycle is N^2 — no better than the pairwise join's
  // worst case — so the honest cost comparison keeps the binary plan (the
  // multiway node only pays off when the fractional cover beats pairwise,
  // as on the triangle's N^1.5). The fallback still reports its variable
  // order through the shared IR.
  Catalog catalog;
  workload::CycleParams params;
  params.num_vars = 4;
  auto schema = workload::GenerateCycle(params, catalog);
  ASSERT_TRUE(schema.ok()) << schema.status();
  CostModel cost_model;
  opt::FaqOptimizer faq;
  auto plan = faq.Optimize(schema->view, MpfQuerySpec{{"x0"}, {}}, catalog,
                           cost_model);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(PlanSignature(**plan),
            "GroupBy{x0}(Join(GroupBy{x0,x3}(Join(GroupBy{x0,x2}("
            "Join(Scan(e0), Scan(e1))), Scan(e2))), Scan(e3)))");
  EXPECT_FALSE(faq.last_variable_order().empty());
}

TEST(FaqPlanTest, GridGoldenSignature) {
  // A 2x2 grid is a 4-cycle of complete d^2-row potentials. Every even
  // cycle has fractional edge-cover number 2, so the AGM bound is the full
  // pairwise worst case while group-by pushdown caps the binary plan's
  // intermediates at the domain product — the honest cost comparison keeps
  // the binary plan (worst-case-optimal joins pay off on triangle-like
  // cores with rho* < 2, covered by the triangle golden above). The golden
  // pins both the fallback shape and the variable-order IR with the grid's
  // deliberately multi-character names.
  Catalog catalog;
  workload::GridParams params;
  params.rows = 2;
  params.cols = 2;
  params.domain_size = 8;
  auto schema = workload::GenerateGrid(params, catalog);
  ASSERT_TRUE(schema.ok()) << schema.status();
  CostModel cost_model;
  opt::FaqOptimizer faq;
  auto plan = faq.Optimize(schema->view, MpfQuerySpec{{"g0_0"}, {}}, catalog,
                           cost_model);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(PlanSignature(**plan),
            "GroupBy{g0_0}(Join(GroupBy{g0_0,g1_0}(Join(GroupBy{g0_0,g1_1}("
            "Join(Scan(p_g0_0_g0_1), Scan(p_g0_1_g1_1))), "
            "Scan(p_g1_0_g1_1))), Scan(p_g0_0_g1_0)))");
  EXPECT_EQ(faq.last_variable_order(),
            (std::vector<std::string>{"g0_1", "g1_1", "g1_0"}));

  // Multi-character grid names render unquoted (they are plain identifiers)
  // and in a stable order inside a multiway node's annotation: pin the
  // rendering with a directly built node, independent of cost selection.
  PlanBuilder builder(catalog, cost_model);
  std::vector<PlanPtr> scans;
  for (const auto& rel : schema->view.relations) {
    auto scan = builder.Scan(rel);
    ASSERT_TRUE(scan.ok()) << scan.status();
    scans.push_back(*scan);
  }
  auto multiway = builder.MultiwayJoin(
      scans, {"g0_0", "g0_1", "g1_0", "g1_1"});
  ASSERT_TRUE(multiway.ok()) << multiway.status();
  EXPECT_EQ(PlanSignature(**multiway),
            "MultiwayJoin{g0_0,g0_1,g1_0,g1_1}("
            "Scan(p_g0_0_g0_1), Scan(p_g0_0_g1_0), Scan(p_g0_1_g1_1), "
            "Scan(p_g1_0_g1_1))");
}

TEST(FaqPlanTest, AcyclicViewsDelegateToBinaryPlanning) {
  CostModel cost_model;
  {
    Catalog catalog;
    auto chain =
        workload::GenerateMatrixChain(workload::MatrixChainParams{}, catalog);
    ASSERT_TRUE(chain.ok()) << chain.status();
    opt::FaqOptimizer faq;
    auto plan = faq.Optimize(
        chain->view,
        MpfQuerySpec{{chain->vars.front(), chain->vars.back()}, {}}, catalog,
        cost_model);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_EQ(PlanSignature(**plan).find("MultiwayJoin"), std::string::npos);
  }
  {
    Catalog catalog;
    auto reach = workload::GenerateReachability(
        workload::ReachabilityParams{}, catalog);
    ASSERT_TRUE(reach.ok()) << reach.status();
    opt::FaqOptimizer faq;
    auto plan = faq.Optimize(
        reach->view,
        MpfQuerySpec{{reach->vars.front(), reach->vars.back()}, {}}, catalog,
        cost_model);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_EQ(PlanSignature(**plan).find("MultiwayJoin"), std::string::npos);
  }
}

TEST(FaqPlanTest, FormatVarListQuotesAmbiguousNames) {
  EXPECT_EQ(FormatVarList({"a", "g0_0"}), "a,g0_0");
  EXPECT_EQ(FormatVarList({"a,b", "c"}), "\"a,b\",c");
  EXPECT_EQ(FormatVarList({"w z"}), "\"w z\"");
  EXPECT_EQ(FormatVarList({"q\"t"}), "\"q\\\"t\"");
  EXPECT_EQ(FormatVarList({""}), "\"\"");
}

class FaqDatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::CycleParams params;
    params.domain_size = 30;
    params.density = 0.25;
    auto schema = workload::GenerateCycle(params, db_.catalog());
    ASSERT_TRUE(schema.ok()) << schema.status();
    view_ = schema->view;
    ASSERT_TRUE(db_.CreateMpfView(view_).ok());
  }

  Database db_;
  MpfViewDef view_;
};

TEST_F(FaqDatabaseTest, OptimizerSpecParsesAndExplains) {
  auto text = db_.Explain("cycle3", MpfQuerySpec{{"x0"}, {}}, "faq");
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("-- optimizer: FAQ"), std::string::npos) << *text;
  EXPECT_NE(text->find("-- variable order: (x1,x2)"), std::string::npos)
      << *text;
  EXPECT_NE(text->find("MultiwayJoin[3]"), std::string::npos) << *text;
  // The physical rendering names the algorithm and the trie variable order.
  EXPECT_NE(text->find("leapfrog"), std::string::npos) << *text;

  auto unknown = db_.Explain("cycle3", MpfQuerySpec{{"x0"}, {}}, "faq(x)");
  EXPECT_FALSE(unknown.ok());
}

TEST_F(FaqDatabaseTest, ExplainAnalyzeRendersTrieIteratorStats) {
  auto text = db_.ExplainAnalyze("cycle3", MpfQuerySpec{{"x0"}, {}}, "faq");
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("MultiwayJoin[3](leapfrog)"), std::string::npos)
      << *text;
  EXPECT_NE(text->find("seeks="), std::string::npos) << *text;
  EXPECT_NE(text->find("nexts="), std::string::npos) << *text;
  EXPECT_NE(text->find("q="), std::string::npos) << *text;
  EXPECT_NE(text->find("-- variable order: (x1,x2)"), std::string::npos)
      << *text;
}

}  // namespace
}  // namespace mpfdb
