#include <gtest/gtest.h>

#include "core/database.h"
#include "fr/algebra.h"
#include "workload/generators.h"

namespace mpfdb {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::SupplyChainParams params;
    params.scale = 0.004;
    params.seed = 7;
    auto schema = workload::GenerateSupplyChain(params, db_.catalog());
    ASSERT_TRUE(schema.ok()) << schema.status();
    view_ = schema->view;
    ASSERT_TRUE(db_.CreateMpfView(view_).ok());
  }

  Database db_;
  MpfViewDef view_;
};

TEST_F(DatabaseTest, QueryRunsEndToEnd) {
  auto result = db_.Query("invest", MpfQuerySpec{{"cid"}, {}});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NE(result->table, nullptr);
  EXPECT_NE(result->plan, nullptr);
  EXPECT_GT(result->table->NumRows(), 0u);
  EXPECT_GE(result->planning_seconds, 0.0);
  EXPECT_GE(result->execution_seconds, 0.0);
}

TEST_F(DatabaseTest, OptimizersAgree) {
  TablePtr reference;
  for (const std::string spec :
       {"cs", "cs+", "cs+nonlinear", "ve(deg)", "ve(width)", "ve(elim_cost)",
        "ve(deg&width)", "ve(deg&elim_cost)", "ve(random)", "ve(deg) ext.",
        "ve(width) ext"}) {
    auto result = db_.Query("invest", MpfQuerySpec{{"wid"}, {}}, spec);
    ASSERT_TRUE(result.ok()) << spec << ": " << result.status();
    if (reference == nullptr) {
      reference = result->table;
    } else {
      EXPECT_TRUE(fr::TablesEqual(*reference, *result->table, 1e-6)) << spec;
    }
  }
}

TEST_F(DatabaseTest, ExplainRendersPlan) {
  auto text = db_.Explain("invest", MpfQuerySpec{{"tid"}, {}}, "ve(deg)");
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("VE(deg)"), std::string::npos);
  EXPECT_NE(text->find("GroupBy"), std::string::npos);
  EXPECT_NE(text->find("group by tid"), std::string::npos);
}

// HAVING thresholds print in their shortest round-trip form on the header,
// the logical line and the physical line, so two thresholds that agree to
// six significant digits still render apart.
TEST_F(DatabaseTest, ExplainRendersHavingThresholdsExactly) {
  const std::vector<std::pair<double, std::string>> thresholds = {
      {0.31415926, "0.31415926"}, {0.31415929, "0.31415929"}};
  for (const auto& [threshold, printed] : thresholds) {
    MpfQuerySpec query{{"tid"}, {}};
    query.having = HavingClause{CompareOp::kLt, threshold};
    auto text = db_.Explain("invest", query, "ve(deg)");
    ASSERT_TRUE(text.ok()) << text.status();
    EXPECT_NE(text->find("having f < " + printed), std::string::npos) << *text;
    const std::string label = "MeasureFilter(f < " + printed + ")";
    const size_t logical = text->find(label);
    ASSERT_NE(logical, std::string::npos) << *text;
    EXPECT_GT(text->find("-- physical plan:"), logical) << *text;
    EXPECT_NE(text->find(label, text->find("-- physical plan:")),
              std::string::npos)
        << *text;
    auto analyzed = db_.ExplainAnalyze("invest", query, "ve(deg)");
    ASSERT_TRUE(analyzed.ok()) << analyzed.status();
    EXPECT_NE(analyzed->find(label), std::string::npos) << *analyzed;
    auto plan = db_.Query("invest", query, "ve(deg)");
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_NE(
        PlanSignature(*plan->plan).find("MeasureFilter{<" + printed + "}"),
        std::string::npos);
  }
}

TEST_F(DatabaseTest, ExplainAnalyzeReportsAccurateCounts) {
  auto text = db_.ExplainAnalyze("invest", MpfQuerySpec{{"tid"}, {}}, "cs+");
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("actual="), std::string::npos);
  // The scan of transporters emits exactly its cardinality.
  int64_t transporters = *db_.catalog().Cardinality("transporters");
  EXPECT_NE(text->find("Scan(transporters)"), std::string::npos);
  EXPECT_NE(text->find("actual=" + std::to_string(transporters)),
            std::string::npos);
}

TEST_F(DatabaseTest, CacheLifecycle) {
  EXPECT_FALSE(db_.HasCache("invest"));
  EXPECT_EQ(
      db_.QueryCached("invest", MpfQuerySpec{{"cid"}, {}}).status().code(),
      StatusCode::kFailedPrecondition);
  ASSERT_TRUE(db_.BuildCache("invest").ok());
  EXPECT_TRUE(db_.HasCache("invest"));
  auto cached = db_.QueryCached("invest", MpfQuerySpec{{"cid"}, {}});
  ASSERT_TRUE(cached.ok()) << cached.status();
  auto direct = db_.Query("invest", MpfQuerySpec{{"cid"}, {}});
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(fr::TablesEqual(**cached, *direct->table, 1e-6));
}

TEST_F(DatabaseTest, ViewManagement) {
  EXPECT_TRUE(db_.GetView("invest").ok());
  EXPECT_FALSE(db_.GetView("nope").ok());
  EXPECT_EQ(db_.ViewNames(), (std::vector<std::string>{"invest"}));
  EXPECT_EQ(db_.CreateMpfView(view_).code(), StatusCode::kAlreadyExists);
  MpfViewDef bad{"bad", {"missing_table"}, Semiring::SumProduct()};
  EXPECT_EQ(db_.CreateMpfView(bad).code(), StatusCode::kNotFound);
  MpfViewDef empty{"empty", {}, Semiring::SumProduct()};
  EXPECT_EQ(db_.CreateMpfView(empty).code(), StatusCode::kInvalidArgument);
}

TEST_F(DatabaseTest, UnknownOptimizerRejected) {
  EXPECT_FALSE(db_.Query("invest", MpfQuerySpec{{"cid"}, {}}, "bogus").ok());
  EXPECT_FALSE(db_.Query("invest", MpfQuerySpec{{"cid"}, {}}, "ve(nope)").ok());
  EXPECT_FALSE(db_.Query("invest", MpfQuerySpec{{"cid"}, {}}, "ve(deg").ok());
  EXPECT_FALSE(
      db_.Query("invest", MpfQuerySpec{{"cid"}, {}}, "ve(deg) bogus").ok());
}

TEST(MakeOptimizerTest, AllSpecsParse) {
  for (const std::string spec :
       {"cs", "CS", "cs+", "cs+linear", "cs+nonlinear", "ve(deg)",
        "ve(degree)", "ve(width)", "ve(elim_cost)", "ve(deg&width)",
        "ve(deg&elim_cost)", "ve(random)", "ve(min_fill)", "ve(deg) ext.",
        "ve(deg) ext", "ve(deg) ext+fd"}) {
    auto optimizer = MakeOptimizer(spec);
    EXPECT_TRUE(optimizer.ok()) << spec << ": " << optimizer.status();
  }
  EXPECT_FALSE(MakeOptimizer("").ok());
  EXPECT_FALSE(MakeOptimizer("postgres").ok());
}

}  // namespace
}  // namespace mpfdb
