// Golden-snapshot tests for the logical->physical planning pass:
// Select(Scan) index fusion, and the physical EXPLAIN of a Bayesian-network
// query planned end to end (one algorithm per node kind).

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bn/bayes_net.h"
#include "core/database.h"
#include "plan/physical.h"
#include "plan/plan.h"
#include "storage/catalog.h"
#include "storage/schema.h"
#include "util/rng.h"

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
  auto fused = PlanPhysicalTree(*root, catalog);
  ASSERT_EQ(fused->kind, PlanNodeKind::kIndexScan);
  EXPECT_TRUE(fused->index_fused);
  EXPECT_EQ(fused->left, nullptr);
  // The fused leaf keeps a pointer at the Select it absorbed, and renders
  // with the scanned table plus the lookup key.
  EXPECT_EQ(fused->logical, root.get());
  EXPECT_EQ(ExplainPhysicalPlan(*fused), "IndexScan(t, x=3)  [fused est=75]\n");

  // No index on y: the pair stays Select over Scan.
  auto no_index =
      MakeSelect(MakeScan("t", {"x", "y"}, 600), "y", 3, 75);
  auto unfused = PlanPhysicalTree(*no_index, catalog);
  ASSERT_EQ(unfused->kind, PlanNodeKind::kSelect);
  ASSERT_NE(unfused->left, nullptr);
  EXPECT_EQ(unfused->left->kind, PlanNodeKind::kScan);

}

// The physical EXPLAIN of a Bayesian-network marginal with evidence, planned
// by ve(deg) through Database::Explain: P(x3 | x0 = 1) on a four-node chain.
TEST(PhysicalPlanGolden, BayesNetQueryExplain) {
  Rng rng(5);
  auto net = bn::ChainBayesNet(4, 2, rng);
  ASSERT_TRUE(net.ok()) << net.status();
  Database db;
  auto view = net->ToMpfView(db.catalog());
  ASSERT_TRUE(view.ok()) << view.status();
  ASSERT_TRUE(db.CreateMpfView(*view).ok());
  const std::vector<std::string> vars = net->VariableNames();
  MpfQuerySpec query;
  query.group_vars = {vars.back()};
  query.selections.push_back(QuerySelection{vars.front(), 1});
  auto explain = db.Explain(view->name, query, "ve(deg)");
  ASSERT_TRUE(explain.ok()) << explain.status();
  const size_t physical = explain->find("-- physical plan:\n");
  ASSERT_NE(physical, std::string::npos) << *explain;
  EXPECT_EQ(explain->substr(physical),
            "-- physical plan:\n"
            "GroupBy{x3}  [agg=hash est=2]\n"
            "  ProductJoin  [join=hash est=4]\n"
            "    GroupBy{x2}  [agg=hash est=2]\n"
            "      ProductJoin  [join=hash est=2]\n"
            "        GroupBy{x1}  [agg=hash est=1]\n"
            "          ProductJoin  [join=hash est=1]\n"
            "            Select(x0=1)  [est=2]\n"
            "              Scan(cpt_x1)  [est=4]\n"
            "            Select(x0=1)  [est=1]\n"
            "              Scan(cpt_x0)  [est=2]\n"
            "        Scan(cpt_x2)  [est=4]\n"
            "    Scan(cpt_x3)  [est=4]\n");
}

}  // namespace
}  // namespace mpfdb
