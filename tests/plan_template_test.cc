// Parameterized plan templates: the plan cache keys a plan on the variables a
// query selects, not their values, and binds each query's values into the
// cached template. These tests check that a plan served from a template is
// the plan a fresh optimize gives — text, estimate bits and answer bits —
// and that the cache's keys, invalidation and byte accounting behave.

#include <bit>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bn/bayes_net.h"
#include "core/database.h"
#include "exec/executor.h"
#include "fr/algebra.h"
#include "opt/optimizer.h"
#include "plan/plan_template.h"
#include "server/server.h"
#include "util/rng.h"

namespace mpfdb {
namespace {

// Fails on the first node whose estimates differ from the other tree's in
// any bit (the trees must have the same shape).
void ExpectSameEstimateBits(const PlanNode& got, const PlanNode& want) {
  ASSERT_EQ(std::bit_cast<uint64_t>(got.est_card),
            std::bit_cast<uint64_t>(want.est_card))
      << PlanNodeLabel(want);
  ASSERT_EQ(std::bit_cast<uint64_t>(got.est_cost),
            std::bit_cast<uint64_t>(want.est_cost))
      << PlanNodeLabel(want);
  ASSERT_EQ(got.left == nullptr, want.left == nullptr);
  ASSERT_EQ(got.right == nullptr, want.right == nullptr);
  ASSERT_EQ(got.children.size(), want.children.size());
  if (got.left) ExpectSameEstimateBits(*got.left, *want.left);
  if (got.right) ExpectSameEstimateBits(*got.right, *want.right);
  for (size_t i = 0; i < got.children.size(); ++i) {
    ExpectSameEstimateBits(*got.children[i], *want.children[i]);
  }
}

// The bn_inference net (40 nodes, at most 2 parents, domain 3, seed 33)
// under ve(deg). The cache is first filled with one template per (q, e)
// pair; every one of the 4,680 queries P(x_q | x_e = v) must then be served
// from a template and match a fresh optimize exactly.
TEST(PlanTemplateTest, BayesNet40HitsMatchFreshOptimize) {
  Database db;
  Rng rng(33);
  auto net = bn::RandomBayesNet(40, 2, 3, rng);
  ASSERT_TRUE(net.ok()) << net.status();
  auto view = net->ToMpfView(db.catalog());
  ASSERT_TRUE(view.ok()) << view.status();
  ASSERT_TRUE(db.CreateMpfView(*view).ok());
  const Catalog& catalog = std::as_const(db).catalog();
  const std::string spec = "ve(deg)";
  auto query_of = [](int q, int e, VarValue v) {
    return MpfQuerySpec{{"x" + std::to_string(q)},
                        {{"x" + std::to_string(e), v}}};
  };

  for (int q = 0; q < 40; ++q) {
    for (int e = 0; e < 40; ++e) {
      if (e == q) continue;
      ASSERT_TRUE(db.Explain(view->name, query_of(q, e, 0), spec).ok());
    }
  }
  ASSERT_EQ(db.plan_cache().stats().entries, 1560u);

  for (int q = 0; q < 40; ++q) {
    for (int e = 0; e < 40; ++e) {
      if (e == q) continue;
      for (VarValue v = 0; v < 3; ++v) {
        const MpfQuerySpec query = query_of(q, e, v);
        SCOPED_TRACE(query.ToString(*view));
        auto optimizer = MakeOptimizer(spec);
        ASSERT_TRUE(optimizer.ok());
        auto fresh =
            (*optimizer)->Optimize(*view, query, catalog, db.cost_model());
        ASSERT_TRUE(fresh.ok()) << fresh.status();

        auto served = db.Query(view->name, query, spec);
        ASSERT_TRUE(served.ok()) << served.status();
        ASSERT_TRUE(served->plan_cache_hit);
        ASSERT_EQ(ExplainPlan(*served->plan), ExplainPlan(**fresh));
        ExpectSameEstimateBits(*served->plan, **fresh);

        auto text = db.Explain(view->name, query, spec);
        ASSERT_TRUE(text.ok()) << text.status();
        const std::string order =
            FormatVarList((*optimizer)->last_variable_order());
        EXPECT_NE(text->find("-- variable order: (" + order + ")\n" +
                             ExplainPlan(**fresh)),
                  std::string::npos);

        exec::Executor executor(catalog, view->semiring);
        auto want = executor.Execute(**fresh, "want");
        ASSERT_TRUE(want.ok()) << want.status();
        ASSERT_TRUE(fr::TablesEqual(*served->table, **want, 0.0));
      }
    }
  }
  const server::PlanCache::Stats stats = db.plan_cache().stats();
  EXPECT_EQ(stats.entries, 1560u);
  EXPECT_EQ(stats.misses, 1560u);
}

// r(x, y) and s(y) over domains of 3, with distinct measures.
class TemplateCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.catalog().RegisterVariable("x", 3).ok());
    ASSERT_TRUE(db_.catalog().RegisterVariable("y", 3).ok());
    auto r = std::make_shared<Table>("r", Schema({"x", "y"}, "f"));
    for (VarValue x = 0; x < 3; ++x) {
      for (VarValue y = 0; y < 3; ++y) r->AppendRow({x, y}, 1.0 + x + 2 * y);
    }
    auto s = std::make_shared<Table>("s", Schema({"y"}, "f"));
    for (VarValue y = 0; y < 3; ++y) s->AppendRow({y}, 0.5 + y);
    ASSERT_TRUE(db_.CreateTable(r).ok());
    ASSERT_TRUE(db_.CreateTable(s).ok());
    ASSERT_TRUE(db_.CreateMpfView({"v", {"r", "s"}, Semiring::SumProduct()})
                    .ok());
    tables_ = {r, s};
  }

  // Runs `query` and checks its answer against the naive evaluator;
  // returns whether the plan came from the cache.
  bool QueryMatchesNaive(const MpfQuerySpec& query) {
    auto got = db_.Query("v", query);
    EXPECT_TRUE(got.ok()) << got.status();
    if (!got.ok()) return false;
    std::vector<fr::Selection> selections;
    for (const auto& sel : query.selections) {
      selections.push_back({sel.var, sel.value});
    }
    auto want = fr::EvaluateNaiveMpf(tables_, query.group_vars, selections,
                                     Semiring::SumProduct(), "naive");
    EXPECT_TRUE(want.ok()) << want.status();
    if (want.ok()) {
      EXPECT_TRUE(fr::TablesEqual(**want, *got->table, 0.0))
          << query.ToString(*db_.GetView("v").value());
    }
    return got->plan_cache_hit;
  }

  Database db_;
  std::vector<TablePtr> tables_;
};

TEST_F(TemplateCacheTest, SelectionValuesShareOneEntry) {
  EXPECT_FALSE(QueryMatchesNaive(MpfQuerySpec{{"y"}, {{"x", 0}}}));
  EXPECT_EQ(db_.plan_cache().stats().entries, 1u);
  EXPECT_TRUE(QueryMatchesNaive(MpfQuerySpec{{"y"}, {{"x", 2}}}));
  const server::PlanCache::Stats stats = db_.plan_cache().stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);

  // The value-free key still separates what picks the plan: another
  // selected variable, another group variable, a HAVING clause.
  using server::TemplateQueryKey;
  EXPECT_EQ(TemplateQueryKey({{"y"}, {{"x", 0}}}),
            TemplateQueryKey({{"y"}, {{"x", 2}}}));
  EXPECT_NE(TemplateQueryKey({{"y"}, {{"x", 0}}}),
            TemplateQueryKey({{"x"}, {{"y", 0}}}));
  MpfQuerySpec having{{"y"}, {{"x", 0}}};
  having.having = HavingClause{CompareOp::kGt, 1.0};
  EXPECT_NE(TemplateQueryKey(having), TemplateQueryKey({{"y"}, {{"x", 0}}}));
  EXPECT_NE(TemplateQueryKey({{"y"}, {{"x", 0}}}),
            server::CanonicalQueryKey({{"y"}, {{"x", 0}}}));
}

TEST_F(TemplateCacheTest, RepeatedAndGroupVariableSelectionsMatchNaive) {
  // A variable selected twice keeps its values in the key: x=1 AND x=2 (an
  // empty answer) and x=0 AND x=2 plan separately, and the permuted
  // x=2 AND x=1 shares the first one's entry.
  EXPECT_FALSE(QueryMatchesNaive(MpfQuerySpec{{"y"}, {{"x", 1}, {"x", 2}}}));
  EXPECT_FALSE(QueryMatchesNaive(MpfQuerySpec{{"y"}, {{"x", 0}, {"x", 2}}}));
  EXPECT_TRUE(QueryMatchesNaive(MpfQuerySpec{{"y"}, {{"x", 2}, {"x", 1}}}));
  EXPECT_EQ(server::TemplateQueryKey({{"y"}, {{"x", 1}, {"x", 2}}}),
            server::CanonicalQueryKey({{"y"}, {{"x", 1}, {"x", 2}}}));

  // A selection on a group variable (the restricted-answer form), then the
  // same template bound to other values.
  EXPECT_FALSE(QueryMatchesNaive(MpfQuerySpec{{"y"}, {{"y", 1}}}));
  EXPECT_TRUE(QueryMatchesNaive(MpfQuerySpec{{"y"}, {{"y", 0}}}));
  EXPECT_TRUE(QueryMatchesNaive(MpfQuerySpec{{"y"}, {{"y", 2}}}));
  // Two variables, each bound to its own slot.
  EXPECT_FALSE(
      QueryMatchesNaive(MpfQuerySpec{{"x", "y"}, {{"y", 1}, {"x", 2}}}));
  EXPECT_TRUE(
      QueryMatchesNaive(MpfQuerySpec{{"x", "y"}, {{"x", 0}, {"y", 2}}}));
}

TEST_F(TemplateCacheTest, StructuralEpochBumpInvalidatesTemplates) {
  EXPECT_FALSE(QueryMatchesNaive(MpfQuerySpec{{"x"}, {{"y", 0}}}));
  EXPECT_TRUE(QueryMatchesNaive(MpfQuerySpec{{"x"}, {{"y", 1}}}));
  ASSERT_TRUE(db_.catalog().RegisterVariable("z", 2).ok());
  server::PlanCache::Stats stats = db_.plan_cache().stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_FALSE(QueryMatchesNaive(MpfQuerySpec{{"x"}, {{"y", 2}}}));
  EXPECT_TRUE(QueryMatchesNaive(MpfQuerySpec{{"x"}, {{"y", 0}}}));
}

TEST_F(TemplateCacheTest, BytesGrowOnInsertAndClearToZero) {
  EXPECT_EQ(db_.plan_cache().stats().bytes, 0u);
  QueryMatchesNaive(MpfQuerySpec{{"x"}, {}});
  const size_t one = db_.plan_cache().stats().bytes;
  EXPECT_GT(one, sizeof(PlanTemplate));
  QueryMatchesNaive(MpfQuerySpec{{"y"}, {{"x", 1}}});
  const size_t two = db_.plan_cache().stats().bytes;
  EXPECT_GT(two, one);
  // A hit adds nothing.
  QueryMatchesNaive(MpfQuerySpec{{"y"}, {{"x", 0}}});
  EXPECT_EQ(db_.plan_cache().stats().bytes, two);

  server::MpfServer server(db_);
  EXPECT_NE(server.MetricsText().find("plan_cache_bytes " +
                                      std::to_string(two) + "\n"),
            std::string::npos);

  db_.plan_cache().Clear();
  EXPECT_EQ(db_.plan_cache().stats().bytes, 0u);
  EXPECT_EQ(db_.plan_cache().stats().entries, 0u);
  EXPECT_NE(server.MetricsText().find("plan_cache_bytes 0\n"),
            std::string::npos);
}

// A plan whose selection the query does not make cannot be compacted, and a
// template refuses to bind fewer values than it has slots.
TEST(PlanTemplateTest, CompactAndInflateCheckTheirSelections) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterVariable("x", 3).ok());
  auto r = std::make_shared<Table>("r", Schema({"x"}, "f"));
  r->AppendRow({0}, 1.0);
  ASSERT_TRUE(catalog.RegisterTable(r).ok());
  MpfViewDef view{"v", {"r"}, Semiring::SumProduct()};
  CostModel cost_model;
  auto vocab = PlanVocabulary::Build(view, catalog, cost_model);
  ASSERT_TRUE(vocab.ok()) << vocab.status();
  auto optimizer = MakeOptimizer("ve(deg)");
  ASSERT_TRUE(optimizer.ok());
  const MpfQuerySpec query{{}, {{"x", 1}}};
  auto plan = (*optimizer)->Optimize(view, query, catalog, cost_model);
  ASSERT_TRUE(plan.ok()) << plan.status();

  EXPECT_FALSE(PlanTemplate::Compact(**plan, "", {}, **vocab,
                                     {QuerySelection{"x", 2}})
                   .ok());
  auto tmpl = PlanTemplate::Compact(**plan, (*optimizer)->name(),
                                    (*optimizer)->last_variable_order(),
                                    **vocab, query.selections);
  ASSERT_TRUE(tmpl.ok()) << tmpl.status();
  auto bound = tmpl->Inflate(**vocab, query.selections, std::nullopt);
  ASSERT_TRUE(bound.ok()) << bound.status();
  EXPECT_TRUE(SamePlan(*bound->logical, **plan));
  EXPECT_EQ(tmpl->Inflate(**vocab, {}, std::nullopt).status().code(),
            StatusCode::kInternal);
}

}  // namespace
}  // namespace mpfdb
