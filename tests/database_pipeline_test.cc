// The one query pipeline: every Database reader resolves its view in a
// pinned snapshot, then plans and executes through the same steps. EXPLAIN
// and EXPLAIN ANALYZE share Query's plan cache (a scratch catalog never
// touches it) — also with a memory-governed server, whose budget no longer
// changes the plan — and HAVING thresholds key the cache exactly. (That
// Query, QueryWhatIf and QueryApprox match the fr naive evaluator on the
// worker pool is the differential driver's, tests/differential_test.cc.)

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bn/bayes_net.h"
#include "core/database.h"
#include "fr/algebra.h"
#include "random_view.h"
#include "server/server.h"
#include "util/rng.h"

namespace mpfdb {
namespace {

class DatabasePipelineTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  // A random view whose measures are powers of two in [1/4, 4], so every
  // fold order gives the same bits and tolerance 0.0 is meaningful. Loaded
  // into a database whose executor runs on a 4-thread pool.
  void Load(uint64_t seed, bool force_acyclic) {
    rv_ = MakeRandomView(seed, 6, 5, force_acyclic);
    Rng rng(seed + 500);
    for (const TablePtr& t : rv_.tables) {
      for (size_t r = 0; r < t->NumRows(); ++r) {
        t->set_measure(
            r, std::ldexp(1.0, static_cast<int>(rng.UniformInt(-2, 2))));
      }
    }
    exec::ExecOptions options;
    options.num_threads = 4;
    db_.set_exec_options(options);
    for (const auto& var : rv_.vars) {
      ASSERT_TRUE(
          db_.catalog().RegisterVariable(var, *rv_.catalog.DomainSize(var))
              .ok());
    }
    for (const auto& table : rv_.tables) {
      ASSERT_TRUE(db_.CreateTable(table).ok());
    }
    ASSERT_TRUE(db_.CreateMpfView(rv_.view).ok());
  }

  // One or two group variables and, half the time, a selection on another.
  MpfQuerySpec RandomQuery(Rng& rng) const {
    MpfQuerySpec query;
    query.group_vars = {Pick(rv_.present_vars, rng)};
    std::string second = Pick(rv_.present_vars, rng);
    if (rng.Bernoulli(0.5) && second != query.group_vars[0]) {
      query.group_vars.push_back(second);
    }
    std::string sel_var = Pick(rv_.present_vars, rng);
    if (rng.Bernoulli(0.5) &&
        std::find(query.group_vars.begin(), query.group_vars.end(),
                  sel_var) == query.group_vars.end()) {
      query.selections.push_back(QuerySelection{
          sel_var, static_cast<VarValue>(rng.UniformInt(
                       0, *rv_.catalog.DomainSize(sel_var) - 1))});
    }
    return query;
  }

  TablePtr Naive(const MpfQuerySpec& query) const {
    std::vector<fr::Selection> selections;
    for (const auto& s : query.selections) {
      selections.push_back({s.var, s.value});
    }
    auto naive = fr::EvaluateNaiveMpf(rv_.tables, query.group_vars,
                                      selections, rv_.view.semiring, "naive");
    EXPECT_TRUE(naive.ok()) << naive.status();
    return naive.ok() ? *naive : nullptr;
  }

  Database db_;
  RandomView rv_;
};

// The value after the first "actual=" in an EXPLAIN ANALYZE rendering: the
// physical root's output row count.
uint64_t RootActualRows(const std::string& text) {
  size_t at = text.find("actual=");
  if (at == std::string::npos) return ~uint64_t{0};
  return std::stoull(text.substr(at + 7));
}

TEST_P(DatabasePipelineTest, ExplainAndExplainAnalyzeHitQuerysPlanCache) {
  const uint64_t seed = CaseSeed(GetParam());
  MPFDB_TRACE_SEED(seed);
  Load(seed, /*force_acyclic=*/false);
  Rng rng(seed + 1000);
  const MpfQuerySpec query = RandomQuery(rng);
  const std::string& view = rv_.view.name;

  auto result = db_.Query(view, query, "ve(deg)");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->plan_cache_hit);
  auto before = db_.plan_cache().stats();

  auto explain = db_.Explain(view, query, "ve(deg)");
  ASSERT_TRUE(explain.ok()) << explain.status();
  auto analyze = db_.ExplainAnalyze(view, query, "ve(deg)");
  ASSERT_TRUE(analyze.ok()) << analyze.status();
  auto after = db_.plan_cache().stats();
  EXPECT_EQ(after.hits - before.hits, 2u);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.inserts, before.inserts);
  EXPECT_EQ(RootActualRows(*analyze), result->table->NumRows()) << *analyze;

  // A what-if plans against a scratch catalog: it neither reads nor fills
  // the cache, even when it changes nothing.
  auto what_if = db_.QueryWhatIf(view, query, WhatIf{}, "ve(deg)");
  ASSERT_TRUE(what_if.ok()) << what_if.status();
  EXPECT_FALSE(what_if->plan_cache_hit);
  auto last = db_.plan_cache().stats();
  EXPECT_EQ(last.hits, after.hits);
  EXPECT_EQ(last.misses, after.misses);
  EXPECT_EQ(last.inserts, after.inserts);
}

// EXPLAIN shows the plan a memory-governed server ran: a Session under a
// global memory limit plans the BN query, and EXPLAIN of the same spec hits
// that very cache entry, which is all-hash.
TEST_P(DatabasePipelineTest, GovernedServerAndExplainShareOnePlan) {
  const uint64_t seed = CaseSeed(GetParam());
  MPFDB_TRACE_SEED(seed);
  Rng rng(seed + 3000);
  auto net = bn::RandomBayesNet(12, 2, 3, rng);
  ASSERT_TRUE(net.ok()) << net.status();
  auto view = net->ToMpfView(db_.catalog());
  ASSERT_TRUE(view.ok()) << view.status();
  ASSERT_TRUE(db_.CreateMpfView(*view).ok());
  const std::vector<std::string> vars = net->VariableNames();
  MpfQuerySpec query;
  query.group_vars = {Pick(vars, rng)};
  const std::string evidence = Pick(vars, rng);
  if (evidence != query.group_vars[0]) {
    query.selections.push_back(QuerySelection{evidence, 1});
  }

  server::ServerOptions options;
  options.global_memory_limit = size_t{64} << 20;
  server::MpfServer server(db_, options);
  auto served =
      server.CreateSession("governed")->Query(view->name, query, "ve(deg)");
  ASSERT_TRUE(served.ok()) << served.status();
  auto before = db_.plan_cache().stats();

  auto explain = db_.Explain(view->name, query, "ve(deg)");
  ASSERT_TRUE(explain.ok()) << explain.status();
  auto after = db_.plan_cache().stats();
  EXPECT_EQ(after.hits - before.hits, 1u);
  EXPECT_EQ(after.inserts, before.inserts);
  const size_t physical = explain->find("-- physical plan:");
  ASSERT_NE(physical, std::string::npos) << *explain;
  EXPECT_EQ(explain->find("agg=sort", physical), std::string::npos)
      << *explain;
  EXPECT_NE(explain->find("agg=hash", physical), std::string::npos)
      << *explain;
}

// The plan cache keys a query on its exact HAVING threshold. Two thresholds
// that agree to six significant digits but straddle an answer value must
// not share a cached plan: each answers with its own filter.
TEST_P(DatabasePipelineTest, HavingThresholdsNeverShareACachedPlan) {
  const uint64_t seed = CaseSeed(GetParam());
  MPFDB_TRACE_SEED(seed);
  Load(seed, /*force_acyclic=*/false);
  Rng rng(seed + 4000);
  MpfQuerySpec query;
  query.group_vars = {Pick(rv_.present_vars, rng)};
  TablePtr naive = Naive(query);
  ASSERT_NE(naive, nullptr);
  ASSERT_GT(naive->NumRows(), 0u);
  const double v = naive->measure(0);
  size_t previous_rows = naive->NumRows() + 1;
  for (double threshold : {v * (1 - 1e-9), v * (1 + 1e-9)}) {
    query.having = HavingClause{CompareOp::kGt, threshold};
    auto want = fr::FilterMeasure(*naive, *query.having, "naive");
    ASSERT_TRUE(want.ok()) << want.status();
    auto result = db_.Query(rv_.view.name, query, "ve(deg)");
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_FALSE(result->plan_cache_hit) << query.ToString(rv_.view);
    EXPECT_TRUE(fr::TablesEqual(**want, *result->table, 0.0))
        << query.ToString(rv_.view);
    EXPECT_LT((*want)->NumRows(), previous_rows);
    previous_rows = (*want)->NumRows();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DatabasePipelineTest,
                         ::testing::Range<uint64_t>(0, 6));

}  // namespace
}  // namespace mpfdb
