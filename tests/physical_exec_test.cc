// Execution-level contract of the physical planning layer: every plan runs
// one algorithm per node kind (hash joins, hash marginalize), and the served
// contexts — worker pool and spill budget — must reproduce the serial,
// unbudgeted answer bit for bit (tolerance 0.0) across random views and
// plans and FP-sensitive and idempotent semirings. Plus the EXPLAIN ANALYZE
// stats spine. Seeds shift with MPFDB_TEST_SEED like every property test.

#include <algorithm>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "core/database.h"
#include "exec/executor.h"
#include "exec/thread_pool.h"
#include "fr/algebra.h"
#include "random_view.h"
#include "util/query_context.h"
#include "util/rng.h"

namespace mpfdb {
namespace {

class PhysicalExecDifferentialTest : public ::testing::TestWithParam<uint64_t> {
};

// The all-hash plan (the only plan there is, so "auto" and "forced hash"
// name the same one) run under threads x spill reproduces its serial
// unbudgeted golden bit for bit over random views x random optimizer plans
// x {sum-product, max-product}.
TEST_P(PhysicalExecDifferentialTest, AutoSelectionMatchesForcedHash) {
  const uint64_t seed = CaseSeed(GetParam());
  MPFDB_TRACE_SEED(seed);
  SimpleCostModel cost_model;
  Rng rng(seed + 9000);

  for (const Semiring& semiring :
       {Semiring::SumProduct(), Semiring::MaxProduct()}) {
    RandomView rv = MakeRandomView(seed + 9000, 6, 5, /*force_acyclic=*/false);
    rv.view.semiring = semiring;

    MpfQuerySpec query;
    query.group_vars = {Pick(rv.present_vars, rng)};
    if (rng.Bernoulli(0.4)) {
      std::string sel_var = Pick(rv.present_vars, rng);
      if (sel_var != query.group_vars[0]) {
        query.selections.push_back(QuerySelection{
            sel_var, static_cast<VarValue>(rng.UniformInt(
                         0, *rv.catalog.DomainSize(sel_var) - 1))});
      }
    }

    for (const std::string spec : {"cs+", "ve(width)"}) {
      auto optimizer = MakeOptimizer(spec, seed);
      ASSERT_TRUE(optimizer.ok());
      auto plan =
          (*optimizer)->Optimize(rv.view, query, rv.catalog, cost_model);
      ASSERT_TRUE(plan.ok()) << spec << ": " << plan.status();

      exec::Executor executor(rv.catalog, rv.view.semiring);
      auto golden = executor.Execute(**plan, "golden");
      ASSERT_TRUE(golden.ok()) << spec << ": " << golden.status();

      for (size_t threads : {1u, 4u}) {
        exec::ThreadPool pool(threads);
        for (bool spill : {false, true}) {
          QueryContext ctx;
          ctx.set_thread_pool(&pool);
          if (spill) {
            ctx.set_memory_limit(2 * 1024);
            ctx.set_spill_enabled(true);
            ctx.set_spill_dir(::testing::TempDir());
          }
          auto result = executor.Execute(**plan, "out", &ctx);
          std::string where = std::string(semiring.name()) + "/" + spec +
                              "/threads=" + std::to_string(threads) +
                              (spill ? "/spill" : "/mem");
          ASSERT_TRUE(result.ok()) << where << ": " << result.status();
          EXPECT_TRUE(fr::TablesEqual(**golden, **result, /*tolerance=*/0.0))
              << where;
          EXPECT_EQ(ctx.stats().bytes_in_use, 0u) << where;
        }
      }
    }
  }
}

// The FAQ planner on acyclic views delegates to the shared binary planning
// path, and whatever it emits reproduces its serial unbudgeted golden bit
// for bit across semirings x threads x spill.
TEST_P(PhysicalExecDifferentialTest, FaqAcyclicMatchesForcedHash) {
  const uint64_t seed = CaseSeed(GetParam());
  MPFDB_TRACE_SEED(seed);
  SimpleCostModel cost_model;
  Rng rng(seed + 17000);

  for (const Semiring& semiring :
       {Semiring::SumProduct(), Semiring::MaxProduct()}) {
    RandomView rv = MakeRandomView(seed + 17000, 6, 5, /*force_acyclic=*/true);
    rv.view.semiring = semiring;

    MpfQuerySpec query;
    query.group_vars = {Pick(rv.present_vars, rng)};

    auto optimizer = MakeOptimizer("faq", seed);
    ASSERT_TRUE(optimizer.ok());
    auto plan = (*optimizer)->Optimize(rv.view, query, rv.catalog, cost_model);
    ASSERT_TRUE(plan.ok()) << plan.status();
    // Acyclic views never plan into the multiway node.
    EXPECT_EQ(PlanSignature(**plan).find("MultiwayJoin"), std::string::npos);

    exec::Executor executor(rv.catalog, rv.view.semiring);
    auto golden = executor.Execute(**plan, "golden");
    ASSERT_TRUE(golden.ok()) << golden.status();

    for (size_t threads : {1u, 4u}) {
      exec::ThreadPool pool(threads);
      for (bool spill : {false, true}) {
        QueryContext ctx;
        ctx.set_thread_pool(&pool);
        if (spill) {
          ctx.set_memory_limit(2 * 1024);
          ctx.set_spill_enabled(true);
          ctx.set_spill_dir(::testing::TempDir());
        }
        auto result = executor.Execute(**plan, "out", &ctx);
        std::string where = std::string(semiring.name()) +
                            "/threads=" + std::to_string(threads) +
                            (spill ? "/spill" : "/mem");
        ASSERT_TRUE(result.ok()) << where << ": " << result.status();
        EXPECT_TRUE(fr::TablesEqual(**golden, **result, /*tolerance=*/0.0))
            << where;
        EXPECT_EQ(ctx.stats().bytes_in_use, 0u) << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PhysicalExecDifferentialTest,
                         ::testing::Range<uint64_t>(1, 9));

// The runtime stats spine: ExecuteAnalyze returns the same table as
// Execute, populates per-logical-node stats, and the rendered EXPLAIN
// ANALYZE carries actuals, q-error, and the per-operator counters.
TEST(PhysicalExecTest, ExecuteAnalyzePopulatesStatsSpine) {
  const uint64_t seed = CaseSeed(3);
  MPFDB_TRACE_SEED(seed);
  SimpleCostModel cost_model;
  RandomView rv = MakeRandomView(seed + 500, 5, 4, /*force_acyclic=*/false);
  MpfQuerySpec query;
  query.group_vars = {rv.present_vars.front()};
  auto optimizer = MakeOptimizer("cs+", seed);
  ASSERT_TRUE(optimizer.ok());
  auto plan = (*optimizer)->Optimize(rv.view, query, rv.catalog, cost_model);
  ASSERT_TRUE(plan.ok()) << plan.status();

  exec::Executor executor(rv.catalog, rv.view.semiring);
  auto plain = executor.Execute(**plan, "out");
  ASSERT_TRUE(plain.ok()) << plain.status();
  auto analyzed = executor.ExecuteAnalyze(**plan, "out");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  EXPECT_TRUE(fr::TablesEqual(**plain, *analyzed->table, /*tolerance=*/0.0));

  ASSERT_NE(analyzed->physical, nullptr);
  ASSERT_FALSE(analyzed->stats.empty());
  // The root's recorded output is exactly the returned table.
  ASSERT_TRUE(analyzed->stats.count(plan->get()));
  const OperatorStats& root_stats = analyzed->stats.at(plan->get());
  EXPECT_EQ(root_stats.output_rows, analyzed->table->NumRows());
  EXPECT_GT(root_stats.batches, 0u);
  EXPECT_GT(root_stats.wall_nanos, 0u);
  // Some node in the plan must have charged memory.
  size_t max_peak = 0;
  for (const auto& [node, stats] : analyzed->stats) {
    max_peak = std::max(max_peak, stats.peak_bytes);
  }
  EXPECT_GT(max_peak, 0u);

  const std::string rendered =
      exec::ExplainAnalyzePlan(*analyzed->physical, analyzed->stats);
  EXPECT_NE(rendered.find("actual="), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("q="), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("wall_us="), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("peak_bytes="), std::string::npos) << rendered;
}

// Governed analyzed run: under a tiny budget the hash operators spill, and
// the spine reports the partition counts.
TEST(PhysicalExecTest, AnalyzeReportsSpillPartitionsUnderBudget) {
  const uint64_t seed = CaseSeed(4);
  MPFDB_TRACE_SEED(seed);
  SimpleCostModel cost_model;
  RandomView rv = MakeRandomView(seed + 800, 6, 5, /*force_acyclic=*/false);
  MpfQuerySpec query;
  query.group_vars = {rv.present_vars.front()};
  auto optimizer = MakeOptimizer("cs+", seed);
  ASSERT_TRUE(optimizer.ok());
  auto plan = (*optimizer)->Optimize(rv.view, query, rv.catalog, cost_model);
  ASSERT_TRUE(plan.ok()) << plan.status();

  exec::Executor executor(rv.catalog, rv.view.semiring);
  QueryContext ctx;
  ctx.set_memory_limit(2 * 1024);
  ctx.set_spill_enabled(true);
  ctx.set_spill_dir(::testing::TempDir());
  auto analyzed = executor.ExecuteAnalyze(**plan, "out", &ctx);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  // At least one operator had to spill, which the spine records.
  size_t total_parts = 0;
  for (const auto& [logical, stats] : analyzed->stats) {
    total_parts += stats.spill_partitions;
  }
  EXPECT_GT(total_parts, 0u);
  EXPECT_EQ(ctx.stats().bytes_in_use, 0u);
}

}  // namespace
}  // namespace mpfdb
