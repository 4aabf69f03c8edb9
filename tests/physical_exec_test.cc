// The EXPLAIN ANALYZE stats spine of the physical planning layer: analyzed
// runs return the plain answer, record per-operator actuals, and report
// spill partitions under a budget. (Answers under the worker pool and spill
// budgets are the differential driver's, tests/differential_test.cc.) Seeds
// shift with MPFDB_TEST_SEED like every property test.

#include <algorithm>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "core/database.h"
#include "exec/executor.h"
#include "fr/algebra.h"
#include "random_view.h"
#include "util/query_context.h"

namespace mpfdb {
namespace {

// The runtime stats spine: ExecuteAnalyze returns the same table as
// Execute, populates per-logical-node stats, and the rendered EXPLAIN
// ANALYZE carries actuals, q-error, and the per-operator counters.
TEST(PhysicalExecTest, ExecuteAnalyzePopulatesStatsSpine) {
  const uint64_t seed = CaseSeed(3);
  MPFDB_TRACE_SEED(seed);
  CostModel cost_model;
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
  CostModel cost_model;
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
