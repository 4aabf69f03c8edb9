// The shared bench helpers must measure what they claim: a planning-only
// RunQuery plans against the const catalog, so it neither bumps the
// structural epoch nor sweeps the plan cache.

#include <gtest/gtest.h>

#include "../bench/bench_util.h"

namespace mpfdb {
namespace {

TEST(BenchUtilTest, PlanningOnlyRunKeepsEpochAndPlanCache) {
  Database db;
  workload::SupplyChainParams params;
  params.scale = 0.004;
  auto schema = workload::GenerateSupplyChain(params, db.catalog());
  ASSERT_TRUE(schema.ok());
  ASSERT_TRUE(db.CreateMpfView(schema->view).ok());
  const MpfQuerySpec query{{"cid"}, {}};
  ASSERT_TRUE(db.Query("invest", query).ok());  // fills the plan cache

  const uint64_t epoch = db.structural_epoch();
  const auto before = db.plan_cache().stats();
  ASSERT_EQ(before.entries, 1u);
  bench::RunStats stats = bench::RunQuery(db, "invest", query, "ve(deg)",
                                          /*execute=*/false);
  EXPECT_GT(stats.plan_cost, 0.0);
  EXPECT_EQ(db.structural_epoch(), epoch);
  EXPECT_EQ(db.plan_cache().stats().entries, before.entries);
  EXPECT_EQ(db.plan_cache().stats().invalidations, before.invalidations);
}

}  // namespace
}  // namespace mpfdb
