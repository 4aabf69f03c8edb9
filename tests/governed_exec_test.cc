// Resource-governed execution: memory budgets with spill-based graceful
// degradation, cooperative cancellation, wall-clock deadlines, and the
// QueryContext charge/release protocol. Spilled runs must return results
// bit-identical to unconstrained runs; cancelled runs must unwind cleanly
// (the ASan preset verifies no leak) and stop within about one batch.

#include <chrono>
#include <cstdint>
#include <memory>
#include <numeric>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "exec/executor.h"
#include "exec/gibbs.h"
#include "exec/operator.h"
#include "fr/algebra.h"
#include "server/server.h"
#include "util/query_context.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace mpfdb::exec {
namespace {

// Random table with unique variable tuples; `unit_measures` makes every
// measure 1.0 so sums stay small integers and comparisons can be exact.
TablePtr RandomTable(const std::string& name, std::vector<std::string> vars,
                     std::vector<int64_t> domains, size_t rows, Rng& rng,
                     bool unit_measures = false) {
  auto t = std::make_shared<Table>(name, Schema(std::move(vars), "f"));
  std::set<std::vector<VarValue>> seen;
  while (t->NumRows() < rows) {
    std::vector<VarValue> row;
    for (int64_t d : domains) {
      row.push_back(static_cast<VarValue>(rng.UniformInt(0, d - 1)));
    }
    if (!seen.insert(row).second) continue;
    t->AppendRow(row, unit_measures ? 1.0 : rng.UniformDouble(0.5, 2.0));
  }
  return t;
}

void SortCanonically(Table& table) {
  std::vector<size_t> all(table.schema().arity());
  std::iota(all.begin(), all.end(), 0);
  table.SortByVariables(all);
}

// --- QueryContext protocol --------------------------------------------------

TEST(QueryContextTest, ChargeEnforcesLimitWithoutPartialCharges) {
  QueryContext ctx;
  ctx.set_memory_limit(100);
  EXPECT_TRUE(ctx.Charge(60, "op").ok());
  Status too_much = ctx.Charge(60, "op");
  EXPECT_EQ(too_much.code(), StatusCode::kResourceExhausted);
  // Nothing was charged by the failed call.
  EXPECT_EQ(ctx.stats().bytes_in_use, 60u);
  EXPECT_NE(too_much.message().find("op"), std::string::npos);
  EXPECT_TRUE(ctx.Charge(40, "op").ok());
  ctx.Release(100);
  EXPECT_EQ(ctx.stats().bytes_in_use, 0u);
  EXPECT_EQ(ctx.stats().peak_bytes, 100u);
}

TEST(QueryContextTest, PollReportsCancellationStickily) {
  QueryContext ctx;
  EXPECT_TRUE(ctx.Poll().ok());
  ctx.RequestCancel();
  EXPECT_EQ(ctx.Poll().code(), StatusCode::kCancelled);
  // Sticky: still cancelled on later polls.
  EXPECT_EQ(ctx.Poll().code(), StatusCode::kCancelled);
}

TEST(QueryContextTest, ExpiredDeadlineSurfacesWithinOnePollInterval) {
  QueryContext ctx;
  ctx.set_deadline_after(std::chrono::nanoseconds(0));
  Status status = Status::Ok();
  size_t polls = 0;
  while (status.ok() && polls < 4 * QueryContext::kPollIntervalRows) {
    status = ctx.Poll(1);
    ++polls;
  }
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LE(polls, QueryContext::kPollIntervalRows + 1);
}

TEST(QueryContextTest, MemoryGuardReleasesOnDestruction) {
  QueryContext ctx;
  ctx.set_memory_limit(1000);
  {
    MemoryGuard guard(&ctx);
    EXPECT_TRUE(guard.Charge(500, "op").ok());
    EXPECT_EQ(ctx.stats().bytes_in_use, 500u);
  }
  EXPECT_EQ(ctx.stats().bytes_in_use, 0u);
}

// --- spill-based degradation ------------------------------------------------

// Aggregation under a tiny budget spills and still returns the fr oracle's
// answer bit for bit: both fold every group in input order.
TEST(GovernedExecTest, HashMarginalizeSpillIsBitIdentical) {
  Rng rng(42);
  // Small domains so the catalog-free 32-bit packing engages; duplicates
  // across z force real aggregation.
  TablePtr t = RandomTable("t", {"x", "y", "z"}, {8, 8, 24}, 600, rng);
  auto golden = fr::Marginalize(*t, {"x", "y"}, Semiring::SumProduct(), "ref");
  ASSERT_TRUE(golden.ok()) << golden.status();

  QueryContext ctx;
  // Below even the packed-key footprint (~24 bytes per group), so the
  // operator degrades to partitioned aggregation.
  ctx.set_memory_limit(512);
  HashMarginalize gov_op(std::make_unique<SeqScan>(t), {"x", "y"},
                         Semiring::SumProduct());
  gov_op.BindContext(&ctx);
  auto governed = ::mpfdb::exec::Run(gov_op, "governed", &ctx);
  ASSERT_TRUE(governed.ok()) << governed.status();
  EXPECT_GT(ctx.stats().spill_files, 0u) << "budget never triggered a spill";
  // Bit-identical: zero tolerance.
  EXPECT_TRUE(fr::TablesEqual(**golden, **governed, 0.0));
  EXPECT_EQ(ctx.stats().bytes_in_use, 0u);
}

// Catalog-less aggregation with three group keys (3 * 32 bits overflows the
// catalog-free packing, so no codec applies) exercises the vector-key spill.
TEST(GovernedExecTest, VectorKeyAggregationSpillIsBitIdentical) {
  Rng rng(7);
  TablePtr t = RandomTable("t", {"a", "b", "c", "d"}, {25, 5, 4, 6}, 800, rng);
  HashMarginalize golden_op(std::make_unique<SeqScan>(t), {"a", "b", "c"},
                            Semiring::MinSum());
  auto golden = ::mpfdb::exec::Run(golden_op, "golden");
  ASSERT_TRUE(golden.ok()) << golden.status();

  QueryContext ctx;
  ctx.set_memory_limit(1024);
  HashMarginalize gov_op(std::make_unique<SeqScan>(t), {"a", "b", "c"},
                         Semiring::MinSum());
  gov_op.BindContext(&ctx);
  auto governed = ::mpfdb::exec::Run(gov_op, "governed", &ctx);
  ASSERT_TRUE(governed.ok()) << governed.status();
  EXPECT_GT(ctx.stats().spill_files, 0u);
  EXPECT_TRUE(fr::TablesEqual(**golden, **governed, 0.0));
}

// Join under a tiny budget Grace-partitions both sides; after the canonical
// sort the result set equals the fr oracle's bit for bit (each output row's
// measure is one multiply on both sides).
TEST(GovernedExecTest, HashProductJoinSpillMatchesUnconstrained) {
  Rng rng(11);
  TablePtr left = RandomTable("l", {"x", "y"}, {60, 16}, 500, rng);
  TablePtr right = RandomTable("r", {"y", "z"}, {16, 60}, 500, rng);
  auto golden = fr::ProductJoin(*left, *right, Semiring::SumProduct(), "ref");
  ASSERT_TRUE(golden.ok()) << golden.status();

  QueryContext ctx;
  ctx.set_memory_limit(4096);
  HashProductJoin gov_op(std::make_unique<SeqScan>(left),
                         std::make_unique<SeqScan>(right),
                         Semiring::SumProduct());
  gov_op.BindContext(&ctx);
  auto governed = ::mpfdb::exec::Run(gov_op, "governed", &ctx);
  ASSERT_TRUE(governed.ok()) << governed.status();
  EXPECT_GT(ctx.stats().spill_files, 0u) << "budget never triggered a spill";
  SortCanonically(**governed);
  EXPECT_TRUE(fr::TablesEqual(**golden, **governed, 0.0));
}

// A join feeding an aggregation, all under budget: both operators degrade
// and the composition stays exact thanks to unit measures (integer sums).
TEST(GovernedExecTest, SpilledJoinIntoSpilledAggregationStaysExact) {
  Rng rng(23);
  TablePtr left = RandomTable("l", {"x", "y"}, {40, 16}, 400, rng,
                              /*unit_measures=*/true);
  TablePtr right = RandomTable("r", {"y", "z"}, {16, 40}, 400, rng,
                               /*unit_measures=*/true);
  auto make_tree = [&]() {
    return std::make_unique<HashMarginalize>(
        std::make_unique<HashProductJoin>(std::make_unique<SeqScan>(left),
                                          std::make_unique<SeqScan>(right),
                                          Semiring::SumProduct()),
        std::vector<std::string>{"x", "z"}, Semiring::SumProduct());
  };
  auto golden_op = make_tree();
  auto golden = ::mpfdb::exec::Run(*golden_op, "golden");
  ASSERT_TRUE(golden.ok()) << golden.status();

  QueryContext ctx;
  ctx.set_memory_limit(4096);
  auto gov_op = make_tree();
  gov_op->BindContext(&ctx);
  auto governed = ::mpfdb::exec::Run(*gov_op, "governed", &ctx);
  ASSERT_TRUE(governed.ok()) << governed.status();
  EXPECT_GT(ctx.stats().spill_files, 0u);
  EXPECT_TRUE(fr::TablesEqual(**golden, **governed, 0.0));
}

// With spilling disabled, the budget breach is a hard error naming the
// operator that hit it.
TEST(GovernedExecTest, SpillDisabledFailsWithResourceExhausted) {
  Rng rng(5);
  TablePtr t = RandomTable("t", {"x", "y"}, {50, 50}, 1000, rng);
  QueryContext ctx;
  ctx.set_memory_limit(512);
  ctx.set_spill_enabled(false);
  HashMarginalize op(std::make_unique<SeqScan>(t), {"x"},
                     Semiring::SumProduct());
  op.BindContext(&ctx);
  auto result = ::mpfdb::exec::Run(op, "out", &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().message().find("HashMarginalize"),
            std::string::npos)
      << result.status().message();
  EXPECT_EQ(ctx.stats().bytes_in_use, 0u);
}

// --- cancellation and deadlines ---------------------------------------------

// Transparent wrapper that requests cancellation on the bound context after
// its child has emitted `n` rows, counting everything it passes through.
class CancelAfterN : public PhysicalOperator {
 public:
  CancelAfterN(OperatorPtr child, QueryContext* target, size_t n)
      : child_(std::move(child)), target_(target), n_(n) {}

  Status Open() override { return child_->Open(); }
  StatusOr<bool> NextBatch(RowBatch* batch) override {
    MPFDB_ASSIGN_OR_RETURN(bool has, child_->NextBatch(batch));
    if (has) {
      pulled_ += batch->num_rows();
      if (pulled_ >= n_) target_->RequestCancel();
    }
    return has;
  }
  void Close() override { child_->Close(); }
  void BindContext(QueryContext* ctx) override {
    ctx_ = ctx;
    child_->BindContext(ctx);
  }
  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  std::string name() const override { return "CancelAfterN"; }
  size_t pulled() const { return pulled_; }

 private:
  OperatorPtr child_;
  QueryContext* target_;
  size_t n_;
  size_t pulled_ = 0;
};

// Cancelling mid-drain returns kCancelled within about one batch of the
// cancel point and releases every charge (ASan verifies no leak).
TEST(GovernedExecTest, CancellationStopsWithinOneBatchAndFreesMemory) {
  Rng rng(3);
  TablePtr t = RandomTable("t", {"x", "y"}, {200, 100}, 8000, rng);
  QueryContext ctx;
  constexpr size_t kCancelAt = 2000;
  auto wrapper = std::make_unique<CancelAfterN>(std::make_unique<SeqScan>(t),
                                                &ctx, kCancelAt);
  CancelAfterN* counter = wrapper.get();
  HashMarginalize op(std::move(wrapper), {"x"}, Semiring::SumProduct());
  op.BindContext(&ctx);
  auto result = ::mpfdb::exec::Run(op, "out", &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled) << result.status();
  // The scan polls the context every batch, so at most one more batch of
  // rows is pulled after the cancel fires.
  EXPECT_LE(counter->pulled(), kCancelAt + kBatchSize);
  EXPECT_EQ(ctx.stats().bytes_in_use, 0u);
}

// An already-expired deadline surfaces as kDeadlineExceeded, also mid-drain.
TEST(GovernedExecTest, ExpiredDeadlineCancelsExecution) {
  Rng rng(13);
  TablePtr t = RandomTable("t", {"x", "y"}, {200, 100}, 6000, rng);
  QueryContext ctx;
  ctx.set_deadline_after(std::chrono::nanoseconds(0));
  HashMarginalize op(std::make_unique<SeqScan>(t), {"x"},
                     Semiring::SumProduct());
  op.BindContext(&ctx);
  auto result = ::mpfdb::exec::Run(op, "out", &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status();
  EXPECT_EQ(ctx.stats().bytes_in_use, 0u);
}

// --- end-to-end through Database / VeCache ----------------------------------

class GovernedDatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::SupplyChainParams params;
    params.scale = 0.004;
    params.seed = 7;
    auto schema = workload::GenerateSupplyChain(params, db_.catalog());
    ASSERT_TRUE(schema.ok()) << schema.status();
    ASSERT_TRUE(db_.CreateMpfView(schema->view).ok());
  }

  Database db_;
};

TEST_F(GovernedDatabaseTest, GovernedQueryMatchesUngoverned) {
  auto plain = db_.Query("invest", MpfQuerySpec{{"cid"}, {}});
  ASSERT_TRUE(plain.ok()) << plain.status();

  QueryContext ctx;  // pure accounting: no limit, no deadline
  auto governed = db_.Query("invest", MpfQuerySpec{{"cid"}, {}},
                            "cs+nonlinear", &ctx);
  ASSERT_TRUE(governed.ok()) << governed.status();
  EXPECT_TRUE(fr::TablesEqual(*plain->table, *governed->table, 0.0));
  EXPECT_GT(ctx.stats().peak_bytes, 0u);
  EXPECT_EQ(ctx.stats().bytes_in_use, 0u);
}

TEST_F(GovernedDatabaseTest, BudgetedQuerySpillsAndMatches) {
  auto plain = db_.Query("invest", MpfQuerySpec{{"wid"}, {}});
  ASSERT_TRUE(plain.ok()) << plain.status();

  QueryContext ctx;
  ctx.set_memory_limit(16 * 1024);
  auto governed =
      db_.Query("invest", MpfQuerySpec{{"wid"}, {}}, "cs+nonlinear", &ctx);
  ASSERT_TRUE(governed.ok()) << governed.status();
  EXPECT_TRUE(fr::TablesEqual(*plain->table, *governed->table, 1e-9));
  EXPECT_EQ(ctx.stats().bytes_in_use, 0u);
}

TEST_F(GovernedDatabaseTest, CancelledQueryReturnsCancelled) {
  QueryContext ctx;
  ctx.RequestCancel();
  auto result =
      db_.Query("invest", MpfQuerySpec{{"cid"}, {}}, "cs+nonlinear", &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST_F(GovernedDatabaseTest, CacheBuildHonorsBudget) {
  QueryContext ctx;
  ctx.set_memory_limit(256);  // far too small for any cache table
  Status status = db_.BuildCache("invest", &ctx);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(status.message().find("VeCache::Build"), std::string::npos)
      << status.message();
  EXPECT_EQ(ctx.stats().bytes_in_use, 0u);
  // Unbounded build still works.
  ASSERT_TRUE(db_.BuildCache("invest").ok());
}

// A restricted cached read (cid | tid=0) runs under its context: a cancelled
// token or an expired deadline stops it between its relational steps, both
// in-process and through an admitted Session, and an unlimited context
// leaves the answer bit-identical.
TEST_F(GovernedDatabaseTest, CachedReadHonorsCancelAndDeadline) {
  ASSERT_TRUE(db_.BuildCache("invest").ok());
  const MpfQuerySpec query{{"cid"}, {{"tid", 0}}};
  auto plain = db_.QueryCached("invest", query);
  ASSERT_TRUE(plain.ok()) << plain.status();
  QueryContext unlimited;
  auto governed = db_.QueryCached("invest", query, &unlimited);
  ASSERT_TRUE(governed.ok()) << governed.status();
  EXPECT_TRUE(fr::TablesEqual(**plain, **governed, 0.0));

  server::MpfServer server(db_);
  auto session = server.CreateSession();
  for (bool through_session : {false, true}) {
    SCOPED_TRACE(through_session ? "Session" : "in-process");
    auto read = [&](QueryContext* ctx) {
      return through_session ? session->QueryCached("invest", query, ctx)
                             : db_.QueryCached("invest", query, ctx);
    };
    QueryContext cancelled;
    cancelled.RequestCancel();
    auto result = read(&cancelled);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
        << result.status();

    QueryContext expired;
    expired.set_deadline_after(std::chrono::nanoseconds(0));
    result = read(&expired);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
        << result.status();
  }
}

// --- anytime approximate inference under governance --------------------------

// A small cyclic view for the Gibbs anytime-iterator tests (acyclic views
// never reach the sampler).
workload::CycleSchema MakeGovernedCycle(Database& db, uint64_t seed) {
  workload::CycleParams params;
  params.num_vars = 4;
  params.domain_size = 5;
  params.density = 0.7;
  params.seed = seed;
  auto schema = workload::GenerateCycle(params, db.catalog());
  EXPECT_TRUE(schema.ok()) << schema.status();
  EXPECT_TRUE(db.CreateMpfView(schema->view).ok());
  return *schema;
}

TEST(GibbsAnytimeTest, GibbsCancellationMidChainLeavesEstimateUntorn) {
  Database db;
  auto schema = MakeGovernedCycle(db, 51);
  MpfQuerySpec query{{schema.vars[0]}, {}};
  QueryContext ctx;
  GibbsOptions options;
  options.seed = 5;
  options.sweeps_per_round = 64;
  options.burn_in_sweeps = 0;
  auto est = GibbsEstimator::Create(schema.view, query, db.catalog(),
                                    options, &ctx);
  ASSERT_TRUE(est.ok()) << est.status();
  ASSERT_TRUE((*est)->RunRound().ok());
  const size_t rounds_before = (*est)->rounds();
  const uint64_t samples_before = (*est)->samples();
  auto published = (*est)->EstimateTable("snapshot");
  ASSERT_GT(published->NumRows(), 0u);

  ctx.RequestCancel();
  Status st = (*est)->RunRound();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  // The abandoned round must not tear or partially update anything the
  // caller can observe: same rounds, same samples, bit-identical estimate.
  EXPECT_EQ((*est)->rounds(), rounds_before);
  EXPECT_EQ((*est)->samples(), samples_before);
  EXPECT_TRUE(fr::TablesEqual(*published, *(*est)->EstimateTable("again"), 0));
}

TEST(GibbsAnytimeTest, GibbsExpiredDeadlineFailsRoundBeforeFirstPublish) {
  Database db;
  auto schema = MakeGovernedCycle(db, 52);
  MpfQuerySpec query{{schema.vars[0]}, {}};
  QueryContext ctx;
  GibbsOptions options;
  options.seed = 6;
  auto est = GibbsEstimator::Create(schema.view, query, db.catalog(),
                                    options, &ctx);
  ASSERT_TRUE(est.ok()) << est.status();
  ctx.set_deadline(std::chrono::steady_clock::now() -
                   std::chrono::milliseconds(1));
  Status st = (*est)->RunRound();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ((*est)->rounds(), 0u);
  EXPECT_EQ((*est)->samples(), 0u);
  EXPECT_EQ((*est)->EstimateTable("empty")->NumRows(), 0u);
}

TEST(GibbsAnytimeTest, GibbsDeadlineFailureIsStickyAcrossRounds) {
  // A doomed context stays doomed (QueryContext's sticky-poll contract), so
  // every later round fails immediately and the published state freezes at
  // its last good value — the caller's "best answer so far".
  Database db;
  auto schema = MakeGovernedCycle(db, 53);
  MpfQuerySpec query{{schema.vars[0]}, {}};
  QueryContext ctx;
  GibbsOptions options;
  options.seed = 7;
  options.burn_in_sweeps = 0;
  auto est = GibbsEstimator::Create(schema.view, query, db.catalog(),
                                    options, &ctx);
  ASSERT_TRUE(est.ok()) << est.status();
  ASSERT_TRUE((*est)->RunRound().ok());
  auto frozen = (*est)->EstimateTable("frozen");
  ctx.set_deadline(std::chrono::steady_clock::now() -
                   std::chrono::milliseconds(1));
  for (int attempt = 0; attempt < 3; ++attempt) {
    EXPECT_EQ((*est)->RunRound().code(), StatusCode::kDeadlineExceeded);
  }
  EXPECT_EQ((*est)->rounds(), 1u);
  EXPECT_TRUE(fr::TablesEqual(*frozen, *(*est)->EstimateTable("after"), 0));
}

TEST(GovernedApproxTest, ApproxCancelledQueryReturnsCancelled) {
  Database db;
  auto schema = MakeGovernedCycle(db, 54);
  MpfQuerySpec query{{schema.vars[0]}, {}};
  QueryContext ctx;
  ctx.RequestCancel();
  auto approx = db.QueryApprox(schema.view.name, query, ApproxOptions{},
                               "cs+nonlinear", &ctx);
  ASSERT_FALSE(approx.ok());
  // Cancellation is a caller decision, never silently degraded to bounds.
  EXPECT_EQ(approx.status().code(), StatusCode::kCancelled);
}

TEST(GovernedApproxTest, ApproxSamplingOnlyTightensDissociationBounds) {
  // The sampler's incumbent merges into the dissociation/conditioning
  // bounds: with sampling the interval must be nowhere wider than without.
  Database db;
  auto schema = MakeGovernedCycle(db, 55);
  MpfQuerySpec query{{schema.vars[0]}, {}};
  ApproxOptions bounds_only;
  bounds_only.eps = 0;
  bounds_only.sampling = false;
  auto plain = db.QueryApprox(schema.view.name, query, bounds_only);
  ASSERT_TRUE(plain.ok()) << plain.status();

  ApproxOptions sampled = bounds_only;
  sampled.sampling = true;
  sampled.seed = 13;
  sampled.max_rounds = 8;
  auto tightened = db.QueryApprox(schema.view.name, query, sampled);
  ASSERT_TRUE(tightened.ok()) << tightened.status();
  EXPECT_LE(tightened->max_gap, plain->max_gap + 1e-12);

  // Sampling may surface new groups; on every group both runs report, the
  // interval must only shrink.
  auto keyed = [](const Table& t) {
    std::map<std::vector<VarValue>, double> out;
    for (size_t i = 0; i < t.NumRows(); ++i) {
      RowView row = t.Row(i);
      out[std::vector<VarValue>(row.vars, row.vars + row.arity)] =
          row.measure;
    }
    return out;
  };
  auto plain_lower = keyed(*plain->lower);
  auto plain_upper = keyed(*plain->upper);
  for (const auto& [group, value] : keyed(*tightened->lower)) {
    auto it = plain_lower.find(group);
    if (it != plain_lower.end()) {
      EXPECT_GE(value, it->second) << "lower bound widened";
    }
  }
  for (const auto& [group, value] : keyed(*tightened->upper)) {
    auto it = plain_upper.find(group);
    if (it != plain_upper.end()) {
      EXPECT_LE(value, it->second) << "upper bound widened";
    }
  }
}

}  // namespace
}  // namespace mpfdb::exec
