// Approximate & anytime inference: dissociation bounds, the conditioned
// companion query, the Gibbs sampling backend, and Database::QueryApprox's
// anytime contract. The bracketing property — lower <= exact <= upper for
// every group — is the differential driver's (tests/differential_test.cc),
// across semirings, seeds, cycles and grids; every sampled
// estimate must be bit-reproducible from its seed (the nightly
// determinism-audit CI leg replays these suites byte-for-byte).

#include <chrono>
#include <cmath>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "exec/gibbs.h"
#include "fr/algebra.h"
#include "opt/dissociate.h"
#include "util/query_context.h"
#include "workload/generators.h"

namespace mpfdb {
namespace {

// Rows of a result-style table keyed by their variable values.
std::map<std::vector<VarValue>, double> RowsOf(const Table& table) {
  std::map<std::vector<VarValue>, double> out;
  for (size_t i = 0; i < table.NumRows(); ++i) {
    RowView row = table.Row(i);
    out[std::vector<VarValue>(row.vars, row.vars + row.arity)] = row.measure;
  }
  return out;
}

// lower <= value <= upper with relative float slack (the bound queries fold
// in a different order than the exact one).
void ExpectBracketed(double lower, double value, double upper) {
  double slack =
      1e-9 * std::max({1.0, std::fabs(lower), std::fabs(value),
                       std::fabs(upper)});
  EXPECT_LE(lower, value + slack);
  EXPECT_LE(value, upper + slack);
}

// A small cyclic workload under `semiring`, hosted in a Database.
struct CycleFixture {
  Database db;
  workload::CycleSchema schema;
};

void MakeCycleFixture(uint64_t seed, const Semiring& semiring,
                      CycleFixture* fx) {
  workload::CycleParams params;
  params.num_vars = 4;
  params.domain_size = 6;
  params.density = 0.6;
  params.seed = seed;
  auto schema = workload::GenerateCycle(params, fx->db.catalog());
  ASSERT_TRUE(schema.ok()) << schema.status();
  fx->schema = *schema;
  fx->schema.view.semiring = semiring;
  ASSERT_TRUE(fx->db.CreateMpfView(fx->schema.view).ok());
}

// --- dissociation pass ----------------------------------------------------

TEST(DissociateTest, DissocSplitsCyclicCoreAndSparesProtectedVars) {
  CycleFixture fx;
  MakeCycleFixture(101, Semiring::SumProduct(), &fx);
  MpfQuerySpec query{{fx.schema.vars[0]}, {}};
  auto split = opt::ChooseSplitVars(fx.schema.view, query, fx.db.catalog());
  ASSERT_TRUE(split.ok()) << split.status();
  EXPECT_FALSE(split->empty());
  for (const auto& v : *split) EXPECT_NE(v, fx.schema.vars[0]);

  // Re-running the GYO simulation to a fixpoint means DissociateView's
  // rewritten hypergraph is acyclic: the FAQ planner should agree by
  // finding no multiway core (indirectly: the rewrite itself succeeds and
  // registers one copy per occurrence).
  auto dissoc = opt::DissociateView(fx.schema.view, query, fx.db.catalog(),
                                    *split);
  ASSERT_TRUE(dissoc.ok()) << dissoc.status();
  EXPECT_FALSE(dissoc->copy_vars.empty());
  for (const auto& copy : dissoc->copy_vars) {
    auto domain = dissoc->catalog.DomainSize(copy);
    ASSERT_TRUE(domain.ok());
    EXPECT_EQ(*domain, 6);
  }
  // Clones share row data and the view references them.
  EXPECT_NE(dissoc->view.name, fx.schema.view.name);
}

TEST(DissociateTest, DissocRejectsGroupVariableSplit) {
  CycleFixture fx;
  MakeCycleFixture(102, Semiring::SumProduct(), &fx);
  MpfQuerySpec query{{fx.schema.vars[0]}, {}};
  auto dissoc = opt::DissociateView(fx.schema.view, query, fx.db.catalog(),
                                    {fx.schema.vars[0]});
  ASSERT_FALSE(dissoc.ok());
  EXPECT_EQ(dissoc.status().code(), StatusCode::kInvalidArgument);
}

TEST(DissociateTest, DissocAcyclicViewNeedsNoSplit) {
  Database db;
  auto chain = workload::GenerateMatrixChain(workload::MatrixChainParams{},
                                             db.catalog());
  ASSERT_TRUE(chain.ok()) << chain.status();
  MpfQuerySpec query{{chain->vars.front(), chain->vars.back()}, {}};
  auto split = opt::ChooseSplitVars(chain->view, query, db.catalog());
  ASSERT_TRUE(split.ok()) << split.status();
  EXPECT_TRUE(split->empty());
}

TEST(DissociateTest, DissocBoundSideFollowsAddMonotonicity) {
  EXPECT_EQ(opt::DissociatedBoundSide(Semiring::SumProduct()),
            opt::BoundSide::kUpper);
  EXPECT_EQ(opt::DissociatedBoundSide(Semiring::MaxSum()),
            opt::BoundSide::kUpper);
  EXPECT_EQ(opt::DissociatedBoundSide(Semiring::MaxProduct()),
            opt::BoundSide::kUpper);
  EXPECT_EQ(opt::DissociatedBoundSide(Semiring::BoolOrAnd()),
            opt::BoundSide::kUpper);
  EXPECT_EQ(opt::DissociatedBoundSide(Semiring::MinSum()),
            opt::BoundSide::kLower);
}

TEST(DissociateTest, DissocNegativeMeasureRejectedUnderSumProduct) {
  Database db;
  ASSERT_TRUE(db.catalog().RegisterVariable("a", 2).ok());
  ASSERT_TRUE(db.catalog().RegisterVariable("b", 2).ok());
  ASSERT_TRUE(db.catalog().RegisterVariable("c", 2).ok());
  struct Rel {
    std::string name, x, y;
  };
  for (const Rel& rel :
       {Rel{"t0", "a", "b"}, Rel{"t1", "b", "c"}, Rel{"t2", "c", "a"}}) {
    auto t =
        std::make_shared<Table>(rel.name, Schema({rel.x, rel.y}, "f"));
    for (VarValue i = 0; i < 2; ++i) {
      for (VarValue j = 0; j < 2; ++j) t->AppendRow({i, j}, 1.0);
    }
    ASSERT_TRUE(db.catalog().RegisterTable(t).ok());
  }
  // Poison one row of one relation.
  (*db.catalog().GetTable("t1"))->set_measure(0, -0.5);
  MpfViewDef view{"neg", {"t0", "t1", "t2"}, Semiring::SumProduct()};
  ASSERT_TRUE(db.CreateMpfView(view).ok());
  MpfQuerySpec query{{"a"}, {}};
  auto split = opt::ChooseSplitVars(view, query, db.catalog());
  ASSERT_TRUE(split.ok() && !split->empty());
  auto dissoc = opt::DissociateView(view, query, db.catalog(), *split);
  ASSERT_FALSE(dissoc.ok());
  EXPECT_EQ(dissoc.status().code(), StatusCode::kFailedPrecondition);

  auto approx = db.QueryApprox("neg", query);
  ASSERT_FALSE(approx.ok());
  EXPECT_EQ(approx.status().code(), StatusCode::kFailedPrecondition);
}

// --- QueryApprox contract -------------------------------------------------

TEST(ApproxQueryTest, ApproxAcyclicViewAnswersExactly) {
  Database db;
  auto chain = workload::GenerateMatrixChain(workload::MatrixChainParams{},
                                             db.catalog());
  ASSERT_TRUE(chain.ok()) << chain.status();
  ASSERT_TRUE(db.CreateMpfView(chain->view).ok());
  MpfQuerySpec query{{chain->vars.front(), chain->vars.back()}, {}};

  auto exact = db.Query(chain->view.name, query);
  ASSERT_TRUE(exact.ok()) << exact.status();
  auto approx = db.QueryApprox(chain->view.name, query);
  ASSERT_TRUE(approx.ok()) << approx.status();
  EXPECT_FALSE(approx->approximate);
  EXPECT_TRUE(approx->converged);
  EXPECT_TRUE(approx->split_vars.empty());
  EXPECT_EQ(approx->max_gap, 0.0);
  EXPECT_TRUE(fr::TablesEqual(*exact->table, *approx->estimate, 1e-12));
  EXPECT_TRUE(fr::TablesEqual(*exact->table, *approx->lower, 1e-12));
  EXPECT_TRUE(fr::TablesEqual(*exact->table, *approx->upper, 1e-12));
}

TEST(ApproxQueryTest, ApproxBoundsOnlyWhenSamplingDisabled) {
  CycleFixture fx;
  MakeCycleFixture(7, Semiring::SumProduct(), &fx);
  MpfQuerySpec query{{fx.schema.vars[0]}, {}};
  ApproxOptions options;
  options.eps = 0;  // unreachable: forces the sampling decision
  options.sampling = false;
  auto approx = fx.db.QueryApprox(fx.schema.view.name, query, options);
  ASSERT_TRUE(approx.ok()) << approx.status();
  EXPECT_TRUE(approx->approximate);
  EXPECT_EQ(approx->gibbs_rounds, 0u);
  EXPECT_EQ(approx->samples, 0u);
  ASSERT_NE(approx->estimate, nullptr);
}

TEST(ApproxQueryTest, GibbsSameSeedIsBitIdentical) {
  ApproxOptions options;
  options.eps = 1e-6;
  options.seed = 42;
  options.max_rounds = 6;
  std::vector<std::map<std::vector<VarValue>, double>> estimates;
  std::vector<uint64_t> samples;
  for (int run = 0; run < 2; ++run) {
    CycleFixture fx;
    MakeCycleFixture(11, Semiring::SumProduct(), &fx);
    MpfQuerySpec query{{fx.schema.vars[0]}, {}};
    auto approx = fx.db.QueryApprox(fx.schema.view.name, query, options);
    ASSERT_TRUE(approx.ok()) << approx.status();
    estimates.push_back(RowsOf(*approx->estimate));
    samples.push_back(approx->samples);
  }
  EXPECT_EQ(samples[0], samples[1]);
  ASSERT_EQ(estimates[0].size(), estimates[1].size());
  auto b = estimates[1].begin();
  for (const auto& [group, value] : estimates[0]) {
    EXPECT_EQ(group, b->first);
    // Bit-for-bit, not approximately: the determinism audit diffs hex
    // renderings of exactly these values.
    EXPECT_EQ(value, b->second);
    ++b;
  }
}

TEST(ApproxQueryTest, GibbsSeedZeroUsesExecOptionsSamplingSeed) {
  ApproxOptions explicit_seed;
  explicit_seed.eps = 1e-6;
  explicit_seed.seed = 77;
  explicit_seed.max_rounds = 4;
  ApproxOptions deferred = explicit_seed;
  deferred.seed = 0;

  std::map<std::vector<VarValue>, double> via_explicit, via_exec_options;
  {
    CycleFixture fx;
    MakeCycleFixture(12, Semiring::SumProduct(), &fx);
    MpfQuerySpec query{{fx.schema.vars[0]}, {}};
    auto approx =
        fx.db.QueryApprox(fx.schema.view.name, query, explicit_seed);
    ASSERT_TRUE(approx.ok()) << approx.status();
    via_explicit = RowsOf(*approx->estimate);
  }
  {
    CycleFixture fx;
    MakeCycleFixture(12, Semiring::SumProduct(), &fx);
    exec::ExecOptions eo;
    eo.sampling_seed = 77;
    fx.db.set_exec_options(eo);
    MpfQuerySpec query{{fx.schema.vars[0]}, {}};
    auto approx = fx.db.QueryApprox(fx.schema.view.name, query, deferred);
    ASSERT_TRUE(approx.ok()) << approx.status();
    via_exec_options = RowsOf(*approx->estimate);
  }
  EXPECT_EQ(via_explicit, via_exec_options);
}

TEST(ApproxQueryTest, GibbsEstimateConvergesToNormalizedExact) {
  // A dense 3-cycle with a tiny domain mixes fast; at a fixed seed the
  // visit-frequency estimate of the normalized marginal must land within
  // eps of the exact normalized answer.
  Database db;
  workload::CycleParams params;
  params.num_vars = 3;
  params.domain_size = 3;
  params.density = 1.0;
  params.seed = 31;
  auto schema = workload::GenerateCycle(params, db.catalog());
  ASSERT_TRUE(schema.ok()) << schema.status();
  ASSERT_TRUE(db.CreateMpfView(schema->view).ok());
  MpfQuerySpec query{{schema->vars[0]}, {}};

  auto exact = db.Query(schema->view.name, query);
  ASSERT_TRUE(exact.ok()) << exact.status();
  double total = 0;
  for (size_t i = 0; i < exact->table->NumRows(); ++i) {
    total += exact->table->Row(i).measure;
  }
  ASSERT_GT(total, 0);

  ApproxOptions options;
  options.eps = 1e-4;
  options.seed = 9;
  options.max_rounds = 200;
  options.sweeps_per_round = 200;
  auto approx = db.QueryApprox(schema->view.name, query, options);
  ASSERT_TRUE(approx.ok()) << approx.status();
  ASSERT_GT(approx->gibbs_rounds, 0u);
  auto estimate = RowsOf(*approx->estimate);
  const double eps = 0.05;
  for (size_t i = 0; i < exact->table->NumRows(); ++i) {
    RowView row = exact->table->Row(i);
    std::vector<VarValue> key(row.vars, row.vars + row.arity);
    double normalized = row.measure / total;
    auto it = estimate.find(key);
    if (it == estimate.end()) {
      // A never-visited group must be negligible.
      EXPECT_LT(normalized, eps);
      continue;
    }
    EXPECT_NEAR(it->second, normalized, eps)
        << "group " << key[0] << " diverged";
  }
}

TEST(ApproxQueryTest, ApproxDeadlineMidSamplingDegradesToBestSoFar) {
  CycleFixture fx;
  MakeCycleFixture(21, Semiring::SumProduct(), &fx);
  MpfQuerySpec query{{fx.schema.vars[0]}, {}};

  auto exact = fx.db.Query(fx.schema.view.name, query);
  ASSERT_TRUE(exact.ok()) << exact.status();

  // eps < 0 can never be met by gap or round delta, and the round budget is
  // effectively infinite — only the deadline can stop this query. The
  // bounds themselves complete in microseconds on this workload, so the
  // deadline must land mid-sampling.
  ApproxOptions options;
  options.eps = -1.0;
  options.seed = 3;
  options.max_rounds = size_t{1} << 40;
  QueryContext ctx;
  ctx.set_deadline_after(std::chrono::milliseconds(200));
  auto approx = fx.db.QueryApprox(fx.schema.view.name, query, options,
                                  "cs+nonlinear", &ctx);
  ASSERT_TRUE(approx.ok()) << approx.status();
  EXPECT_TRUE(approx->deadline_hit);
  EXPECT_TRUE(approx->approximate);
  EXPECT_FALSE(approx->converged);

  // The degraded answer still carries valid bounds around the exact one.
  auto lower = RowsOf(*approx->lower);
  auto upper = RowsOf(*approx->upper);
  for (size_t i = 0; i < exact->table->NumRows(); ++i) {
    RowView row = exact->table->Row(i);
    std::vector<VarValue> key(row.vars, row.vars + row.arity);
    ASSERT_TRUE(lower.count(key) && upper.count(key));
    ExpectBracketed(lower[key], row.measure, upper[key]);
  }
}

TEST(ApproxQueryTest, ApproxExplainAnalyzeReportsGapAndSamples) {
  CycleFixture fx;
  MakeCycleFixture(23, Semiring::SumProduct(), &fx);
  MpfQuerySpec query{{fx.schema.vars[0]}, {}};
  ApproxOptions options;
  options.eps = 1e-6;
  options.seed = 2;
  options.max_rounds = 3;
  auto text =
      fx.db.ExplainAnalyzeApprox(fx.schema.view.name, query, options);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("-- split vars: ("), std::string::npos) << *text;
  EXPECT_NE(text->find("-- bound gap: max "), std::string::npos) << *text;
  EXPECT_NE(text->find("samples/sec="), std::string::npos) << *text;
  EXPECT_NE(text->find("-- lower bound ("), std::string::npos) << *text;
  EXPECT_NE(text->find("-- upper bound ("), std::string::npos) << *text;
}

TEST(ApproxQueryTest, ApproxUnknownViewIsNotFound) {
  Database db;
  auto approx = db.QueryApprox("nope", MpfQuerySpec{{}, {}});
  ASSERT_FALSE(approx.ok());
  EXPECT_EQ(approx.status().code(), StatusCode::kNotFound);
}

// --- GibbsEstimator unit behavior -----------------------------------------

TEST(GibbsEstimatorTest, GibbsPublishesOnlyAtRoundBoundaries) {
  CycleFixture fx;
  MakeCycleFixture(33, Semiring::MaxProduct(), &fx);
  MpfQuerySpec query{{fx.schema.vars[0]}, {}};
  exec::GibbsOptions options;
  options.seed = 4;
  options.sweeps_per_round = 32;
  options.burn_in_sweeps = 8;
  auto est = exec::GibbsEstimator::Create(fx.schema.view, query,
                                          fx.db.catalog(), options);
  ASSERT_TRUE(est.ok()) << est.status();
  EXPECT_EQ((*est)->rounds(), 0u);
  EXPECT_EQ((*est)->EstimateTable("e")->NumRows(), 0u);
  ASSERT_TRUE((*est)->RunRound().ok());
  EXPECT_EQ((*est)->rounds(), 1u);
  EXPECT_GT((*est)->samples(), 0u);
  EXPECT_GT((*est)->EstimateTable("e")->NumRows(), 0u);
}

TEST(GibbsEstimatorTest, GibbsIncumbentBoundsExactSelection) {
  // Under max_product the incumbent is a lower bound on the exact max and
  // only tightens; with enough sweeps on a dense tiny workload it reaches
  // the exact answer.
  Database db;
  workload::CycleParams params;
  params.num_vars = 3;
  params.domain_size = 3;
  params.density = 1.0;
  params.seed = 35;
  auto schema = workload::GenerateCycle(params, db.catalog());
  ASSERT_TRUE(schema.ok()) << schema.status();
  schema->view.semiring = Semiring::MaxProduct();
  ASSERT_TRUE(db.CreateMpfView(schema->view).ok());
  MpfQuerySpec query{{schema->vars[0]}, {}};
  auto exact = db.Query(schema->view.name, query);
  ASSERT_TRUE(exact.ok()) << exact.status();
  auto exact_rows = RowsOf(*exact->table);

  exec::GibbsOptions options;
  options.seed = 6;
  options.sweeps_per_round = 64;
  options.burn_in_sweeps = 0;
  auto est = exec::GibbsEstimator::Create(schema->view, query, db.catalog(),
                                          options);
  ASSERT_TRUE(est.ok()) << est.status();
  EXPECT_TRUE((*est)->IncumbentIsLowerBound());
  std::map<std::vector<VarValue>, double> prev;
  for (int round = 0; round < 6; ++round) {
    ASSERT_TRUE((*est)->RunRound().ok());
    auto incumbent = RowsOf(*(*est)->IncumbentTable("inc"));
    for (const auto& [group, value] : incumbent) {
      auto e = exact_rows.find(group);
      ASSERT_TRUE(e != exact_rows.end());
      EXPECT_LE(value, e->second + 1e-9);
      auto p = prev.find(group);
      if (p != prev.end()) {
        EXPECT_GE(value, p->second) << "incumbent widened";
      }
    }
    prev = std::move(incumbent);
  }
}

TEST(GibbsEstimatorTest, GibbsSumIncumbentDedupsRevisitedStates) {
  // The sum-product incumbent folds each distinct assignment once; over a
  // long chain on a tiny state space it must stay a lower bound on the
  // exact total rather than growing with revisits.
  Database db;
  workload::CycleParams params;
  params.num_vars = 3;
  params.domain_size = 2;
  params.density = 1.0;
  params.seed = 36;
  auto schema = workload::GenerateCycle(params, db.catalog());
  ASSERT_TRUE(schema.ok()) << schema.status();
  ASSERT_TRUE(db.CreateMpfView(schema->view).ok());
  MpfQuerySpec query{{schema->vars[0]}, {}};
  auto exact = db.Query(schema->view.name, query);
  ASSERT_TRUE(exact.ok()) << exact.status();
  auto exact_rows = RowsOf(*exact->table);

  exec::GibbsOptions options;
  options.seed = 8;
  options.sweeps_per_round = 512;  // revisits every state many times over
  options.burn_in_sweeps = 0;
  auto est = exec::GibbsEstimator::Create(schema->view, query, db.catalog(),
                                          options);
  ASSERT_TRUE(est.ok()) << est.status();
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE((*est)->RunRound().ok());
  }
  auto incumbent = RowsOf(*(*est)->IncumbentTable("inc"));
  EXPECT_FALSE(incumbent.empty());
  for (const auto& [group, value] : incumbent) {
    auto e = exact_rows.find(group);
    ASSERT_TRUE(e != exact_rows.end());
    EXPECT_LE(value, e->second + 1e-9 * std::fabs(e->second));
  }
}

}  // namespace
}  // namespace mpfdb
