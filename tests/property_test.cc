// Randomized property tests over generated schemas: every optimizer must
// agree with naive evaluation on random views; Belief Propagation and
// VE-cache must satisfy the Definition 5 invariant on random acyclic
// schemas; the Junction Tree construction must always yield the running
// intersection property. Parameterized over seeds so each seed is an
// independently reported test case. Every case re-seeds from MPFDB_TEST_SEED
// (see tests/random_view.h): the env var shifts all seeds for fresh CI
// sweeps, and each test prints its effective seed on failure.

#include <cmath>

#include <gtest/gtest.h>

#include "core/database.h"
#include "exec/executor.h"
#include "fr/algebra.h"
#include "graph/junction_tree.h"
#include "random_view.h"
#include "util/rng.h"
#include "workload/bp.h"
#include "workload/vecache.h"

namespace mpfdb {
namespace {

class RandomSchemaTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomSchemaTest, AllOptimizersAgreeWithNaive) {
  const uint64_t seed = CaseSeed(GetParam());
  MPFDB_TRACE_SEED(seed);
  RandomView rv = MakeRandomView(seed, 6, 5, /*force_acyclic=*/false);
  SimpleCostModel cost_model;
  Rng rng(seed + 1000);

  // Three random queries per schema: random single query variable, random
  // optional selection on another variable.
  for (int q = 0; q < 3; ++q) {
    MpfQuerySpec query;
    query.group_vars = {Pick(rv.present_vars, rng)};
    if (rng.Bernoulli(0.5)) {
      std::string sel_var = Pick(rv.present_vars, rng);
      if (sel_var != query.group_vars[0]) {
        query.selections.push_back(QuerySelection{
            sel_var, static_cast<VarValue>(rng.UniformInt(
                         0, *rv.catalog.DomainSize(sel_var) - 1))});
      }
    }
    std::vector<fr::Selection> selections;
    for (const auto& s : query.selections) {
      selections.push_back({s.var, s.value});
    }
    auto expected = fr::EvaluateNaiveMpf(rv.tables, query.group_vars,
                                         selections, rv.view.semiring, "ref");
    ASSERT_TRUE(expected.ok()) << expected.status();

    for (const std::string spec :
         {"cs", "cs+", "cs+nonlinear", "ve(deg)", "ve(width)", "ve(elim_cost)",
          "ve(random)", "ve(min_fill)", "ve(deg) ext.", "ve(width) ext."}) {
      auto optimizer = MakeOptimizer(spec, seed);
      ASSERT_TRUE(optimizer.ok());
      auto plan =
          (*optimizer)->Optimize(rv.view, query, rv.catalog, cost_model);
      ASSERT_TRUE(plan.ok()) << spec << ": " << plan.status();
      exec::Executor executor(rv.catalog, rv.view.semiring);
      auto result = executor.Execute(**plan, "out");
      ASSERT_TRUE(result.ok()) << spec;
      EXPECT_TRUE(fr::TablesEqual(**expected, **result, 1e-7))
          << spec << " query " << q << "\n"
          << ExplainPlan(**plan);
    }
  }
}

// Packed keys are a representation choice, not a semantics choice: over
// random schemas, random optimizer plans, and four measure variants
// (counting, dyadic, probability, max-product), execution under the view's own
// catalog (packed keys) and under a 2^62-domain copy of it (vector keys)
// must agree bit for bit, and both must reproduce the fr oracle — exactly
// where the measures make every fold order exact (unit and power-of-two
// measures), to 1e-9 otherwise. (The name is kept so the suite's test ids
// stay stable; there is no second drive mode to compare against.)
TEST_P(RandomSchemaTest, VectorizedExecutionMatchesRowAtATime) {
  enum class Measures { kRandom, kUnit, kDyadic };
  struct Variant {
    const char* label;
    Semiring semiring;
    Measures measures;
  };
  const Variant variants[] = {
      {"counting", Semiring::SumProduct(), Measures::kUnit},
      {"dyadic", Semiring::SumProduct(), Measures::kDyadic},
      {"probability", Semiring::SumProduct(), Measures::kRandom},
      {"max_product", Semiring::MaxProduct(), Measures::kRandom},
  };
  const uint64_t seed = CaseSeed(GetParam());
  MPFDB_TRACE_SEED(seed);
  SimpleCostModel cost_model;
  Rng rng(seed + 9000);
  for (const Variant& variant : variants) {
    RandomView rv =
        MakeRandomView(seed + 2000, 6, 5, /*force_acyclic=*/false);
    rv.view.semiring = variant.semiring;
    for (const TablePtr& t : rv.tables) {
      for (size_t r = 0; r < t->NumRows(); ++r) {
        if (variant.measures == Measures::kUnit) {
          t->set_measure(r, 1.0);
        } else if (variant.measures == Measures::kDyadic) {
          // Powers of two in [1/4, 4]: products and sums stay exact.
          const int exponent = static_cast<int>(rng.UniformInt(-2, 2));
          t->set_measure(r, std::ldexp(1.0, exponent));
        }
      }
    }
    const Catalog wide = WideDomainCatalog(rv);
    const double oracle_tolerance =
        variant.measures == Measures::kRandom ? 1e-9 : 0.0;
    MpfQuerySpec query;
    query.group_vars = {Pick(rv.present_vars, rng)};
    if (rng.Bernoulli(0.5)) {
      std::string sel_var = Pick(rv.present_vars, rng);
      if (sel_var != query.group_vars[0]) {
        query.selections.push_back(QuerySelection{
            sel_var, static_cast<VarValue>(rng.UniformInt(
                         0, *rv.catalog.DomainSize(sel_var) - 1))});
      }
    }
    std::vector<fr::Selection> selections;
    for (const auto& s : query.selections) {
      selections.push_back({s.var, s.value});
    }
    auto oracle = fr::EvaluateNaiveMpf(rv.tables, query.group_vars, selections,
                                       rv.view.semiring, "oracle");
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    for (const std::string spec : {"cs+", "ve(width)", "ve(random)"}) {
      auto optimizer = MakeOptimizer(spec, seed);
      ASSERT_TRUE(optimizer.ok());
      auto plan =
          (*optimizer)->Optimize(rv.view, query, rv.catalog, cost_model);
      ASSERT_TRUE(plan.ok()) << spec << ": " << plan.status();
      const std::string where = std::string(variant.label) + "/" + spec;

      exec::Executor packed_exec(rv.catalog, rv.view.semiring);
      auto packed = packed_exec.Execute(**plan, "out");
      ASSERT_TRUE(packed.ok()) << where << ": " << packed.status();
      exec::Executor vector_exec(wide, rv.view.semiring);
      auto vector_keys = vector_exec.Execute(**plan, "out");
      ASSERT_TRUE(vector_keys.ok()) << where << ": " << vector_keys.status();
      EXPECT_TRUE(fr::TablesEqual(**packed, **vector_keys, /*tolerance=*/0.0))
          << where << "\n"
          << ExplainPlan(**plan);
      EXPECT_TRUE(fr::TablesEqual(**oracle, **packed, oracle_tolerance))
          << where << "\n"
          << ExplainPlan(**plan);
    }
  }
}

TEST_P(RandomSchemaTest, BpInvariantOnAcyclicSchemas) {
  const uint64_t seed = CaseSeed(GetParam());
  MPFDB_TRACE_SEED(seed);
  RandomView rv = MakeRandomView(seed, 6, 5, /*force_acyclic=*/true);
  auto updated = workload::BeliefPropagation(rv.tables, rv.view.semiring);
  ASSERT_TRUE(updated.ok()) << updated.status();
  for (const TablePtr& t : *updated) {
    for (const auto& var : t->schema().variables()) {
      auto truth = fr::EvaluateNaiveMpf(rv.tables, {var}, {},
                                        rv.view.semiring, "truth");
      ASSERT_TRUE(truth.ok());
      auto marginal =
          fr::Marginalize(*t, {var}, rv.view.semiring, "from_table");
      ASSERT_TRUE(marginal.ok());
      EXPECT_TRUE(fr::TablesEqual(**truth, **marginal, 1e-7))
          << t->name() << "/" << var;
    }
  }
}

TEST_P(RandomSchemaTest, JunctionTreeBpOnArbitrarySchemas) {
  const uint64_t seed = CaseSeed(GetParam());
  MPFDB_TRACE_SEED(seed);
  RandomView rv = MakeRandomView(seed, 5, 5, /*force_acyclic=*/false);
  auto result =
      workload::JunctionTreeBp(rv.tables, rv.view.semiring, rv.catalog);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(graph::SatisfiesRunningIntersection(result->junction_tree.tree));
  for (const TablePtr& t : result->clique_tables) {
    for (const auto& var : t->schema().variables()) {
      auto truth = fr::EvaluateNaiveMpf(rv.tables, {var}, {},
                                        rv.view.semiring, "truth");
      ASSERT_TRUE(truth.ok());
      auto marginal =
          fr::Marginalize(*t, {var}, rv.view.semiring, "from_table");
      ASSERT_TRUE(marginal.ok());
      EXPECT_TRUE(fr::TablesEqual(**truth, **marginal, 1e-7))
          << t->name() << "/" << var;
    }
  }
}

TEST_P(RandomSchemaTest, VeCacheInvariant) {
  const uint64_t seed = CaseSeed(GetParam());
  MPFDB_TRACE_SEED(seed);
  RandomView rv = MakeRandomView(seed, 6, 5, /*force_acyclic=*/false);
  auto cache = workload::VeCache::Build(rv.view, rv.catalog);
  ASSERT_TRUE(cache.ok()) << cache.status();
  for (const auto& var : rv.vars) {
    // Only variables that actually occur in the view can be queried.
    bool present = false;
    for (const TablePtr& t : rv.tables) {
      if (t->schema().HasVariable(var)) present = true;
    }
    if (!present) continue;
    auto truth =
        fr::EvaluateNaiveMpf(rv.tables, {var}, {}, rv.view.semiring, "truth");
    ASSERT_TRUE(truth.ok());
    auto answer = cache->Answer(MpfQuerySpec{{var}, {}});
    ASSERT_TRUE(answer.ok()) << answer.status();
    EXPECT_TRUE(fr::TablesEqual(**truth, **answer, 1e-7)) << var;
  }
  // A random variable pair, exercising the cross-clique combination (the
  // pair may even span var-disjoint components).
  Rng rng(seed + 5000);
  if (rv.present_vars.size() >= 2) {
    std::string a = Pick(rv.present_vars, rng);
    std::string b = Pick(rv.present_vars, rng);
    if (a != b) {
      auto truth = fr::EvaluateNaiveMpf(rv.tables, {a, b}, {},
                                        rv.view.semiring, "truth");
      ASSERT_TRUE(truth.ok());
      auto answer = cache->Answer(MpfQuerySpec{{a, b}, {}});
      ASSERT_TRUE(answer.ok()) << answer.status();
      EXPECT_TRUE(fr::TablesEqual(**truth, **answer, 1e-7)) << a << "," << b;
    }
  }
}

TEST_P(RandomSchemaTest, JunctionTreeAlwaysHasRip) {
  const uint64_t seed = CaseSeed(GetParam());
  MPFDB_TRACE_SEED(seed);
  Rng rng(seed);
  // Random hypergraph: 6 variables, 6 relations of scope 1-3.
  std::vector<std::vector<std::string>> relation_vars;
  for (int r = 0; r < 6; ++r) {
    std::set<std::string> scope;
    int size = static_cast<int>(rng.UniformInt(1, 3));
    for (int s = 0; s < size; ++s) {
      scope.insert("v" + std::to_string(rng.UniformInt(0, 5)));
    }
    relation_vars.emplace_back(scope.begin(), scope.end());
  }
  auto jt = graph::BuildJunctionTree(relation_vars);
  ASSERT_TRUE(jt.ok()) << jt.status();
  EXPECT_TRUE(graph::SatisfiesRunningIntersection(jt->tree));
  for (size_t r = 0; r < relation_vars.size(); ++r) {
    EXPECT_TRUE(varset::IsSubset(relation_vars[r],
                                 jt->tree.node_vars[jt->assignment[r]]));
  }
  // The triangulated graph is chordal.
  graph::VariableGraph g = graph::VariableGraph::FromSchema(relation_vars);
  auto chordal = g.Triangulate(jt->elimination_order);
  ASSERT_TRUE(chordal.ok());
  EXPECT_TRUE(chordal->IsChordal());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSchemaTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace mpfdb
