// Randomized property tests over generated schemas: Belief Propagation must
// satisfy the Definition 5 invariant on random acyclic schemas, and the
// Junction Tree construction must always yield the running intersection
// property. (Answers of the optimizers, the engine and the VE-cache are the
// differential driver's, tests/differential_test.cc.) Parameterized over
// seeds so each seed is an independently reported test case. Every case
// re-seeds from MPFDB_TEST_SEED (see tests/random_view.h): the env var shifts
// all seeds for fresh CI sweeps, and each test prints its effective seed on
// failure.

#include <gtest/gtest.h>

#include "core/database.h"
#include "fr/algebra.h"
#include "graph/junction_tree.h"
#include "random_view.h"
#include "util/rng.h"
#include "workload/bp.h"

namespace mpfdb {
namespace {

class RandomSchemaTest : public ::testing::TestWithParam<uint64_t> {};

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
