// Randomized property tests over generated schemas: Belief Propagation must
// satisfy the Definition 5 invariant on random acyclic schemas, junction-tree
// BP (the VE-cache build) on random cyclic ones, with one or several
// var-disjoint components, and both the calibrated cache tree and the
// Junction Tree construction must have the running intersection property.
// (Answers of the optimizers, the engine and the VE-cache are the
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

// Junction-tree BP over `view`: the clique tree has the running
// intersection property, and every clique table satisfies Definition 5.
void ExpectJunctionTreeBpCalibrated(const MpfViewDef& view,
                                    const Catalog& catalog,
                                    const std::vector<TablePtr>& tables) {
  auto result = workload::JunctionTreeBp(view, catalog);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->tree.node_vars.size(), result->clique_tables.size());
  EXPECT_TRUE(graph::SatisfiesRunningIntersection(result->tree));
  for (const TablePtr& t : result->clique_tables) {
    for (const auto& var : t->schema().variables()) {
      auto truth =
          fr::EvaluateNaiveMpf(tables, {var}, {}, view.semiring, "truth");
      ASSERT_TRUE(truth.ok());
      auto marginal = fr::Marginalize(*t, {var}, view.semiring, "from_table");
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
  ExpectJunctionTreeBpCalibrated(rv.view, rv.catalog, rv.tables);

  // Two var-disjoint cycles in one view: the clique tree is a forest, and
  // each clique's marginal is scaled by the other cycle's total.
  Rng rng(seed);
  Catalog catalog;
  MpfViewDef view;
  view.name = "cycles";
  view.semiring = Semiring::SumProduct();
  std::vector<TablePtr> tables;
  for (const std::string prefix : {"a_", "b_"}) {
    workload::CycleParams params;
    params.num_vars = static_cast<int>(rng.UniformInt(3, 4));
    params.domain_size = rng.UniformInt(2, 3);
    params.density = 0.7;
    params.seed = static_cast<uint64_t>(rng.UniformInt(0, 1 << 30));
    auto cycle = workload::GenerateCycle(params, catalog, prefix);
    ASSERT_TRUE(cycle.ok()) << cycle.status();
    for (const auto& rel : cycle->view.relations) {
      view.relations.push_back(rel);
      tables.push_back(*catalog.GetTable(rel));
    }
  }
  std::vector<std::vector<std::string>> relation_vars;
  for (const TablePtr& t : tables) {
    relation_vars.push_back(t->schema().variables());
  }
  ASSERT_FALSE(graph::IsAcyclicSchema(relation_vars));
  ExpectJunctionTreeBpCalibrated(view, catalog, tables);
  auto result = workload::JunctionTreeBp(view, catalog);
  ASSERT_TRUE(result.ok()) << result.status();
  // A forest of at least two trees.
  EXPECT_LE(result->tree.edges.size() + 2, result->tree.node_vars.size());
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
