#include <algorithm>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "fr/algebra.h"
#include "graph/junction_tree.h"
#include "random_view.h"
#include "workload/bp.h"
#include "workload/generators.h"
#include "workload/vecache.h"

namespace mpfdb::workload {
namespace {

// Small supply chain used throughout.
class WorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SupplyChainParams params;
    params.scale = 0.004;  // pid=400, sid=40, wid=20, cid=4, tid=2
    params.seed = 99;
    auto schema = GenerateSupplyChain(params, catalog_);
    ASSERT_TRUE(schema.ok()) << schema.status();
    schema_ = *schema;
    for (const auto& rel : schema_.view.relations) {
      tables_.push_back(*catalog_.GetTable(rel));
    }
  }

  // Ground-truth marginal of the full view onto `vars` (with selections).
  TablePtr Truth(const std::vector<std::string>& vars,
                 const std::vector<fr::Selection>& selections = {}) {
    auto result = fr::EvaluateNaiveMpf(tables_, vars, selections,
                                       schema_.view.semiring, "truth");
    EXPECT_TRUE(result.ok()) << result.status();
    return *result;
  }

  Catalog catalog_;
  SupplyChainSchema schema_;
  std::vector<TablePtr> tables_;
};

TEST_F(WorkloadTest, BpEstablishesCorrectnessInvariant) {
  auto updated = BeliefPropagation(tables_, schema_.view.semiring);
  ASSERT_TRUE(updated.ok()) << updated.status();
  ASSERT_EQ(updated->size(), tables_.size());
  // Definition 5: marginalizing any updated table onto any of its variables
  // must equal the view-level marginal.
  for (const TablePtr& t : *updated) {
    for (const auto& var : t->schema().variables()) {
      auto from_table =
          fr::Marginalize(*t, {var}, schema_.view.semiring, "from_table");
      ASSERT_TRUE(from_table.ok());
      EXPECT_TRUE(fr::TablesEqual(*Truth({var}), **from_table, 1e-6))
          << "table " << t->name() << " variable " << var;
    }
  }
}

TEST_F(WorkloadTest, BpDoesNotModifyInputs) {
  size_t rows_before = tables_[0]->NumRows();
  double measure_before = tables_[0]->measure(0);
  auto updated = BeliefPropagation(tables_, schema_.view.semiring);
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(tables_[0]->NumRows(), rows_before);
  EXPECT_EQ(tables_[0]->measure(0), measure_before);
}

TEST_F(WorkloadTest, BpRejectsCyclicSchema) {
  auto view = AddStdeals(schema_, catalog_, 1.0);
  ASSERT_TRUE(view.ok()) << view.status();
  std::vector<TablePtr> cyclic = tables_;
  cyclic.push_back(*catalog_.GetTable("stdeals"));
  auto updated = BeliefPropagation(cyclic, schema_.view.semiring);
  EXPECT_EQ(updated.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(WorkloadTest, BpRejectsBooleanSemiring) {
  auto updated = BeliefPropagation(tables_, Semiring::BoolOrAnd());
  EXPECT_EQ(updated.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(WorkloadTest, JunctionTreeBpHandlesCyclicSchema) {
  auto view = AddStdeals(schema_, catalog_, 1.0);
  ASSERT_TRUE(view.ok()) << view.status();
  std::vector<TablePtr> cyclic = tables_;
  cyclic.push_back(*catalog_.GetTable("stdeals"));

  auto result = JunctionTreeBp(*view, catalog_);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(graph::SatisfiesRunningIntersection(result->tree));
  ASSERT_EQ(result->tree.node_vars.size(), result->clique_tables.size());

  // Ground truth over the extended view.
  auto truth = [&](const std::string& var) {
    auto r = fr::EvaluateNaiveMpf(cyclic, {var}, {}, schema_.view.semiring,
                                  "truth");
    EXPECT_TRUE(r.ok()) << r.status();
    return *r;
  };
  for (const TablePtr& t : result->clique_tables) {
    for (const auto& var : t->schema().variables()) {
      auto from_table =
          fr::Marginalize(*t, {var}, schema_.view.semiring, "from_table");
      ASSERT_TRUE(from_table.ok());
      EXPECT_TRUE(fr::TablesEqual(*truth(var), **from_table, 1e-6))
          << "clique " << t->name() << " variable " << var;
    }
  }
}

TEST_F(WorkloadTest, VeCacheSatisfiesInvariant) {
  auto cache = VeCache::Build(schema_.view, catalog_);
  ASSERT_TRUE(cache.ok()) << cache.status();
  EXPECT_FALSE(cache->caches().empty());
  EXPECT_EQ(cache->elimination_order().size(), 5u);

  // Theorem 4: answering any single-variable query from the cache equals
  // evaluating against the view.
  for (const auto& var : {"pid", "sid", "wid", "cid", "tid"}) {
    MpfQuerySpec query{{var}, {}};
    auto answer = cache->Answer(query);
    ASSERT_TRUE(answer.ok()) << answer.status();
    EXPECT_TRUE(fr::TablesEqual(*Truth({var}), **answer, 1e-6)) << var;
  }
}

TEST_F(WorkloadTest, VeCacheWidthHeuristic) {
  VeCacheOptions options;
  options.use_width_heuristic = true;
  auto cache = VeCache::Build(schema_.view, catalog_, options);
  ASSERT_TRUE(cache.ok()) << cache.status();
  for (const auto& var : {"wid", "tid"}) {
    MpfQuerySpec query{{var}, {}};
    auto answer = cache->Answer(query);
    ASSERT_TRUE(answer.ok()) << answer.status();
    EXPECT_TRUE(fr::TablesEqual(*Truth({var}), **answer, 1e-6)) << var;
  }
}

TEST_F(WorkloadTest, VeCacheUnknownVariableRejected) {
  auto cache = VeCache::Build(schema_.view, catalog_);
  ASSERT_TRUE(cache.ok());
  EXPECT_EQ(cache->Answer(MpfQuerySpec{{"nope"}, {}}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(cache->WithSelection("nope", 0).status().code(),
            StatusCode::kNotFound);
}

TEST_F(WorkloadTest, VeCacheRejectsBooleanSemiring) {
  MpfViewDef view = schema_.view;
  view.semiring = Semiring::BoolOrAnd();
  EXPECT_EQ(VeCache::Build(view, catalog_).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(WorkloadTest, VeCacheTotalRowsPositive) {
  auto cache = VeCache::Build(schema_.view, catalog_);
  ASSERT_TRUE(cache.ok());
  EXPECT_GT(cache->TotalCacheRows(), 0);
}

// A var-disjoint component whose join is empty (here: emptied by its own
// rows, or by a selection) empties the whole view, so every answer is empty
// instead of rows scaled by a zero total.
TEST(VeCacheEmptyComponentTest, EmptyComponentEmptiesEveryAnswer) {
  Catalog catalog;
  for (const char* var : {"a", "b"}) {
    ASSERT_TRUE(catalog.RegisterVariable(var, 3).ok());
  }
  auto table = [&](const std::string& name, const std::string& var,
                   VarValue value) {
    auto t = std::make_shared<Table>(name, Schema({var}, "f"));
    t->AppendRow({value}, 2.0);
    EXPECT_TRUE(catalog.RegisterTable(t).ok());
    return t;
  };
  std::vector<TablePtr> tables = {table("r", "a", 2), table("s", "b", 1),
                                  table("t", "a", 1)};
  MpfViewDef view{"v", {"r", "s", "t"}, Semiring::SumProduct()};
  auto cache = VeCache::Build(view, catalog);
  ASSERT_TRUE(cache.ok()) << cache.status();
  auto answer = cache->Answer(MpfQuerySpec{{"b"}, {}});
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ((*answer)->NumRows(), 0u) << (*answer)->ToString();

  view.relations = {"r", "s"};
  cache = VeCache::Build(view, catalog);
  ASSERT_TRUE(cache.ok()) << cache.status();
  answer = cache->Answer(MpfQuerySpec{{"a"}, {{"b", 0}}});
  ASSERT_TRUE(answer.ok()) << answer.status();
  auto truth = fr::EvaluateNaiveMpf({tables[0], tables[1]}, {"a"}, {{"b", 0}},
                                    view.semiring, "truth");
  ASSERT_TRUE(truth.ok()) << truth.status();
  EXPECT_TRUE(fr::TablesEqual(**truth, **answer, 0.0)) << (*answer)->ToString();
}

// VeCache::Build spelled out over the fr:: reference operators: the same
// elimination choices (degree or width score, the earliest candidate on a
// tie), each clique's join folded left to right, its message, and the
// backward update semijoins in reverse edge order.
struct ReferenceCache {
  std::vector<TablePtr> caches;
  std::vector<std::pair<size_t, size_t>> edges;
  std::vector<std::string> order;
};

ReferenceCache ReferenceBuild(const MpfViewDef& view, const Catalog& catalog,
                              bool width) {
  struct Factor {
    TablePtr table;
    int origin;  // producing cache, -1 for a base relation
  };
  std::vector<Factor> factors;
  std::vector<std::string> to_eliminate;
  for (const auto& rel : view.relations) {
    TablePtr table = *catalog.GetTable(rel);
    factors.push_back({table, -1});
    to_eliminate = varset::Union(to_eliminate, table->schema().variables());
  }
  ReferenceCache ref;
  const Semiring& semiring = view.semiring;
  while (!to_eliminate.empty()) {
    size_t pick = 0;
    double best = std::numeric_limits<double>::infinity();
    std::vector<size_t> clique;
    for (size_t c = 0; c < to_eliminate.size(); ++c) {
      std::vector<size_t> members;
      std::vector<std::string> vars;
      for (size_t f = 0; f < factors.size(); ++f) {
        if (factors[f].table->schema().HasVariable(to_eliminate[c])) {
          members.push_back(f);
          vars = varset::Union(vars, factors[f].table->schema().variables());
        }
      }
      if (members.empty()) continue;
      if (!width) vars = varset::Difference(vars, {to_eliminate[c]});
      double score = 1.0;
      for (const auto& v : vars) {
        score *= static_cast<double>(*catalog.DomainSize(v));
      }
      if (score < best) {
        best = score;
        pick = c;
        clique = members;
      }
    }
    if (clique.empty()) {
      to_eliminate.erase(to_eliminate.begin() + pick);
      continue;
    }
    const std::string var = to_eliminate[pick];
    ref.order.push_back(var);
    TablePtr joined = factors[clique[0]].table;
    for (size_t k = 1; k < clique.size(); ++k) {
      joined = *fr::ProductJoin(*joined, *factors[clique[k]].table, semiring,
                                "tmp");
    }
    const size_t index = ref.caches.size();
    ref.caches.push_back(joined->Clone("cache" + std::to_string(index)));
    for (size_t f : clique) {
      if (factors[f].origin >= 0) {
        ref.edges.emplace_back(static_cast<size_t>(factors[f].origin), index);
      }
    }
    TablePtr message = *fr::Marginalize(
        *joined, varset::Difference(joined->schema().variables(), {var}),
        semiring, "msg" + std::to_string(index));
    std::vector<Factor> next;
    for (size_t f = 0; f < factors.size(); ++f) {
      if (std::find(clique.begin(), clique.end(), f) == clique.end()) {
        next.push_back(factors[f]);
      }
    }
    next.push_back({message, static_cast<int>(index)});
    factors = std::move(next);
    to_eliminate.erase(to_eliminate.begin() + pick);
  }
  for (size_t e = ref.edges.size(); e-- > 0;) {
    const auto [i, j] = ref.edges[e];
    ref.caches[i] = *fr::UpdateSemijoin(*ref.caches[i], *ref.caches[j],
                                        semiring, ref.caches[i]->name());
  }
  return ref;
}

// Bitwise table equality (NaN payloads and signed zeros included).
::testing::AssertionResult SameBits(const Table& want, const Table& got) {
  if (want.name() != got.name() ||
      want.schema().variables() != got.schema().variables() ||
      want.NumRows() != got.NumRows()) {
    return ::testing::AssertionFailure()
           << got.name() << got.schema().ToString() << " " << got.NumRows()
           << " rows vs " << want.name() << want.schema().ToString() << " "
           << want.NumRows() << " rows";
  }
  for (size_t r = 0; r < want.NumRows(); ++r) {
    const RowView w = want.Row(r), g = got.Row(r);
    const double wm = w.measure, gm = g.measure;
    if (!std::equal(w.vars, w.vars + w.arity, g.vars) ||
        std::memcmp(&wm, &gm, sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << want.name() << " row " << r << ": " << gm << " vs " << wm;
    }
  }
  return ::testing::AssertionSuccess();
}

// Build on the packed table kernels equals the fr:: reference build bit for
// bit — every cache, the elimination order and the tree edges — on every
// semiring with division, under both heuristics, over dense, sparse and
// wider-than-64-bit keys, shuffled base rows and signed-zero measures.
TEST(VeCacheBuildTest, MatchesFrReferenceBitForBit) {
  for (SemiringKind kind :
       {SemiringKind::kSumProduct, SemiringKind::kMinSum, SemiringKind::kMaxSum,
        SemiringKind::kMaxProduct, SemiringKind::kLogSumProduct}) {
    for (KeyValues values :
         {KeyValues::kDense, KeyValues::kSparse, KeyValues::kWide}) {
      for (uint64_t seed = 0; seed < 4; ++seed) {
        RandomView rv = MakeKeyedView(seed, values,
                                      /*extra_rels=*/static_cast<int>(seed % 3),
                                      /*signed_zeros=*/true);
        rv.view.semiring = Semiring(kind);
        for (bool width : {false, true}) {
          const std::string label =
              rv.view.semiring.name() + " values " +
              std::to_string(static_cast<int>(values)) + " seed " +
              std::to_string(seed) + (width ? " width" : " degree");
          VeCacheOptions options;
          options.use_width_heuristic = width;
          auto cache = VeCache::Build(rv.view, rv.catalog, options);
          ASSERT_TRUE(cache.ok()) << label << ": " << cache.status();
          const ReferenceCache want =
              ReferenceBuild(rv.view, rv.catalog, width);
          EXPECT_EQ(cache->elimination_order(), want.order) << label;
          EXPECT_EQ(cache->edges(), want.edges) << label;
          ASSERT_EQ(cache->caches().size(), want.caches.size()) << label;
          for (size_t i = 0; i < want.caches.size(); ++i) {
            EXPECT_TRUE(SameBits(*want.caches[i], *cache->caches()[i]))
                << label << " cache " << i;
          }
        }
      }
    }
  }
}

// BeliefPropagation's program written with fr:: operators: the join tree
// rooted at table 0 with its edges in reversed DFS preorder, a collect pass
// of product semijoins, a distribute pass of update semijoins, and, when
// the view has two var-disjoint components, each table scaled by the other
// component's total.
std::vector<TablePtr> ReferenceBp(const std::vector<TablePtr>& tables,
                                  const Semiring& semiring) {
  std::vector<std::vector<std::string>> relation_vars;
  for (const TablePtr& t : tables) {
    relation_vars.push_back(t->schema().variables());
  }
  const graph::JoinTree tree = graph::MaxSpanningJoinTree(relation_vars);
  const size_t n = tables.size();
  std::vector<std::vector<size_t>> adj(n);
  for (const auto& [a, b] : tree.edges) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  std::vector<std::pair<size_t, size_t>> edges;  // (child, parent)
  std::vector<size_t> parent(n, 0), stack = {0};
  std::vector<bool> seen(n, false);
  seen[0] = true;
  while (!stack.empty()) {
    const size_t v = stack.back();
    stack.pop_back();
    if (v != 0) edges.emplace_back(v, parent[v]);
    for (size_t w : adj[v]) {
      if (!seen[w]) {
        seen[w] = true;
        parent[w] = v;
        stack.push_back(w);
      }
    }
  }
  std::reverse(edges.begin(), edges.end());
  auto shared = [&](size_t a, size_t b) {
    return !varset::Intersect(relation_vars[a], relation_vars[b]).empty();
  };
  std::vector<TablePtr> t = tables;
  for (const auto& [c, p] : edges) {
    if (shared(c, p)) {
      t[p] = *fr::ProductSemijoin(*t[p], *t[c], semiring, t[p]->name());
    }
  }
  for (auto it = edges.rbegin(); it != edges.rend(); ++it) {
    const auto [c, p] = *it;
    if (shared(c, p)) {
      t[c] = *fr::UpdateSemijoin(*t[c], *t[p], semiring, t[c]->name());
    }
  }
  // Components: flood fill over the message-carrying edges.
  std::vector<int> component(n, -1);
  int count = 0;
  for (size_t s = 0; s < n; ++s) {
    if (component[s] >= 0) continue;
    std::vector<size_t> todo = {s};
    component[s] = count;
    while (!todo.empty()) {
      const size_t v = todo.back();
      todo.pop_back();
      for (size_t w : adj[v]) {
        if (component[w] < 0 && shared(v, w)) {
          component[w] = count;
          todo.push_back(w);
        }
      }
    }
    ++count;
  }
  EXPECT_LE(count, 2) << "the scaling below assumes at most two components";
  if (count == 2) {
    std::vector<TablePtr> totals(2);  // no row when the join is empty
    for (int c = 0; c < 2; ++c) {
      const size_t first = static_cast<size_t>(
          std::find(component.begin(), component.end(), c) -
          component.begin());
      totals[c] = *fr::Marginalize(*t[first], {}, semiring, "total");
    }
    for (size_t i = 0; i < n; ++i) {
      const Table& other = *totals[1 - component[i]];
      if (other.Empty()) {
        t[i] = std::make_shared<Table>(t[i]->name(), t[i]->schema());
        continue;
      }
      const double factor =
          semiring.Multiply(semiring.MultiplyIdentity(), other.measure(0));
      if (factor == semiring.MultiplyIdentity()) continue;
      TablePtr scaled(t[i]->Clone(t[i]->name()));
      for (size_t r = 0; r < scaled->NumRows(); ++r) {
        scaled->set_measure(r, semiring.Multiply(scaled->measure(r), factor));
      }
      t[i] = scaled;
    }
  }
  return t;
}

// BP on the table kernels equals its fr:: composition bit for bit, on every
// semiring with division, over dense and wider-than-64-bit keys, shuffled
// base rows and signed-zero measures, on one connected acyclic schema and
// one with two var-disjoint components.
TEST(BeliefPropagationTest, MatchesFrReferenceBitForBit) {
  const std::vector<std::vector<std::vector<size_t>>> shapes = {
      {{0, 1, 2}, {1, 0, 3}, {2, 4}}, {{0, 1}, {2, 1}, {4, 3}}};
  for (SemiringKind kind :
       {SemiringKind::kSumProduct, SemiringKind::kMinSum, SemiringKind::kMaxSum,
        SemiringKind::kMaxProduct, SemiringKind::kLogSumProduct}) {
    for (KeyValues values : {KeyValues::kDense, KeyValues::kWide}) {
      for (uint64_t seed = 0; seed < 4; ++seed) {
        for (size_t shape = 0; shape < shapes.size(); ++shape) {
          RandomView rv = MakeKeyedView(seed, values, /*extra_rels=*/0,
                                        /*signed_zeros=*/true, shapes[shape]);
          const Semiring semiring(kind);
          const std::string label =
              semiring.name() + " values " +
              std::to_string(static_cast<int>(values)) + " seed " +
              std::to_string(seed) + " shape " + std::to_string(shape);
          auto got = BeliefPropagation(rv.tables, semiring);
          ASSERT_TRUE(got.ok()) << label << ": " << got.status();
          const std::vector<TablePtr> want = ReferenceBp(rv.tables, semiring);
          ASSERT_EQ(got->size(), want.size()) << label;
          for (size_t i = 0; i < want.size(); ++i) {
            EXPECT_TRUE(SameBits(*want[i], *(*got)[i]))
                << label << " table " << i;
          }
        }
      }
    }
  }
}

TEST(GeneratorTest, SupplyChainCardinalitiesMatchTable1Ratios) {
  SupplyChainParams params;
  EXPECT_EQ(params.num_parts(), 100000);
  EXPECT_EQ(params.num_suppliers(), 10000);
  EXPECT_EQ(params.num_warehouses(), 5000);
  EXPECT_EQ(params.num_contractors(), 1000);
  EXPECT_EQ(params.num_transporters(), 500);
  EXPECT_EQ(params.contracts_rows(), 100000);
  EXPECT_EQ(params.location_rows(), 1000000);
  EXPECT_EQ(params.ctdeals_rows(), 500000);
}

TEST(GeneratorTest, GeneratedTablesHonorFdAndCardinality) {
  Catalog catalog;
  SupplyChainParams params;
  params.scale = 0.01;
  auto schema = GenerateSupplyChain(params, catalog);
  ASSERT_TRUE(schema.ok()) << schema.status();
  for (const auto& rel : schema->view.relations) {
    TablePtr t = *catalog.GetTable(rel);
    EXPECT_TRUE(fr::CheckFunctionalDependency(*t).ok()) << rel;
    EXPECT_GT(t->NumRows(), 0u) << rel;
  }
  EXPECT_EQ((*catalog.GetTable("warehouses"))->NumRows(), 50u);
  EXPECT_EQ((*catalog.GetTable("transporters"))->NumRows(), 5u);
}

TEST(GeneratorTest, SyntheticSchemasAreCompleteRelations) {
  for (SyntheticKind kind : {SyntheticKind::kStar, SyntheticKind::kLinear,
                             SyntheticKind::kMultistar}) {
    Catalog catalog;
    SyntheticParams params;
    params.kind = kind;
    params.num_tables = 5;
    params.domain_size = 4;
    auto schema = GenerateSynthetic(params, catalog);
    ASSERT_TRUE(schema.ok()) << schema.status();
    EXPECT_EQ(schema->view.relations.size(), 5u);
    EXPECT_EQ(schema->linear_vars.size(), 6u);
    for (const auto& rel : schema->view.relations) {
      TablePtr t = *catalog.GetTable(rel);
      auto complete = fr::IsComplete(*t, catalog);
      ASSERT_TRUE(complete.ok());
      EXPECT_TRUE(*complete) << SyntheticKindName(kind) << "/" << rel;
    }
    switch (kind) {
      case SyntheticKind::kStar:
        EXPECT_EQ(schema->common_vars.size(), 1u);
        break;
      case SyntheticKind::kLinear:
        EXPECT_TRUE(schema->common_vars.empty());
        break;
      case SyntheticKind::kMultistar:
        EXPECT_GE(schema->common_vars.size(), 2u);
        break;
    }
  }
}

TEST(GeneratorTest, DensityKnobControlsCtdeals) {
  Catalog catalog;
  SupplyChainParams params;
  params.scale = 0.01;
  params.ctdeals_density = 0.5;
  auto schema = GenerateSupplyChain(params, catalog);
  ASSERT_TRUE(schema.ok());
  // cid domain 10, tid domain 5, density 0.5 -> about 25 rows (Bernoulli
  // thinning makes it approximate).
  TablePtr ctdeals = *catalog.GetTable("ctdeals");
  EXPECT_GT(ctdeals->NumRows(), 10u);
  EXPECT_LT(ctdeals->NumRows(), 40u);
}

TEST(GeneratorTest, SyntheticRejectsBadParams) {
  Catalog catalog;
  SyntheticParams params;
  params.num_tables = 0;
  EXPECT_FALSE(GenerateSynthetic(params, catalog).ok());
}

}  // namespace
}  // namespace mpfdb::workload
