// Shared randomized-schema machinery for property-style tests: a generator
// for random MPF views over random functional relations, the cases of the
// differential driver, plus the seed plumbing that lets one environment
// variable re-seed every property test.
//
// MPFDB_TEST_SEED (a non-negative integer, default 0) offsets the seed of
// every parameterized test case, so CI can sweep fresh schedules without a
// code change while any failure stays replayable: each test scopes a trace
// naming the exact seed it ran with.

#ifndef MPFDB_TESTS_RANDOM_VIEW_H_
#define MPFDB_TESTS_RANDOM_VIEW_H_

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace mpfdb {

// A random view: `num_vars` variables with random small domains; `num_rels`
// relations over random variable subsets, each relation a random-density
// functional relation. The relation set is chained enough to be connected.
struct RandomView {
  Catalog catalog;
  MpfViewDef view;
  std::vector<TablePtr> tables;
  std::vector<std::string> vars;          // all registered variables
  std::vector<std::string> present_vars;  // variables appearing in the view
};

// `name_prefix` namespaces every variable, table, and the view name, so
// several random views can coexist in one catalog/database (the concurrent
// serving tests host N independent views in one Database).
inline RandomView MakeRandomView(uint64_t seed, int num_vars, int num_rels,
                                 bool force_acyclic,
                                 const std::string& name_prefix = "") {
  Rng rng(seed);
  RandomView rv;
  for (int i = 0; i < num_vars; ++i) {
    std::string name = name_prefix + "v" + std::to_string(i);
    EXPECT_TRUE(rv.catalog.RegisterVariable(name, rng.UniformInt(2, 4)).ok());
    rv.vars.push_back(name);
  }
  rv.view.name = name_prefix + "view";
  rv.view.semiring = Semiring::SumProduct();
  for (int r = 0; r < num_rels; ++r) {
    std::vector<std::string> vars;
    if (force_acyclic) {
      // A path of overlapping pairs is guaranteed acyclic.
      vars = {rv.vars[static_cast<size_t>(r) % rv.vars.size()],
              rv.vars[static_cast<size_t>(r + 1) % rv.vars.size()]};
      if (vars[0] == vars[1]) vars.pop_back();
    } else {
      // Random 1-3 variable scope, chained to the previous relation.
      size_t anchor = static_cast<size_t>(rng.UniformInt(
          0, std::min<int64_t>(r, static_cast<int64_t>(rv.vars.size()) - 1)));
      std::set<std::string> scope = {rv.vars[anchor]};
      int extra = static_cast<int>(rng.UniformInt(0, 2));
      for (int e = 0; e < extra; ++e) {
        scope.insert(rv.vars[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(rv.vars.size()) - 1))]);
      }
      vars.assign(scope.begin(), scope.end());
    }
    auto table = std::make_shared<Table>(name_prefix + "r" + std::to_string(r),
                                         Schema(vars, "f"));
    // Random-density FR over the scope's cross product.
    std::vector<int64_t> domains;
    for (const auto& v : vars) domains.push_back(*rv.catalog.DomainSize(v));
    std::vector<VarValue> row(vars.size(), 0);
    while (true) {
      if (rng.Bernoulli(0.8)) {
        table->AppendRow(row, rng.UniformDouble(0.25, 2.0));
      }
      size_t pos = 0;
      while (pos < row.size()) {
        if (++row[pos] < domains[pos]) break;
        row[pos] = 0;
        ++pos;
      }
      if (row.empty() || pos == row.size()) break;
    }
    if (table->Empty()) {
      // Guarantee at least one row so the view is non-degenerate.
      table->AppendRow(std::vector<VarValue>(vars.size(), 0), 1.0);
    }
    EXPECT_TRUE(rv.catalog.RegisterTable(table).ok());
    rv.present_vars = varset::Union(rv.present_vars, vars);
    rv.tables.push_back(table);
    rv.view.relations.push_back(table->name());
  }
  return rv;
}

// How MakeKeyedView draws each variable's values: the key shapes on which
// the table kernels (exec/table_ops.h) take different paths.
enum class KeyValues {
  kDense,   // 0, 1, ...: direct-address folds and probes
  kSparse,  // spread over [-10^9, 10^9]: hashed folds, binary-search probes
  kWide,    // INT32_MIN, INT32_MAX and others between: every key of two or
            // more variables overflows 64 bits and falls back to fr
};

// A view over `scopes` (indices of v0..v4, in column order; by default
// r0(v0, v1, v2), r1(v1, v0, v3), r2(v2, v3, v4)), plus `extra_rels`
// relations over random 1-3 variable scopes. On the default scopes without
// extra relations, the degree heuristic eliminates v4 first whatever the
// domains, and every order after that joins two factors on two or more
// variables. Each variable has 2-4 values drawn per `values`; each relation
// holds a random 80 % of its scope's cross product (at least one row), in
// shuffled row order. Measures lie in [0.25, 2), or with `signed_zeros` are
// also -0.0, 0.0 or negative.
inline RandomView MakeKeyedView(uint64_t seed, KeyValues values,
                                int extra_rels, bool signed_zeros,
                                std::vector<std::vector<size_t>> scopes = {
                                    {0, 1, 2}, {1, 0, 3}, {2, 3, 4}}) {
  Rng rng(seed * 0x2545f4914f6cdd1dull + 7);
  RandomView rv;
  std::vector<std::vector<VarValue>> domain;
  for (int i = 0; i < 5; ++i) {
    const std::string name = "v" + std::to_string(i);
    const int64_t size = rng.UniformInt(2, 4);
    std::set<VarValue> picked;
    if (values == KeyValues::kWide) picked = {INT32_MIN, INT32_MAX};
    while (static_cast<int64_t>(picked.size()) < size) {
      switch (values) {
        case KeyValues::kDense:
          picked.insert(static_cast<VarValue>(picked.size()));
          break;
        case KeyValues::kSparse:
          picked.insert(static_cast<VarValue>(
              rng.UniformInt(-1000000000, 1000000000)));
          break;
        case KeyValues::kWide:
          picked.insert(
              static_cast<VarValue>(rng.UniformInt(INT32_MIN, INT32_MAX)));
          break;
      }
    }
    domain.emplace_back(picked.begin(), picked.end());
    EXPECT_TRUE(rv.catalog.RegisterVariable(name, size).ok());
    rv.vars.push_back(name);
  }
  for (int r = 0; r < extra_rels; ++r) {
    std::set<size_t> scope;
    const int64_t width = rng.UniformInt(1, 3);
    while (static_cast<int64_t>(scope.size()) < width) {
      scope.insert(static_cast<size_t>(rng.UniformInt(0, 4)));
    }
    std::vector<size_t> ordered(scope.begin(), scope.end());
    rng.Shuffle(ordered);
    scopes.push_back(ordered);
  }
  rv.view.name = "view";
  rv.view.semiring = Semiring::SumProduct();
  for (size_t r = 0; r < scopes.size(); ++r) {
    std::vector<std::string> vars;
    for (size_t v : scopes[r]) vars.push_back(rv.vars[v]);
    std::vector<std::vector<VarValue>> rows = {{}};
    for (size_t v : scopes[r]) {
      std::vector<std::vector<VarValue>> longer;
      for (const auto& row : rows) {
        for (VarValue value : domain[v]) {
          longer.push_back(row);
          longer.back().push_back(value);
        }
      }
      rows = std::move(longer);
    }
    rng.Shuffle(rows);
    auto table = std::make_shared<Table>("r" + std::to_string(r),
                                         Schema(vars, "f"));
    for (size_t i = 0; i < rows.size(); ++i) {
      if (i > 0 && !rng.Bernoulli(0.8)) continue;
      double measure = rng.UniformDouble(0.25, 2.0);
      if (signed_zeros) {
        const int64_t pick = rng.UniformInt(0, 5);
        if (pick == 0) measure = -0.0;
        if (pick == 1) measure = 0.0;
        if (pick == 2) measure = -measure;
      }
      table->AppendRow(rows[i], measure);
    }
    EXPECT_TRUE(rv.catalog.RegisterTable(table).ok());
    rv.present_vars = varset::Union(rv.present_vars, vars);
    rv.tables.push_back(table);
    rv.view.relations.push_back(table->name());
  }
  return rv;
}

// Installs a RandomView's variables, tables, and view into a database.
inline void Install(const RandomView& rv, Database& db) {
  for (const auto& var : rv.vars) {
    ASSERT_TRUE(
        db.catalog().RegisterVariable(var, *rv.catalog.DomainSize(var)).ok());
  }
  for (const auto& table : rv.tables) {
    ASSERT_TRUE(db.CreateTable(table).ok());
  }
  ASSERT_TRUE(db.CreateMpfView(rv.view).ok());
}

// The VE specs: each heuristic plain, extended, and extended with FD
// pruning.
inline std::vector<std::string> VeSpecs() {
  std::vector<std::string> specs;
  for (const char* h : {"deg", "width", "elim_cost", "deg&width",
                        "deg&elim_cost", "random", "min_fill"}) {
    for (const char* suffix : {"", " ext.", " ext+fd"}) {
      specs.push_back(std::string("ve(") + h + ")" + suffix);
    }
  }
  return specs;
}

// Every MakeOptimizer spec: the CS family (with the cs+linear alias), FAQ,
// and the VE specs.
inline const std::vector<std::string>& AllSpecs() {
  static const std::vector<std::string> specs = [] {
    std::vector<std::string> all = {"cs", "cs+", "cs+linear", "cs+nonlinear",
                                    "faq"};
    for (const std::string& ve : VeSpecs()) all.push_back(ve);
    return all;
  }();
  return specs;
}

// --- Cases of the differential driver (tests/differential_test.cc) -------

// A self-contained MPF view: every registered variable with its domain, the
// base relations, the (table, variable) indexes to build, the semiring, and
// whether the measures make every fold order give the same bits. The driver
// builds each catalog, database and server it checks from one of these, and
// its shrinker edits one directly.
struct DiffView {
  std::vector<std::pair<std::string, int64_t>> vars;
  std::vector<TablePtr> tables;
  std::vector<std::pair<std::string, std::string>> indexes;
  Semiring semiring = Semiring::SumProduct();
  bool exact = false;    // unit or power-of-two measures, or bool_or_and
  bool acyclic = false;  // drawn from an acyclic family
};

struct DiffCase {
  DiffView view;
  MpfQuerySpec query;
};

// The view's definition: every relation, named "view".
inline MpfViewDef ViewDefOf(const DiffView& view) {
  MpfViewDef def{"view", {}, view.semiring};
  for (const TablePtr& t : view.tables) def.relations.push_back(t->name());
  return def;
}

// A catalog over the view's tables and indexes. A non-zero `uniform_domain`
// declares every variable with that domain instead: the answers stay the
// same, and only the key widths the hash operators derive from the catalog
// move (2^25 keeps one- and two-variable keys packed but past the dense
// join heads; 2^62 sends every key of two or more variables down the
// vector-key path).
inline Catalog CatalogOf(const DiffView& view, int64_t uniform_domain = 0) {
  Catalog catalog;
  for (const auto& [var, domain] : view.vars) {
    EXPECT_TRUE(
        catalog.RegisterVariable(var, uniform_domain ? uniform_domain : domain)
            .ok());
  }
  for (const TablePtr& t : view.tables) {
    EXPECT_TRUE(catalog.RegisterTable(t).ok());
  }
  for (const auto& [table, var] : view.indexes) {
    EXPECT_TRUE(catalog.CreateIndex(table, var).ok());
  }
  return catalog;
}

// The variables some relation of the view uses, in first-seen order.
inline std::vector<std::string> PresentVars(const DiffView& view) {
  std::vector<std::string> vars;
  for (const TablePtr& t : view.tables) {
    vars = varset::Union(vars, t->schema().variables());
  }
  return vars;
}

// The view families the driver draws from.
enum class ViewFamily {
  kAny,          // one of the next six, drawn from the seed
  kAcyclic,      // MakeRandomView: a path of pairs
  kCyclic,       // MakeRandomView: random scopes
  kCycle,        // GenerateCycle: a small dense or a larger sparse core
  kGrid,         // GenerateGrid: 2 x 2 or 2 x 3 cells
  kSupplyChain,  // GenerateSupplyChain at a small scale: declared keys
  kSynthetic,    // GenerateSynthetic: a star, linear or multistar schema
  kChain,        // three complete 20 x 20 relations in a chain
};

// Draws one view for `seed` from `family`, under `semiring` (or one of the
// six, drawn), with measures that are exact under every fold order (powers
// of two, or 1 under bool_or_and) or random, and an index on about a third
// of the (table, variable) pairs.
inline DiffView DrawView(uint64_t seed, ViewFamily family = ViewFamily::kAny,
                         std::optional<SemiringKind> semiring = {}) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  if (family == ViewFamily::kAny) {
    family = static_cast<ViewFamily>(rng.UniformInt(1, 6));
  }
  DiffView view;
  view.acyclic = family == ViewFamily::kAcyclic;
  Catalog catalog;
  MpfViewDef def;
  auto take = [&](const auto& generated) {
    EXPECT_TRUE(generated.ok()) << generated.status();
    def = generated->view;
  };
  switch (family) {
    case ViewFamily::kCycle: {
      workload::CycleParams params;
      const bool large = rng.Bernoulli(0.5);
      params.num_vars = static_cast<int>(rng.UniformInt(3, 4));
      params.domain_size = large ? 24 : rng.UniformInt(3, 5);
      params.density = large ? 0.25 : 0.6;
      params.seed = seed;
      take(workload::GenerateCycle(params, catalog));
      break;
    }
    case ViewFamily::kGrid: {
      workload::GridParams params;
      params.rows = 2;
      params.cols = static_cast<int>(rng.UniformInt(2, 3));
      params.domain_size = rng.UniformInt(2, 3);
      params.seed = seed;
      take(workload::GenerateGrid(params, catalog));
      break;
    }
    case ViewFamily::kSupplyChain: {
      workload::SupplyChainParams params;
      params.scale = 0.002;
      params.location_factor = 0.1;
      params.seed = seed;
      take(workload::GenerateSupplyChain(params, catalog));
      break;
    }
    case ViewFamily::kSynthetic:
    case ViewFamily::kChain: {
      workload::SyntheticParams params;
      const bool chain = family == ViewFamily::kChain;
      params.kind = chain ? workload::SyntheticKind::kLinear
                          : static_cast<workload::SyntheticKind>(
                                rng.UniformInt(0, 2));
      params.num_tables = chain ? 3 : 4;
      params.domain_size = chain ? 20 : 3;
      params.seed = seed;
      take(workload::GenerateSynthetic(params, catalog));
      break;
    }
    default: {
      RandomView rv = MakeRandomView(seed, 6, 5, view.acyclic);
      catalog = rv.catalog;
      def = rv.view;
    }
  }
  view.semiring = Semiring(
      semiring.value_or(static_cast<SemiringKind>(rng.UniformInt(0, 5))));
  const SemiringKind kind = view.semiring.kind();
  view.exact = kind == SemiringKind::kBoolOrAnd ||
               (kind != SemiringKind::kLogSumProduct && rng.Bernoulli(0.5));
  for (const std::string& name : def.relations) {
    TablePtr table = *catalog.GetTable(name);
    for (size_t r = 0; r < table->NumRows(); ++r) {
      double measure = rng.UniformDouble(0.25, 2.0);
      if (kind == SemiringKind::kBoolOrAnd) {
        measure = 1.0;
      } else if (kind == SemiringKind::kLogSumProduct) {
        measure = std::log(measure);
      } else if (view.exact) {
        measure = std::ldexp(1.0, static_cast<int>(rng.UniformInt(-2, 2)));
      }
      table->set_measure(r, measure);
    }
    for (const std::string& var : table->schema().variables()) {
      if (rng.Bernoulli(0.3)) view.indexes.emplace_back(name, var);
    }
    view.tables.push_back(table);
  }
  for (const std::string& var : PresentVars(view)) {
    view.vars.emplace_back(var, *catalog.DomainSize(var));
  }
  return view;
}

// Draws a query over `view`: one or two group variables and up to two
// equality selections on any variable of the view, group variables
// included (the restricted-answer form), a variable possibly twice.
inline MpfQuerySpec DrawQuery(const DiffView& view, Rng& rng) {
  const std::vector<std::string> vars = PresentVars(view);
  auto pick = [&] {
    return vars[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(vars.size()) - 1))];
  };
  MpfQuerySpec query;
  query.group_vars = {pick()};
  const std::string second = pick();
  if (rng.Bernoulli(0.4) && second != query.group_vars[0]) {
    query.group_vars.push_back(second);
  }
  for (int64_t s = rng.UniformInt(0, 2); s > 0; --s) {
    const std::string var = pick();
    int64_t domain = 0;
    for (const auto& [name, size] : view.vars) {
      if (name == var) domain = size;
    }
    query.selections.push_back(
        {var, static_cast<VarValue>(rng.UniformInt(0, domain - 1))});
  }
  return query;
}

// Uniform choice from a non-empty list.
inline const std::string& Pick(const std::vector<std::string>& items,
                               Rng& rng) {
  return items[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(items.size()) - 1))];
}

// The MPFDB_TEST_SEED offset, parsed once.
inline uint64_t TestSeedOffset() {
  static const uint64_t offset = [] {
    const char* env = std::getenv("MPFDB_TEST_SEED");
    if (env == nullptr || *env == '\0') return static_cast<uint64_t>(0);
    return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
  }();
  return offset;
}

// Effective seed of one parameterized case. Use exactly this value for every
// Rng in the test body so a failure replays from the printed seed alone.
inline uint64_t CaseSeed(uint64_t param) { return param + TestSeedOffset(); }

// Attaches the effective seed to every assertion failure in scope.
#define MPFDB_TRACE_SEED(seed)                                             \
  SCOPED_TRACE(::testing::Message()                                        \
               << "effective seed " << (seed) << " (MPFDB_TEST_SEED="      \
               << ::mpfdb::TestSeedOffset()                                \
               << "; rerun with the same value to reproduce)")

}  // namespace mpfdb

#endif  // MPFDB_TESTS_RANDOM_VIEW_H_
