// Shared randomized-schema machinery for property-style tests: a generator
// for random MPF views over random functional relations, plus the seed
// plumbing that lets one environment variable re-seed every property test.
//
// MPFDB_TEST_SEED (a non-negative integer, default 0) offsets the seed of
// every parameterized test case, so CI can sweep fresh schedules without a
// code change while any failure stays replayable: each test scopes a trace
// naming the exact seed it ran with.

#ifndef MPFDB_TESTS_RANDOM_VIEW_H_
#define MPFDB_TESTS_RANDOM_VIEW_H_

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "util/rng.h"

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

// A copy of rv's catalog whose variables all declare `domain`. The tables,
// and so every query answer, are unchanged; only the packed-key widths the
// hash operators derive from the catalog move.
inline Catalog UniformDomainCatalog(const RandomView& rv, int64_t domain) {
  Catalog copy;
  for (const std::string& var : rv.vars) {
    EXPECT_TRUE(copy.RegisterVariable(var, domain).ok());
  }
  for (const TablePtr& table : rv.tables) {
    EXPECT_TRUE(copy.RegisterTable(table).ok());
  }
  return copy;
}

// Every domain 2^62: any hash key over two or more variables no longer
// packs into 64 bits, so executors bound to this catalog run the hash
// operators' vector-key paths.
inline Catalog WideDomainCatalog(const RandomView& rv) {
  return UniformDomainCatalog(rv, int64_t{1} << 62);
}

// Every domain 2^25: one- and two-variable keys pack into 25 or 50 bits,
// past the 24-bit ceiling of HashProductJoin's dense heads, so its joins
// keep their heads in the Swiss table (keys of three or more variables
// take the vector-key path).
inline Catalog MidDomainCatalog(const RandomView& rv) {
  return UniformDomainCatalog(rv, int64_t{1} << 25);
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
