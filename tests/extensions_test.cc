// Tests for the extension features beyond the paper's core: constrained-range
// (HAVING) queries, hypothetical what-if queries (alternate measure/domain),
// incremental VE-cache maintenance, and database persistence.

#include <algorithm>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/persistence.h"
#include "fr/algebra.h"
#include "parser/sql.h"
#include "workload/generators.h"
#include "workload/vecache.h"

namespace mpfdb {
namespace {

class ExtensionsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::SupplyChainParams params;
    params.scale = 0.004;
    params.seed = 55;
    auto schema = workload::GenerateSupplyChain(params, db_.catalog());
    ASSERT_TRUE(schema.ok()) << schema.status();
    view_ = schema->view;
    ASSERT_TRUE(db_.CreateMpfView(view_).ok());
  }

  Database db_;
  MpfViewDef view_;
};

TEST_F(ExtensionsTest, HavingFiltersAggregatedMeasure) {
  // Baseline: unfiltered result.
  auto all = db_.Query("invest", MpfQuerySpec{{"cid"}, {}});
  ASSERT_TRUE(all.ok());
  // Threshold in the middle of the widest gap between sorted measures, so
  // float noise across plans cannot flip a row over the boundary.
  std::vector<double> sorted = all->table->measures();
  std::sort(sorted.begin(), sorted.end());
  ASSERT_GE(sorted.size(), 2u);
  double threshold = (sorted[0] + sorted[1]) / 2;
  double best_gap = 0;
  for (size_t i = 0; i + 1 < sorted.size(); ++i) {
    if (sorted[i + 1] - sorted[i] > best_gap) {
      best_gap = sorted[i + 1] - sorted[i];
      threshold = (sorted[i] + sorted[i + 1]) / 2;
    }
  }

  MpfQuerySpec query{{"cid"}, {}};
  query.having = HavingClause{CompareOp::kLt, threshold};
  for (const std::string optimizer : {"cs", "cs+nonlinear", "ve(deg) ext."}) {
    auto result = db_.Query("invest", query, optimizer);
    ASSERT_TRUE(result.ok()) << optimizer << ": " << result.status();
    // Every surviving row is under the threshold...
    ASSERT_LT(result->table->NumRows(), all->table->NumRows());
    for (size_t i = 0; i < result->table->NumRows(); ++i) {
      EXPECT_LT(result->table->measure(i), threshold) << optimizer;
    }
    // ...and the measures of surviving groups are unchanged.
    auto filtered = fr::FilterMeasure(
        *all->table, HavingClause{CompareOp::kLt, threshold}, "expected");
    ASSERT_TRUE(filtered.ok());
    EXPECT_TRUE(fr::TablesEqual(**filtered, *result->table, 1e-6)) << optimizer;
  }
}

TEST_F(ExtensionsTest, HavingAllCompareOps) {
  auto all = db_.Query("invest", MpfQuerySpec{{"tid"}, {}});
  ASSERT_TRUE(all.ok());
  double v0 = all->table->measure(0);
  struct Case {
    CompareOp op;
    bool keeps_first;
  };
  for (const Case c : {Case{CompareOp::kLe, true}, Case{CompareOp::kGe, true},
                       Case{CompareOp::kEq, true}, Case{CompareOp::kNe, false},
                       Case{CompareOp::kLt, false},
                       Case{CompareOp::kGt, false}}) {
    MpfQuerySpec query{{"tid"}, {}};
    query.having = HavingClause{c.op, v0};
    auto result = db_.Query("invest", query);
    ASSERT_TRUE(result.ok());
    bool found = false;
    for (size_t i = 0; i < result->table->NumRows(); ++i) {
      if (result->table->measure(i) == v0) found = true;
    }
    EXPECT_EQ(found, c.keeps_first) << CompareOpSymbol(c.op);
  }
}

TEST_F(ExtensionsTest, HavingViaSql) {
  parser::SqlSession session(db_);
  auto result = session.Execute(
      "select cid, SUM(f) from invest group by cid having f > 0");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_NE(result->table, nullptr);
  auto none = session.Execute(
      "select cid, SUM(f) from invest group by cid having f < 0");
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->table->NumRows(), 0u);
  // <= and <> parse too.
  EXPECT_TRUE(session
                  .Execute("select cid, SUM(f) from invest group by cid "
                           "having f <= 100")
                  .ok());
  EXPECT_TRUE(session
                  .Execute("select cid, SUM(f) from invest group by cid "
                           "having f <> 0")
                  .ok());
  EXPECT_FALSE(session
                   .Execute("select cid, SUM(f) from invest group by cid "
                            "having f like 3")
                   .ok());
}

TEST_F(ExtensionsTest, WhatIfMeasureUpdateChangesOnlyHypothetically) {
  auto baseline = db_.Query("invest", MpfQuerySpec{{"tid"}, {}});
  ASSERT_TRUE(baseline.ok());

  // Pick a real ctdeals row and hypothetically change its discount.
  TablePtr ctdeals = *db_.catalog().GetTable("ctdeals");
  ASSERT_GT(ctdeals->NumRows(), 0u);
  RowView row = ctdeals->Row(0);
  WhatIf what_if;
  what_if.measure_updates.push_back(
      {"ctdeals",
       {{"cid", row.var(0)}, {"tid", row.var(1)}},
       row.measure * 10.0});

  auto hypothetical =
      db_.QueryWhatIf("invest", MpfQuerySpec{{"tid"}, {}}, what_if);
  ASSERT_TRUE(hypothetical.ok()) << hypothetical.status();
  EXPECT_FALSE(
      fr::TablesEqual(*baseline->table, *hypothetical->table, 1e-9));

  // The stored table was not modified, and a fresh query matches baseline.
  EXPECT_EQ((*db_.catalog().GetTable("ctdeals"))->measure(0), row.measure);
  auto again = db_.Query("invest", MpfQuerySpec{{"tid"}, {}});
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(fr::TablesEqual(*baseline->table, *again->table, 1e-12));
}

TEST_F(ExtensionsTest, WhatIfMeasureUpdateMatchesManualRecomputation) {
  TablePtr ctdeals = *db_.catalog().GetTable("ctdeals");
  RowView row = ctdeals->Row(1);
  const double new_measure = 0.123;
  WhatIf what_if;
  what_if.measure_updates.push_back(
      {"ctdeals", {{"cid", row.var(0)}, {"tid", row.var(1)}}, new_measure});
  auto hypothetical =
      db_.QueryWhatIf("invest", MpfQuerySpec{{"cid"}, {}}, what_if);
  ASSERT_TRUE(hypothetical.ok());

  // Recompute naively on manually modified copies.
  std::vector<TablePtr> tables;
  for (const auto& rel : view_.relations) {
    TablePtr t = *db_.catalog().GetTable(rel);
    if (rel == "ctdeals") {
      auto modified = t->Clone("ctdeals");
      modified->set_measure(1, new_measure);
      t = TablePtr(std::move(modified));
    }
    tables.push_back(t);
  }
  auto expected =
      fr::EvaluateNaiveMpf(tables, {"cid"}, {}, view_.semiring, "naive");
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(fr::TablesEqual(**expected, *hypothetical->table, 1e-6));
}

TEST_F(ExtensionsTest, WhatIfDomainUpdateTransfersDeal) {
  // Transfer ctdeals row 0 from its transporter to another one.
  TablePtr ctdeals = *db_.catalog().GetTable("ctdeals");
  RowView row = ctdeals->Row(0);
  VarValue other_tid = row.var(1) == 0 ? 1 : 0;
  // Ensure no FD collision: (cid, other_tid) must not already exist.
  bool exists = false;
  for (size_t i = 0; i < ctdeals->NumRows(); ++i) {
    if (ctdeals->Row(i).var(0) == row.var(0) &&
        ctdeals->Row(i).var(1) == other_tid) {
      exists = true;
    }
  }
  WhatIf what_if;
  what_if.domain_updates.push_back(
      {"ctdeals", {{"cid", row.var(0)}, {"tid", row.var(1)}}, "tid", other_tid});
  auto hypothetical =
      db_.QueryWhatIf("invest", MpfQuerySpec{{"tid"}, {}}, what_if);
  if (exists) {
    EXPECT_EQ(hypothetical.status().code(), StatusCode::kFailedPrecondition);
  } else {
    ASSERT_TRUE(hypothetical.ok()) << hypothetical.status();
    auto baseline = db_.Query("invest", MpfQuerySpec{{"tid"}, {}});
    ASSERT_TRUE(baseline.ok());
    EXPECT_FALSE(
        fr::TablesEqual(*baseline->table, *hypothetical->table, 1e-9));
  }
}

TEST_F(ExtensionsTest, WhatIfErrors) {
  WhatIf nothing_matches;
  nothing_matches.measure_updates.push_back(
      {"ctdeals", {{"cid", 9999}}, 1.0});
  EXPECT_EQ(db_.QueryWhatIf("invest", MpfQuerySpec{{"tid"}, {}},
                            nothing_matches)
                .status()
                .code(),
            StatusCode::kNotFound);

  WhatIf bad_table;
  bad_table.measure_updates.push_back({"nope", {}, 1.0});
  EXPECT_FALSE(
      db_.QueryWhatIf("invest", MpfQuerySpec{{"tid"}, {}}, bad_table).ok());

  WhatIf bad_var;
  bad_var.measure_updates.push_back({"ctdeals", {{"pid", 0}}, 1.0});
  EXPECT_EQ(db_.QueryWhatIf("invest", MpfQuerySpec{{"tid"}, {}}, bad_var)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ExtensionsTest, VeCacheIncrementalMaintenance) {
  auto cache = workload::VeCache::Build(view_, db_.catalog());
  ASSERT_TRUE(cache.ok()) << cache.status();

  // Update one warehouses row's overhead through the cache.
  TablePtr warehouses = *db_.catalog().GetTable("warehouses");
  RowView row = warehouses->Row(3);
  std::vector<VarValue> key(row.vars, row.vars + row.arity);
  double old_measure = row.measure;
  double new_measure = row.measure * 2.5;
  ASSERT_TRUE(
      cache->ApplyBaseMeasureUpdate("warehouses", key, new_measure).ok());
  // Multi-version maintenance: the cache adopted a new version of the base
  // table; the catalog's version is untouched (readers keep their snapshot).
  EXPECT_DOUBLE_EQ(warehouses->measure(3), old_measure);
  auto wh_index = cache->BaseIndexOf("warehouses");
  ASSERT_TRUE(wh_index.ok());
  EXPECT_DOUBLE_EQ(cache->base_tables()[*wh_index]->measure(3), new_measure);

  // Every single-variable query from the cache must now match naive
  // evaluation over the cache's (updated) base-table versions.
  const std::vector<TablePtr>& tables = cache->base_tables();
  for (const auto& var : {"pid", "sid", "wid", "cid", "tid"}) {
    auto truth =
        fr::EvaluateNaiveMpf(tables, {var}, {}, view_.semiring, "truth");
    ASSERT_TRUE(truth.ok());
    auto answer = cache->Answer(MpfQuerySpec{{var}, {}});
    ASSERT_TRUE(answer.ok()) << answer.status();
    EXPECT_TRUE(fr::TablesEqual(**truth, **answer, 1e-6)) << var;
  }

  // A second update on a different table keeps the invariant.
  TablePtr transporters = *db_.catalog().GetTable("transporters");
  RowView trow = transporters->Row(0);
  ASSERT_TRUE(cache
                  ->ApplyBaseMeasureUpdate("transporters", {trow.var(0)},
                                           trow.measure + 0.75)
                  .ok());
  const std::vector<TablePtr>& tables2 = cache->base_tables();
  for (const auto& var : {"tid", "pid"}) {
    auto truth =
        fr::EvaluateNaiveMpf(tables2, {var}, {}, view_.semiring, "truth");
    ASSERT_TRUE(truth.ok());
    auto answer = cache->Answer(MpfQuerySpec{{var}, {}});
    ASSERT_TRUE(answer.ok());
    EXPECT_TRUE(fr::TablesEqual(**truth, **answer, 1e-6)) << var;
  }
}

TEST_F(ExtensionsTest, VeCacheBaseRowLocatorMatchesScan) {
  // The base-row locator finds every row a linear scan finds, reports an
  // absent row as NotFound wherever it falls among the stored rows, and
  // caches maintained through it equal a from-scratch build over the
  // updated tables bit for bit.
  auto built = workload::VeCache::Build(view_, db_.catalog());
  ASSERT_TRUE(built.ok()) << built.status();
  workload::VeCache cache = *built;
  const std::vector<TablePtr>& bases = cache.base_tables();
  for (size_t b = 0; b < bases.size(); ++b) {
    const Table& base = *bases[b];
    for (size_t i = 0; i < base.NumRows(); ++i) {
      RowView row = base.Row(i);
      std::vector<VarValue> key(row.vars, row.vars + row.arity);
      size_t first = 0;
      while (!std::equal(key.begin(), key.end(), base.Row(first).vars)) {
        ++first;
      }
      auto located = cache.LocateBaseRow(b, key);
      ASSERT_TRUE(located.ok()) << base.name() << " row " << i;
      ASSERT_EQ(*located, first) << base.name() << " row " << i;
    }
  }
  auto warehouses = cache.BaseIndexOf("warehouses");
  ASSERT_TRUE(warehouses.ok());
  for (const std::vector<VarValue>& absent :
       {std::vector<VarValue>{-1, -1}, std::vector<VarValue>{0, 9999},
        std::vector<VarValue>{9999, 9999}}) {
    EXPECT_EQ(cache.LocateBaseRow(*warehouses, absent).status().code(),
              StatusCode::kNotFound);
  }
  EXPECT_EQ(cache.LocateBaseRow(*warehouses, {0}).status().code(),
            StatusCode::kInvalidArgument);  // wrong arity
  EXPECT_EQ(cache.LocateBaseRow(bases.size(), {0, 0}).status().code(),
            StatusCode::kInvalidArgument);  // no such base table

  for (const char* table_name : {"warehouses", "transporters", "warehouses"}) {
    auto b = cache.BaseIndexOf(table_name);
    ASSERT_TRUE(b.ok());
    RowView row = cache.base_tables()[*b]->Row(1);
    std::vector<VarValue> key(row.vars, row.vars + row.arity);
    ASSERT_TRUE(cache
                    .ApplyBaseMeasureUpdate(table_name, key,
                                            row.measure * 1.5 + 0.25)
                    .ok());
  }
  Catalog updated = db_.catalog();
  for (const TablePtr& base : cache.base_tables()) {
    ASSERT_TRUE(updated.ReplaceTable(base).ok()) << base->name();
  }
  auto rebuilt = workload::VeCache::Build(view_, updated);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  ASSERT_EQ(cache.caches().size(), rebuilt->caches().size());
  for (size_t i = 0; i < cache.caches().size(); ++i) {
    EXPECT_TRUE(fr::TablesEqual(*cache.caches()[i], *rebuilt->caches()[i],
                                /*tolerance=*/0.0))
        << "cache " << i;
  }
}

TEST_F(ExtensionsTest, VeCacheMaintenanceErrors) {
  auto cache = workload::VeCache::Build(view_, db_.catalog());
  ASSERT_TRUE(cache.ok());
  EXPECT_EQ(cache->ApplyBaseMeasureUpdate("nope", {0}, 1.0).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(cache->ApplyBaseMeasureUpdate("warehouses", {0}, 1.0).code(),
            StatusCode::kInvalidArgument);  // wrong arity
  EXPECT_EQ(
      cache->ApplyBaseMeasureUpdate("warehouses", {9999, 9999}, 1.0).code(),
      StatusCode::kNotFound);  // no such row
}

TEST_F(ExtensionsTest, VeCacheZeroMeasureUpdateRejected) {
  // Force a zero measure and verify the incremental path refuses (no
  // multiplicative inverse), directing the caller to rebuild.
  TablePtr warehouses = *db_.catalog().GetTable("warehouses");
  warehouses->set_measure(0, 0.0);
  auto cache = workload::VeCache::Build(view_, db_.catalog());
  ASSERT_TRUE(cache.ok());
  RowView row = warehouses->Row(0);
  EXPECT_EQ(cache
                ->ApplyBaseMeasureUpdate("warehouses",
                                         {row.var(0), row.var(1)}, 5.0)
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(PersistenceTest, SaveLoadRoundTrip) {
  namespace fs = std::filesystem;
  std::string dir = (fs::temp_directory_path() / "mpfdb_persist_test").string();
  fs::remove_all(dir);

  Database original;
  workload::SupplyChainParams params;
  params.scale = 0.004;
  auto schema = workload::GenerateSupplyChain(params, original.catalog());
  ASSERT_TRUE(schema.ok());
  ASSERT_TRUE(original.CreateMpfView(schema->view).ok());
  ASSERT_TRUE(SaveDatabase(original, dir).ok());

  Database loaded;
  ASSERT_TRUE(LoadDatabase(dir, loaded).ok());
  EXPECT_EQ(loaded.catalog().TableNames(), original.catalog().TableNames());
  EXPECT_EQ(loaded.ViewNames(), original.ViewNames());
  EXPECT_EQ((*loaded.catalog().GetTable("warehouses"))->key_vars(),
            (*original.catalog().GetTable("warehouses"))->key_vars());
  EXPECT_EQ(*loaded.catalog().DomainSize("pid"),
            *original.catalog().DomainSize("pid"));

  // Same query, same answer.
  auto a = original.Query("invest", MpfQuerySpec{{"cid"}, {}});
  auto b = loaded.Query("invest", MpfQuerySpec{{"cid"}, {}});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(fr::TablesEqual(*a->table, *b->table, 1e-9));

  fs::remove_all(dir);
}

TEST(PersistenceTest, LoadErrors) {
  Database db;
  EXPECT_EQ(LoadDatabase("/nonexistent/mpfdb", db).code(),
            StatusCode::kNotFound);

  namespace fs = std::filesystem;
  std::string dir = (fs::temp_directory_path() / "mpfdb_bad_manifest").string();
  fs::create_directories(dir);
  {
    std::ofstream out(fs::path(dir) / "manifest");
    out << "gizmo|x|1\n";
  }
  Database db2;
  EXPECT_EQ(LoadDatabase(dir, db2).code(), StatusCode::kInvalidArgument);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mpfdb
