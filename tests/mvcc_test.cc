// The MVCC concurrency battery: delta-vs-rebuild differential properties
// (an incrementally refreshed VE-cache must be bit-identical to a full
// rebuild, across semirings and under concurrent application), snapshot
// isolation with chunk-level structural sharing and epoch GC (a pinned
// reader never observes a writer's commits; releasing the pin reclaims
// every dead version), and group-commit coalescing/fairness (N concurrent
// writers fold into ceil(N/batch) version bumps and never starve readers).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "fr/algebra.h"
#include "random_view.h"
#include "server/server.h"
#include "storage/mvcc.h"
#include "util/rng.h"
#include "workload/vecache.h"

namespace mpfdb {
namespace {

using server::MpfServer;
using server::ServerOptions;
using workload::VeCache;
using workload::VeCacheDeltaOp;

// A random measure-update batch over the view's base tables: 1-3 tables,
// 1-3 rows each, values in a range disjoint from MakeRandomView's so no
// update is a no-op and none introduces a zero.
std::vector<VeCacheDeltaOp> RandomBatch(const RandomView& rv, Rng& rng) {
  std::vector<VeCacheDeltaOp> ops;
  int num_tables = static_cast<int>(rng.UniformInt(1, 3));
  std::vector<size_t> chosen;
  for (int t = 0; t < num_tables; ++t) {
    size_t idx = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(rv.tables.size()) - 1));
    if (std::find(chosen.begin(), chosen.end(), idx) != chosen.end()) continue;
    chosen.push_back(idx);
    const Table& table = *rv.tables[idx];
    VeCacheDeltaOp op;
    op.table = table.name();
    std::map<size_t, double> rows;
    int num_rows = static_cast<int>(rng.UniformInt(1, 3));
    for (int r = 0; r < num_rows; ++r) {
      size_t row = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(table.NumRows()) - 1));
      rows[row] = rng.UniformDouble(4.0, 8.0);
    }
    op.rows.assign(rows.begin(), rows.end());
    ops.push_back(std::move(op));
  }
  return ops;
}

// Full rebuild against a catalog with the batch applied — the ground truth
// the delta path must reproduce bit-for-bit.
StatusOr<VeCache> RebuildWithBatch(const RandomView& rv,
                                   const std::vector<VeCacheDeltaOp>& ops) {
  Catalog cat = rv.catalog;
  for (const auto& op : ops) {
    auto table = cat.GetTable(op.table);
    if (!table.ok()) return table.status();
    Status replaced =
        cat.ReplaceTable((*table)->WithMeasureUpdates(op.rows, op.table));
    if (!replaced.ok()) return replaced;
  }
  return VeCache::Build(rv.view, cat);
}

void ExpectCachesBitIdentical(const VeCache& got, const VeCache& want,
                              const std::string& label) {
  ASSERT_EQ(got.caches().size(), want.caches().size()) << label;
  for (size_t i = 0; i < got.caches().size(); ++i) {
    EXPECT_TRUE(
        fr::TablesEqual(*got.caches()[i], *want.caches()[i], /*tolerance=*/0.0))
        << label << " cache " << i;
  }
}

// --- Delta-vs-rebuild differential ----------------------------------------

class MvccDeltaDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

// Random view x random measure-update batch x semiring x {1,4} threads:
// WithMeasureDelta must equal a full Build against the updated catalog,
// bitwise (tolerance 0.0). With 4 threads the same immutable base cache is
// shared and each thread applies its own independent batch concurrently.
TEST_P(MvccDeltaDifferentialTest, DeltaMatchesRebuildBitwise) {
  const uint64_t seed = CaseSeed(GetParam());
  MPFDB_TRACE_SEED(seed);
  const Semiring semirings[] = {Semiring::SumProduct(), Semiring::MaxProduct()};
  for (size_t sr = 0; sr < 2; ++sr) {
    for (int threads : {1, 4}) {
      RandomView rv = MakeRandomView(seed, /*num_vars=*/5, /*num_rels=*/4,
                                     /*force_acyclic=*/(GetParam() % 2 == 0));
      rv.view.semiring = semirings[sr];
      auto base = VeCache::Build(rv.view, rv.catalog);
      ASSERT_TRUE(base.ok()) << base.status().message();
      ASSERT_TRUE(base->SupportsDelta());

      std::vector<std::vector<VeCacheDeltaOp>> batches(
          static_cast<size_t>(threads));
      for (int t = 0; t < threads; ++t) {
        Rng rng(seed * 31 + sr * 7 + static_cast<uint64_t>(threads * 100 + t));
        batches[static_cast<size_t>(t)] = RandomBatch(rv, rng);
      }

      // Each worker applies its own batch to the shared base concurrently;
      // results are compared on the main thread.
      std::vector<std::unique_ptr<StatusOr<VeCache>>> deltas(
          static_cast<size_t>(threads));
      std::vector<std::thread> workers;
      for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
          deltas[static_cast<size_t>(t)] = std::make_unique<StatusOr<VeCache>>(
              base->WithMeasureDelta(batches[static_cast<size_t>(t)]));
        });
      }
      for (auto& w : workers) w.join();

      for (int t = 0; t < threads; ++t) {
        const std::string label = "semiring " + std::to_string(sr) +
                                  " threads " + std::to_string(threads) +
                                  " worker " + std::to_string(t);
        StatusOr<VeCache>& delta = *deltas[static_cast<size_t>(t)];
        ASSERT_TRUE(delta.ok()) << label << ": " << delta.status().message();
        auto rebuilt = RebuildWithBatch(rv, batches[static_cast<size_t>(t)]);
        ASSERT_TRUE(rebuilt.ok()) << label << ": "
                                  << rebuilt.status().message();
        ExpectCachesBitIdentical(*delta, *rebuilt, label);
      }
    }
  }
}

// The same differential over views whose joins and folds take each path of
// the table kernels Build runs on — direct-address (dense keys), binary
// search (sparse keys) and the fr fallback (keys wider than 64 bits) — so
// the delta plan built from the kernels' row maps is checked on each. Three
// batches apply in sequence; the rebuild applies all of them at once.
TEST_P(MvccDeltaDifferentialTest, KernelPathsDeltaMatchesRebuildBitwise) {
  const uint64_t seed = CaseSeed(GetParam());
  MPFDB_TRACE_SEED(seed);
  for (KeyValues values :
       {KeyValues::kDense, KeyValues::kSparse, KeyValues::kWide}) {
    for (const Semiring& semiring :
         {Semiring::SumProduct(), Semiring::MaxProduct()}) {
      const std::string label = semiring.name() + " values " +
                                std::to_string(static_cast<int>(values));
      RandomView rv = MakeKeyedView(seed, values, /*extra_rels=*/0,
                                    /*signed_zeros=*/false);
      rv.view.semiring = semiring;
      auto base = VeCache::Build(rv.view, rv.catalog);
      ASSERT_TRUE(base.ok()) << label << ": " << base.status().message();
      ASSERT_TRUE(base->SupportsDelta()) << label;
      Rng rng(seed * 131 + static_cast<uint64_t>(values));
      VeCache current = *base;
      std::vector<VeCacheDeltaOp> all_ops;
      for (int batch = 0; batch < 3; ++batch) {
        std::vector<VeCacheDeltaOp> ops = RandomBatch(rv, rng);
        auto next = current.WithMeasureDelta(ops);
        ASSERT_TRUE(next.ok()) << label << ": " << next.status().message();
        current = std::move(*next);
        all_ops.insert(all_ops.end(), ops.begin(), ops.end());
      }
      auto rebuilt = RebuildWithBatch(rv, all_ops);
      ASSERT_TRUE(rebuilt.ok()) << label << ": " << rebuilt.status().message();
      ExpectCachesBitIdentical(current, *rebuilt, label);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MvccDeltaDifferentialTest,
                         ::testing::Range<uint64_t>(0, 6));

// An absorbing zero in a product semiring breaks exact replay (the backward
// pass would divide by the zero's contribution): the delta path must refuse
// with kFailedPrecondition, and the full-rebuild fallback must be correct.
TEST(MvccDeltaFallbackTest, AbsorbingZeroFallsBackToRebuild) {
  const uint64_t seed = CaseSeed(77);
  MPFDB_TRACE_SEED(seed);
  RandomView rv = MakeRandomView(seed, 4, 3, /*force_acyclic=*/true);
  rv.tables[0]->set_measure(0, 0.0);  // plant the absorbing zero pre-Build
  auto base = VeCache::Build(rv.view, rv.catalog);
  ASSERT_TRUE(base.ok()) << base.status().message();

  VeCacheDeltaOp op;
  op.table = rv.tables[0]->name();
  op.rows = {{0, 5.0}};
  auto refused = base->WithMeasureDelta({op});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);

  // The fallback a caller performs: rebuild against the updated catalog.
  // (Naive evaluation folds in a different order, hence the tolerance here;
  // the 0.0-tolerance delta-vs-rebuild guarantee is covered above.)
  auto rebuilt = RebuildWithBatch(rv, {op});
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().message();
  auto truth = fr::EvaluateNaiveMpf(rebuilt->base_tables(),
                                    {rv.present_vars[0]}, {},
                                    rv.view.semiring, "truth");
  ASSERT_TRUE(truth.ok());
  auto answer = rebuilt->Answer(MpfQuerySpec{{rv.present_vars[0]}, {}});
  ASSERT_TRUE(answer.ok()) << answer.status().message();
  EXPECT_TRUE(fr::TablesEqual(**truth, **answer, /*tolerance=*/1e-9));
}

// Database-level fallback: a commit touching an absorbing-zero row (or
// driving a row to zero) still refreshes the published cache correctly —
// the full_rebuilds counter proves the incremental path stepped aside.
TEST(MvccDeltaFallbackTest, DatabaseCommitFallsBackOnZero) {
  const uint64_t seed = CaseSeed(78);
  MPFDB_TRACE_SEED(seed);
  RandomView rv = MakeRandomView(seed, 4, 3, /*force_acyclic=*/false);
  Database db;
  Install(rv, db);
  ASSERT_TRUE(db.BuildCache(rv.view.name).ok());

  // Drive a row to zero (delta may refuse), then update the zero row (delta
  // must refuse); the cache stays exact either way.
  const std::string table = rv.tables[0]->name();
  RowView row = rv.tables[0]->Row(0);
  std::vector<VarValue> key(row.vars, row.vars + row.arity);
  ASSERT_TRUE(db.ApplyMeasureUpdate(table, key, 0.0).ok());
  ASSERT_TRUE(db.ApplyMeasureUpdate(table, key, 3.5).ok());
  auto stats = db.mvcc_stats();
  EXPECT_GE(stats.full_rebuilds, 1u);

  auto snap_tables = db.snapshot();
  std::vector<TablePtr> current;
  for (const auto& rel : rv.view.relations) {
    current.push_back(*snap_tables->catalog.GetTable(rel));
  }
  for (const auto& var : rv.present_vars) {
    auto truth = fr::EvaluateNaiveMpf(current, {var}, {}, rv.view.semiring,
                                      "truth");
    ASSERT_TRUE(truth.ok());
    auto cached = db.QueryCached(rv.view.name, MpfQuerySpec{{var}, {}});
    ASSERT_TRUE(cached.ok()) << cached.status().message();
    // Naive evaluation folds in a different order than the cache pipeline.
    EXPECT_TRUE(fr::TablesEqual(**truth, **cached, /*tolerance=*/1e-9)) << var;
  }
}

// The boolean semiring has no division, so the VE-cache (whose backward
// pass needs the update semijoin) must refuse to build — and the database
// update path must stay correct without any cache: a full Query after a
// commit matches naive evaluation bitwise.
TEST(MvccDeltaFallbackTest, BooleanSemiringHasNoCacheButCommitsStayExact) {
  Database db;
  ASSERT_TRUE(db.catalog().RegisterVariable("x", 3).ok());
  ASSERT_TRUE(db.catalog().RegisterVariable("y", 3).ok());
  auto r0 = std::make_shared<Table>("b0", Schema({"x", "y"}, "f"));
  auto r1 = std::make_shared<Table>("b1", Schema({"y"}, "f"));
  for (VarValue x = 0; x < 3; ++x) {
    for (VarValue y = 0; y < 3; ++y) r0->AppendRow({x, y}, (x + y) % 2);
  }
  for (VarValue y = 0; y < 3; ++y) r1->AppendRow({y}, 1.0);
  ASSERT_TRUE(db.CreateTable(r0).ok());
  ASSERT_TRUE(db.CreateTable(r1).ok());
  ASSERT_TRUE(db.CreateMpfView({"bv", {"b0", "b1"}, Semiring::BoolOrAnd()})
                  .ok());

  Status build = db.BuildCache("bv");
  ASSERT_FALSE(build.ok());
  EXPECT_EQ(build.code(), StatusCode::kFailedPrecondition);

  // Toggle measures through the MVCC commit path and check the full query
  // path differentially after each commit.
  for (int k = 0; k < 4; ++k) {
    ASSERT_TRUE(
        db.ApplyMeasureUpdate("b0", {static_cast<VarValue>(k % 3), 1},
                              k % 2 == 0 ? 1.0 : 0.0)
            .ok());
    auto snap = db.snapshot();
    std::vector<TablePtr> tables = {*snap->catalog.GetTable("b0"),
                                    *snap->catalog.GetTable("b1")};
    for (const char* var : {"x", "y"}) {
      auto truth = fr::EvaluateNaiveMpf(tables, {var}, {},
                                        Semiring::BoolOrAnd(), "truth");
      ASSERT_TRUE(truth.ok());
      auto got = db.Query("bv", MpfQuerySpec{{var}, {}});
      ASSERT_TRUE(got.ok()) << got.status().message();
      EXPECT_TRUE(fr::TablesEqual(**truth, *got->table, /*tolerance=*/0.0))
          << "var " << var << " step " << k;
    }
  }
}

// --- Snapshot isolation and version GC ------------------------------------

// A reader's pinned snapshot survives 100 commits untouched; versions share
// all unchanged chunks; releasing the pin lets GC reclaim every dead
// version, returning the live-chunk count to its baseline.
TEST(MvccSnapshotTest, PinnedReaderUnchangedAndGcReclaimsAfterRelease) {
  constexpr size_t kRows = 4 * mvcc::MeasureChunk::kRows;  // 4 chunks
  constexpr int kCommits = 100;
  Database db;
  ASSERT_TRUE(
      db.catalog().RegisterVariable("x", static_cast<int64_t>(kRows)).ok());
  auto table = std::make_shared<Table>("big", Schema({"x"}, "f"));
  for (size_t i = 0; i < kRows; ++i) {
    table->AppendRow({static_cast<VarValue>(i)}, 1.0 + i * 0.5);
  }
  ASSERT_TRUE(db.CreateTable(table).ok());
  ASSERT_EQ(table->NumMeasureChunks(), 4u);
  const int64_t baseline = mvcc::MeasureChunk::LiveCount();
  const uint64_t epoch0 = db.epoch();

  // Pin a snapshot and remember everything it can see.
  Database::SnapshotPtr snap = db.snapshot();
  TablePtr pinned = *snap->catalog.GetTable("big");
  std::vector<double> before(kRows);
  for (size_t i = 0; i < kRows; ++i) before[i] = pinned->measure(i);

  // Writer: 100 sequential commits, all hitting row 7 (same chunk).
  for (int k = 1; k <= kCommits; ++k) {
    ASSERT_TRUE(db.ApplyMeasureUpdate("big", {7}, 1000.0 + k).ok());
  }
  ASSERT_EQ(db.epoch(), epoch0 + kCommits);

  // Reader isolation: the pinned version is bitwise untouched.
  for (size_t i = 0; i < kRows; ++i) {
    ASSERT_EQ(pinned->measure(i), before[i]) << "row " << i;
  }

  // Structural sharing: the current version shares every chunk the writer
  // did not touch (3 of 4) with the pinned one.
  Database::SnapshotPtr cur = db.snapshot();
  TablePtr latest = *cur->catalog.GetTable("big");
  EXPECT_EQ(latest->measure(7), 1000.0 + kCommits);
  EXPECT_EQ(latest->SharedMeasureChunksWith(*pinned), 3u);

  // While the pin is held: all 100 superseded versions retired, but only
  // the pinned one survives collection (intermediates were born and died
  // with no pin covering them), so a 100-version history costs one extra
  // chunk, not 100 table copies (400 chunks).
  MvccStats held = db.mvcc_stats();
  EXPECT_EQ(held.versions_retired, static_cast<uint64_t>(kCommits));
  EXPECT_EQ(held.versions_retained, 1u);
  EXPECT_GE(held.pinned_snapshots, 1u);
  EXPECT_LE(static_cast<int64_t>(held.live_measure_chunks) - baseline, 2);

  // Release every reference to the old version and nudge GC with one more
  // commit (which also flushes the database's internal snapshot cache).
  snap.reset();
  cur.reset();
  pinned.reset();
  latest.reset();
  table.reset();
  ASSERT_TRUE(db.ApplyMeasureUpdate("big", {7}, 2000.0).ok());
  MvccStats after = db.mvcc_stats();
  EXPECT_EQ(after.versions_retired, static_cast<uint64_t>(kCommits) + 1);
  EXPECT_EQ(after.versions_collected, after.versions_retired);
  EXPECT_EQ(after.versions_retained, 0u);
  EXPECT_EQ(after.pinned_snapshots, 0u);
  // Every dead version's private chunk is gone: the live count is back to
  // the baseline (the current version's private chunk replaces the seed
  // version's copy of chunk 0).
  EXPECT_EQ(mvcc::MeasureChunk::LiveCount(), baseline);
}

// Commit cost is O(touched chunks), not O(table): a single-row update on a
// chunked table copies exactly one chunk no matter how large the table is.
TEST(MvccSnapshotTest, CommitAllocatesOnlyTouchedChunks) {
  constexpr size_t kRows = 8 * mvcc::MeasureChunk::kRows;  // 8 chunks
  Database db;
  ASSERT_TRUE(
      db.catalog().RegisterVariable("x", static_cast<int64_t>(kRows)).ok());
  auto table = std::make_shared<Table>("wide", Schema({"x"}, "f"));
  for (size_t i = 0; i < kRows; ++i) {
    table->AppendRow({static_cast<VarValue>(i)}, 2.0);
  }
  ASSERT_TRUE(db.CreateTable(table).ok());

  Database::SnapshotPtr snap = db.snapshot();  // pin the seed version
  const int64_t baseline = mvcc::MeasureChunk::LiveCount();
  ASSERT_TRUE(db.ApplyMeasureUpdate("wide", {3}, 9.0).ok());
  // One commit with both versions alive: exactly one chunk was copied.
  EXPECT_EQ(mvcc::MeasureChunk::LiveCount() - baseline, 1);
  TablePtr latest = *db.snapshot()->catalog.GetTable("wide");
  EXPECT_EQ(latest->SharedMeasureChunksWith(**snap->catalog.GetTable("wide")),
            7u);
}

// --- Group commit: coalescing and fairness --------------------------------

// N concurrent single-row writers must coalesce into at most ceil(N/batch)
// version bumps, every writer's row must land, and each ack's commit epoch
// must be exact.
TEST(MvccGroupCommitTest, ConcurrentWritersCoalesce) {
  constexpr int kWriters = 16;
  constexpr size_t kBatch = 4;
  DatabaseOptions options;
  options.commit_batch_max = kBatch;
  options.commit_linger_us = 200000;  // 200ms: arrivals beat the linger
  Database db(options);
  ASSERT_TRUE(db.catalog().RegisterVariable("x", kWriters).ok());
  auto table = std::make_shared<Table>("t", Schema({"x"}, "f"));
  for (VarValue i = 0; i < kWriters; ++i) table->AppendRow({i}, 1.0);
  ASSERT_TRUE(db.CreateTable(table).ok());
  const uint64_t epoch0 = db.epoch();

  std::atomic<int> ready{0};
  std::vector<uint64_t> commit_epochs(kWriters, 0);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      ready.fetch_add(1);
      while (ready.load() < kWriters) std::this_thread::yield();
      ASSERT_TRUE(db.ApplyMeasureUpdate("t", {static_cast<VarValue>(w)},
                                        100.0 + w,
                                        &commit_epochs[static_cast<size_t>(w)])
                      .ok());
    });
  }
  for (auto& w : writers) w.join();

  MvccStats stats = db.mvcc_stats();
  EXPECT_EQ(stats.updates_applied, static_cast<uint64_t>(kWriters));
  // Coalescing: strictly fewer version bumps than writers, bounded by the
  // batch quantum (the 200ms linger makes a premature drain all but
  // impossible; the bound still leaves one short batch of slack).
  EXPECT_LT(stats.commit_batches, static_cast<uint64_t>(kWriters));
  EXPECT_LE(stats.commit_batches,
            static_cast<uint64_t>(kWriters / kBatch + 1));
  EXPECT_EQ(stats.updates_coalesced,
            static_cast<uint64_t>(kWriters) - stats.commit_batches);
  // One epoch bump per batch, no more.
  EXPECT_EQ(db.epoch() - epoch0, stats.commit_batches);

  // Every writer's row landed, and its ack epoch is a real commit epoch at
  // which the row is visible.
  TablePtr latest = *db.snapshot()->catalog.GetTable("t");
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_EQ(latest->measure(static_cast<size_t>(w)), 100.0 + w) << w;
    EXPECT_GT(commit_epochs[static_cast<size_t>(w)], epoch0) << w;
    EXPECT_LE(commit_epochs[static_cast<size_t>(w)], db.epoch()) << w;
  }
}

// A saturating writer stream must not starve queued readers: writers bypass
// admission (they coalesce in the commit queue), so reader latency stays
// bounded and every reader makes steady progress.
TEST(MvccGroupCommitTest, WriterStreamDoesNotStarveReaders) {
  const uint64_t seed = CaseSeed(303);
  MPFDB_TRACE_SEED(seed);
  RandomView rv = MakeRandomView(seed, 4, 3, /*force_acyclic=*/true);
  Database db;
  Install(rv, db);
  ASSERT_TRUE(db.BuildCache(rv.view.name).ok());

  ServerOptions options;
  options.max_concurrent = 2;
  MpfServer server(db, options);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> writes{0};
  const std::string target = rv.tables[0]->name();
  RowView row0 = rv.tables[0]->Row(0);
  std::vector<VarValue> key(row0.vars, row0.vars + row0.arity);
  std::thread writer([&] {
    auto session = server.CreateSession("writer");
    int k = 0;
    while (!stop.load()) {
      ASSERT_TRUE(session->Update(target, key, 64.0 + (k++ % 512) * 0.125)
                      .ok());
      writes.fetch_add(1);
    }
  });

  constexpr int kReaders = 2;
  constexpr int kReadsEach = 40;
  std::vector<std::vector<double>> latencies(kReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      auto session = server.CreateSession("reader-" + std::to_string(r));
      Rng rng(seed + 50 + static_cast<uint64_t>(r));
      for (int i = 0; i < kReadsEach; ++i) {
        MpfQuerySpec spec{{Pick(rv.present_vars, rng)}, {}};
        auto begin = std::chrono::steady_clock::now();
        if (rng.Bernoulli(0.5)) {
          auto result = session->QueryCached(rv.view.name, spec);
          ASSERT_TRUE(result.ok()) << result.status().message();
        } else {
          auto result = session->Query(rv.view.name, spec);
          ASSERT_TRUE(result.ok()) << result.status().message();
        }
        auto end = std::chrono::steady_clock::now();
        latencies[static_cast<size_t>(r)].push_back(
            std::chrono::duration<double>(end - begin).count());
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true);
  writer.join();

  EXPECT_GT(writes.load(), 0u);
  EXPECT_EQ(server.stats().updates, writes.load());
  for (int r = 0; r < kReaders; ++r) {
    auto& lat = latencies[static_cast<size_t>(r)];
    ASSERT_EQ(lat.size(), static_cast<size_t>(kReadsEach));
    std::sort(lat.begin(), lat.end());
    // Admission p99 bound: generous (seconds) — the point is that readers
    // are never parked behind an unbounded writer stream, not a benchmark.
    EXPECT_LT(lat[static_cast<size_t>(kReadsEach * 99 / 100)], 5.0)
        << "reader " << r << " p99";
  }
  // The writer really did contend the whole time (values never repeat
  // back-to-back, so every write was effective).
  MvccStats stats = db.mvcc_stats();
  EXPECT_EQ(stats.updates_applied, writes.load());
}

}  // namespace
}  // namespace mpfdb
