// Tests for the concurrent serving layer: admission control (FIFO with
// per-session fairness), epoch-snapshot isolation of queries against
// concurrent updates, the shared plan cache's counters and invalidation,
// and a multi-session differential soak that replays every recorded query
// serially and demands bit-identical results (tolerance 0.0).

#include "server/server.h"

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "fr/algebra.h"
#include "random_view.h"
#include "server/net/client.h"
#include "server/net/net_server.h"
#include "server/plan_cache.h"
#include "util/rng.h"

namespace mpfdb {
namespace {

using server::MpfServer;
using server::PickNextTicket;
using server::ServerOptions;
using server::Session;
using server::Ticket;

// Installs a RandomView's variables, tables, and view into a database.
void Install(const RandomView& rv, Database& db) {
  for (const auto& var : rv.vars) {
    ASSERT_TRUE(
        db.catalog().RegisterVariable(var, *rv.catalog.DomainSize(var)).ok());
  }
  for (const auto& table : rv.tables) {
    ASSERT_TRUE(db.CreateTable(table).ok());
  }
  ASSERT_TRUE(db.CreateMpfView(rv.view).ok());
}

// --- PickNextTicket: the pure admission policy ----------------------------

TEST(AdmissionPolicyTest, EmptyReturnsSize) {
  EXPECT_EQ(PickNextTicket({}, {}), 0u);
}

TEST(AdmissionPolicyTest, FifoWhenSessionsEquallyLoaded) {
  std::vector<Ticket> waiting = {{1, 10}, {2, 11}, {3, 12}};
  EXPECT_EQ(PickNextTicket(waiting, {}), 0u);
  std::map<uint64_t, size_t> load = {{1, 2}, {2, 2}, {3, 2}};
  EXPECT_EQ(PickNextTicket(waiting, load), 0u);
}

TEST(AdmissionPolicyTest, PrefersLeastLoadedSession) {
  // Session 1 arrived first but already has a query in flight; session 2's
  // later ticket wins.
  std::vector<Ticket> waiting = {{1, 10}, {2, 11}};
  std::map<uint64_t, size_t> load = {{1, 1}};
  EXPECT_EQ(PickNextTicket(waiting, load), 1u);
}

TEST(AdmissionPolicyTest, TieAmongLeastLoadedBreaksByArrival) {
  std::vector<Ticket> waiting = {{1, 20}, {2, 18}, {3, 19}};
  std::map<uint64_t, size_t> load = {{1, 0}, {2, 0}, {3, 0}};
  EXPECT_EQ(PickNextTicket(waiting, load), 1u);  // seq 18
}

// --- Threaded admission ordering and fairness -----------------------------

// One tiny database all the admission tests can query.
class ServerAdmissionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rv_ = MakeRandomView(/*seed=*/7, /*num_vars=*/3, /*num_rels=*/3,
                         /*force_acyclic=*/true);
    Install(rv_, db_);
  }

  MpfQuerySpec AnyQuery() const { return MpfQuerySpec{{rv_.vars[0]}, {}}; }

  RandomView rv_;
  Database db_;
};

TEST_F(ServerAdmissionTest, PausedSubmissionsAdmitInFifoOrder) {
  ServerOptions options;
  options.max_concurrent = 1;
  options.record_admission_trace = true;
  MpfServer server(db_, options);

  constexpr int kSessions = 5;
  std::vector<std::shared_ptr<Session>> sessions;
  for (int i = 0; i < kSessions; ++i) {
    sessions.push_back(server.CreateSession("s" + std::to_string(i)));
  }

  server.Pause();
  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    // Stagger the submissions so the arrival order is exactly s0..s4: each
    // thread is only started once the previous one is visibly queued.
    threads.emplace_back([&, i] {
      auto result = sessions[static_cast<size_t>(i)]->Query(rv_.view.name,
                                                            AnyQuery());
      EXPECT_TRUE(result.ok()) << result.status().message();
    });
    while (server.stats().queued < static_cast<size_t>(i + 1)) {
      std::this_thread::yield();
    }
  }
  EXPECT_EQ(server.stats().queued, static_cast<size_t>(kSessions));
  EXPECT_EQ(server.stats().admitted, 0u);
  server.Resume();
  for (auto& t : threads) t.join();

  // Distinct idle sessions: fairness degenerates to pure FIFO.
  EXPECT_EQ(server.admission_trace(),
            (std::vector<std::string>{"s0", "s1", "s2", "s3", "s4"}));
  auto stats = server.stats();
  EXPECT_EQ(stats.admitted, static_cast<uint64_t>(kSessions));
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kSessions));
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.max_queue_depth, static_cast<size_t>(kSessions));
}

TEST_F(ServerAdmissionTest, FairnessPrefersIdleSessionOverBacklog) {
  // Queue [A, A, B] with two slots. The first admission takes A's first
  // ticket; the second must take B's — session A already holds a slot —
  // even though A's second ticket arrived earlier. Both picks happen in one
  // locked admission sweep at Resume, so the order is deterministic.
  ServerOptions options;
  options.max_concurrent = 2;
  options.record_admission_trace = true;
  MpfServer server(db_, options);
  auto a = server.CreateSession("A");
  auto b = server.CreateSession("B");

  server.Pause();
  std::vector<std::thread> threads;
  auto submit = [&](std::shared_ptr<Session> s, size_t want_queued) {
    threads.emplace_back([this, &server, s] {
      auto result = s->Query(rv_.view.name, AnyQuery());
      EXPECT_TRUE(result.ok()) << result.status().message();
    });
    while (server.stats().queued < want_queued) std::this_thread::yield();
  };
  submit(a, 1);
  submit(a, 2);
  submit(b, 3);
  server.Resume();
  for (auto& t : threads) t.join();

  EXPECT_EQ(server.admission_trace(),
            (std::vector<std::string>{"A", "B", "A"}));
}

TEST_F(ServerAdmissionTest, QueueFullRejectsAndShutdownDrains) {
  ServerOptions options;
  options.max_concurrent = 1;
  options.max_queued = 1;
  MpfServer server(db_, options);
  auto session = server.CreateSession();

  server.Pause();
  std::thread queued([&] {
    auto result = session->Query(rv_.view.name, AnyQuery());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  });
  while (server.stats().queued < 1) std::this_thread::yield();

  // The queue (capacity 1) is full: an immediate rejection, no blocking.
  auto rejected = session->Query(rv_.view.name, AnyQuery());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  server.Shutdown();
  queued.join();
  auto stats = server.stats();
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.admitted, 0u);

  // Post-shutdown submissions are refused outright.
  auto after = session->Query(rv_.view.name, AnyQuery());
  EXPECT_EQ(after.status().code(), StatusCode::kCancelled);
}

TEST_F(ServerAdmissionTest, SlotMemoryPartitionDegradesNotFails) {
  ServerOptions options;
  options.max_concurrent = 2;
  options.global_memory_limit = 2 << 20;  // 1 MiB per slot
  MpfServer server(db_, options);
  auto session = server.CreateSession();
  auto result = session->Query(rv_.view.name, AnyQuery());
  ASSERT_TRUE(result.ok()) << result.status().message();

  // The caller's context limit is tightened for the query, then restored.
  QueryContext ctx;
  auto governed = session->Query(rv_.view.name, AnyQuery(), "cs+nonlinear",
                                 &ctx);
  ASSERT_TRUE(governed.ok()) << governed.status().message();
  EXPECT_EQ(ctx.memory_limit(), 0u);
}

// --- Queued-query deadline/cancel handling and lifecycle races ------------

TEST_F(ServerAdmissionTest, QueuedQueryHonorsDeadlineWhileWaiting) {
  ServerOptions options;
  options.max_concurrent = 1;
  options.shed_doomed_queries = false;  // exercise the in-queue timeout path
  MpfServer server(db_, options);
  auto session = server.CreateSession();

  server.Pause();
  QueryContext ctx;
  ctx.set_deadline_after(std::chrono::milliseconds(60));
  auto started = std::chrono::steady_clock::now();
  auto result = session->Query(rv_.view.name, AnyQuery(), "cs+nonlinear",
                               &ctx);
  auto waited = std::chrono::steady_clock::now() - started;
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  // Fail-fast: within the deadline plus one poll tick, not until Resume.
  EXPECT_LT(waited, std::chrono::seconds(10));
  auto stats = server.stats();
  EXPECT_EQ(stats.timed_out, 1u);
  EXPECT_EQ(stats.queued, 0u);  // the dead ticket left the queue
  EXPECT_EQ(stats.admitted, 0u);

  // The queue still works afterwards: the dead ticket is never picked.
  server.Resume();
  EXPECT_TRUE(session->Query(rv_.view.name, AnyQuery()).ok());
}

TEST_F(ServerAdmissionTest, QueuedQueryHonorsCancelWhileWaiting) {
  ServerOptions options;
  options.max_concurrent = 1;
  MpfServer server(db_, options);
  auto session = server.CreateSession();

  server.Pause();
  QueryContext ctx;
  std::thread waiter([&] {
    auto result = session->Query(rv_.view.name, AnyQuery(), "cs+nonlinear",
                                 &ctx);
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  });
  while (server.stats().queued < 1) std::this_thread::yield();
  ctx.RequestCancel();
  waiter.join();  // must return promptly, not wait for Resume/Shutdown
  auto stats = server.stats();
  EXPECT_EQ(stats.timed_out, 1u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.admitted, 0u);

  server.Resume();
  EXPECT_TRUE(session->Query(rv_.view.name, AnyQuery()).ok());
}

TEST_F(ServerAdmissionTest, DoomedDeadlineIsShedAtEnqueueWithHint) {
  ServerOptions options;
  options.max_concurrent = 1;
  MpfServer server(db_, options);
  auto session = server.CreateSession();
  // Prime the service-time EMA so the estimator is live.
  ASSERT_TRUE(session->Query(rv_.view.name, AnyQuery()).ok());
  EXPECT_GE(server.RetryAfterHintMs(), 1u);

  // Stage one queued request (paused server) so the estimated wait is a
  // full EMA service time, then submit an already-hopeless deadline: it
  // must be rejected at enqueue — immediately, with kResourceExhausted —
  // not queued to die.
  server.Pause();
  std::thread waiter([&] {
    auto result = session->Query(rv_.view.name, AnyQuery());
    EXPECT_TRUE(result.ok()) << result.status().message();
  });
  while (server.stats().queued < 1) std::this_thread::yield();
  QueryContext ctx;
  ctx.set_deadline(std::chrono::steady_clock::now());
  auto shed = session->Query(rv_.view.name, AnyQuery(), "cs+nonlinear", &ctx);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  auto stats = server.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.queued, 1u);  // only the staged waiter
  server.Resume();
  waiter.join();

  // With shedding disabled the same request queues and times out instead.
  ServerOptions no_shed = options;
  no_shed.shed_doomed_queries = false;
  MpfServer server2(db_, no_shed);
  auto session2 = server2.CreateSession();
  server2.Pause();
  QueryContext ctx2;
  ctx2.set_deadline(std::chrono::steady_clock::now());
  auto timed_out = session2->Query(rv_.view.name, AnyQuery(), "cs+nonlinear",
                                   &ctx2);
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(server2.stats().shed, 0u);
  EXPECT_EQ(server2.stats().timed_out, 1u);
  server2.Resume();
}

TEST_F(ServerAdmissionTest, ShutdownWithPopulatedQueueFailsEveryTicket) {
  ServerOptions options;
  options.max_concurrent = 1;
  MpfServer server(db_, options);
  auto session = server.CreateSession();

  server.Pause();
  constexpr int kQueued = 3;
  std::vector<std::thread> threads;
  for (int i = 0; i < kQueued; ++i) {
    threads.emplace_back([&] {
      auto result = session->Query(rv_.view.name, AnyQuery());
      EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
    });
    while (server.stats().queued < static_cast<size_t>(i + 1)) {
      std::this_thread::yield();
    }
  }
  server.Shutdown();
  for (auto& t : threads) t.join();
  auto stats = server.stats();
  EXPECT_EQ(stats.rejected, static_cast<uint64_t>(kQueued));
  EXPECT_EQ(stats.admitted, 0u);
  EXPECT_EQ(stats.queued, 0u);
}

TEST_F(ServerAdmissionTest, ShutdownLetsInFlightWorkComplete) {
  ServerOptions options;
  options.max_concurrent = 1;
  MpfServer server(db_, options);
  auto session = server.CreateSession();

  std::thread worker([&] {
    auto result = session->Query(rv_.view.name, AnyQuery());
    EXPECT_TRUE(result.ok()) << result.status().message();
  });
  // Catch the query either in flight or already done, then shut down: the
  // admitted query must complete with its result, never be torn down.
  while (server.stats().in_flight == 0 && server.stats().completed == 0) {
    std::this_thread::yield();
  }
  server.Shutdown();
  worker.join();
  auto stats = server.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST_F(ServerAdmissionTest, PauseResumeRacingSubmissionsLosesNothing) {
  ServerOptions options;
  options.max_concurrent = 2;
  MpfServer server(db_, options);

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 8;
  std::atomic<bool> start{false};
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto session = server.CreateSession("race-" + std::to_string(t));
      while (!start.load()) std::this_thread::yield();
      for (int op = 0; op < kOpsPerThread; ++op) {
        auto result = session->Query(rv_.view.name, AnyQuery());
        if (result.ok()) ++ok_count;
      }
    });
  }
  start.store(true);
  // Toggle Pause/Resume against the submission stream.
  for (int i = 0; i < 20; ++i) {
    server.Pause();
    std::this_thread::yield();
    server.Resume();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& t : threads) t.join();

  // Nothing lost, nothing stuck: every submission was admitted and
  // completed (Pause only delays, it never rejects).
  auto stats = server.stats();
  EXPECT_EQ(ok_count.load(), kThreads * kOpsPerThread);
  EXPECT_EQ(stats.admitted, static_cast<uint64_t>(kThreads * kOpsPerThread));
  EXPECT_EQ(stats.completed, stats.admitted);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.queued, 0u);
}

// --- Slow-query log and the metrics dump ----------------------------------

TEST_F(ServerAdmissionTest, SlowQueryLogRecordsOverThreshold) {
  ServerOptions options;
  options.slow_query_seconds = 1e-9;  // record everything
  options.slow_query_log_capacity = 2;
  MpfServer server(db_, options);
  auto session = server.CreateSession("logger");

  MpfQuerySpec with_sel{{rv_.vars[0]}, {{rv_.vars[1], 0}}};
  ASSERT_TRUE(session->Query(rv_.view.name, AnyQuery()).ok());
  ASSERT_TRUE(session->Query(rv_.view.name, AnyQuery()).ok());
  ASSERT_TRUE(session->Query(rv_.view.name, with_sel).ok());

  // Capacity 2: the first record was evicted, latest two remain in order.
  auto log = server.slow_queries();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(server.stats().slow_queries, 3u);
  EXPECT_EQ(log[0].session, "logger");
  EXPECT_EQ(log[0].view, rv_.view.name);
  EXPECT_GT(log[0].seconds, 0.0);
  EXPECT_FALSE(log[1].canonical_query.empty());
  // The canonical form distinguishes the selection query.
  EXPECT_NE(log[0].canonical_query, log[1].canonical_query);

  // Threshold disabled: nothing is recorded.
  MpfServer quiet(db_, ServerOptions{});
  auto qsession = quiet.CreateSession();
  ASSERT_TRUE(qsession->Query(rv_.view.name, AnyQuery()).ok());
  EXPECT_TRUE(quiet.slow_queries().empty());
  EXPECT_EQ(quiet.stats().slow_queries, 0u);
}

TEST_F(ServerAdmissionTest, MetricsTextReportsCountersAndSlowQueries) {
  ServerOptions options;
  options.slow_query_seconds = 1e-9;
  MpfServer server(db_, options);
  auto session = server.CreateSession("mx");
  ASSERT_TRUE(session->Query(rv_.view.name, AnyQuery()).ok());
  ASSERT_TRUE(session->Query(rv_.view.name, AnyQuery()).ok());

  std::string text = server.MetricsText();
  EXPECT_NE(text.find("server_submitted 2"), std::string::npos) << text;
  EXPECT_NE(text.find("server_completed 2"), std::string::npos) << text;
  EXPECT_NE(text.find("server_failed 0"), std::string::npos) << text;
  EXPECT_NE(text.find("server_shed 0"), std::string::npos) << text;
  EXPECT_NE(text.find("plan_cache_hits"), std::string::npos) << text;
  EXPECT_NE(text.find("plan_cache_hit_rate"), std::string::npos) << text;
  EXPECT_NE(text.find("slow_query session=mx"), std::string::npos) << text;
  EXPECT_NE(text.find("view=" + rv_.view.name), std::string::npos) << text;
}

// --- Epoch-snapshot isolation under concurrent updates --------------------

TEST(ServerEpochTest, ConcurrentUpdatesNeverTearQueries) {
  // One table r(x) with two rows. An updater rewrites row {0}'s measure to
  // 1 + k (update k bumps the epoch by exactly 1), while readers run Query
  // and QueryApprox on the view. Every result must be internally consistent
  // with its reported snapshot epoch: measure(x=0) == 1 + (epoch - base).
  Database db;
  ASSERT_TRUE(db.catalog().RegisterVariable("x", 2).ok());
  auto table = std::make_shared<Table>("r", Schema({"x"}, "f"));
  table->AppendRow({0}, 1.0);
  table->AppendRow({1}, 4.0);
  ASSERT_TRUE(db.CreateTable(table).ok());
  ASSERT_TRUE(db.CreateMpfView({"v", {"r"}, Semiring::SumProduct()}).ok());
  ASSERT_TRUE(db.BuildCache("v").ok());
  const uint64_t base = db.epoch();

  // Enough commits that they keep landing while the readers run.
  constexpr int kUpdates = 400;
  constexpr int kReaders = 3;
  std::atomic<bool> start{false};
  std::atomic<int> failures{0};

  std::thread updater([&] {
    while (!start.load()) std::this_thread::yield();
    for (int k = 1; k <= kUpdates; ++k) {
      Status s = db.ApplyMeasureUpdate("r", {0}, 1.0 + k);
      if (!s.ok()) ++failures;
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!start.load()) std::this_thread::yield();
      for (int i = 0; i < 40; ++i) {
        auto result = db.Query("v", MpfQuerySpec{{"x"}, {}});
        if (!result.ok()) {
          ++failures;
          continue;
        }
        const Table& t = *result->table;
        uint64_t k = result->snapshot_epoch - base;
        bool consistent = false;
        for (size_t row = 0; row < t.NumRows(); ++row) {
          if (t.Row(row).var(0) == 0) {
            consistent = t.measure(row) == 1.0 + static_cast<double>(k);
          }
        }
        if (!consistent) ++failures;

        // The view is acyclic, so QueryApprox answers exactly — and must do
        // so at the epoch it reports.
        auto approx = db.QueryApprox("v", MpfQuerySpec{{"x"}, {}});
        if (!approx.ok()) {
          ++failures;
        } else {
          uint64_t ak = approx->snapshot_epoch - base;
          bool approx_consistent = false;
          for (size_t row = 0; row < approx->estimate->NumRows(); ++row) {
            if (approx->estimate->Row(row).var(0) == 0) {
              approx_consistent = approx->estimate->measure(row) ==
                                  1.0 + static_cast<double>(ak);
            }
          }
          if (approx->approximate || !approx_consistent) ++failures;
        }

        // QueryCached pinned to one epoch (no update raced the call) must
        // agree with the refreshed cache for that epoch.
        uint64_t pre = db.epoch();
        auto cached = db.QueryCached("v", MpfQuerySpec{{"x"}, {}});
        uint64_t post = db.epoch();
        if (!cached.ok()) {
          ++failures;
        } else if (pre == post) {
          uint64_t ck = pre - base;
          for (size_t row = 0; row < (*cached)->NumRows(); ++row) {
            if ((*cached)->Row(row).var(0) == 0 &&
                (*cached)->measure(row) != 1.0 + static_cast<double>(ck)) {
              ++failures;
            }
          }
        }
      }
    });
  }
  start.store(true);
  updater.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(db.epoch(), base + kUpdates);
}

TEST(ServerEpochTest, CacheRefreshTracksUpdatesNotStaleServing) {
  Database db;
  ASSERT_TRUE(db.catalog().RegisterVariable("x", 2).ok());
  ASSERT_TRUE(db.catalog().RegisterVariable("y", 2).ok());
  auto r0 = std::make_shared<Table>("r0", Schema({"x", "y"}, "f"));
  r0->AppendRow({0, 0}, 2.0);
  r0->AppendRow({0, 1}, 3.0);
  r0->AppendRow({1, 0}, 5.0);
  auto r1 = std::make_shared<Table>("r1", Schema({"y"}, "f"));
  r1->AppendRow({0}, 0.5);
  r1->AppendRow({1}, 4.0);
  ASSERT_TRUE(db.CreateTable(r0).ok());
  ASSERT_TRUE(db.CreateTable(r1).ok());
  ASSERT_TRUE(db.CreateMpfView({"v", {"r0", "r1"}, Semiring::SumProduct()})
                  .ok());
  ASSERT_TRUE(db.BuildCache("v").ok());

  ASSERT_TRUE(db.ApplyMeasureUpdate("r0", {0, 1}, 7.0).ok());

  // The cache must answer from the refreshed state: compare against an
  // uncached query at the same (current) epoch.
  auto cached = db.QueryCached("v", MpfQuerySpec{{"x"}, {}});
  ASSERT_TRUE(cached.ok()) << cached.status().message();
  auto fresh = db.Query("v", MpfQuerySpec{{"x"}, {}});
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fr::TablesEqual(**cached, *fresh->table, 1e-9));

  // The base table the reader snapshot saw before the update is untouched
  // (copy-on-write): the original shared_ptr still holds measure 3.0.
  EXPECT_EQ(r0->measure(1), 3.0);
}

// --- Plan cache counters and epoch invalidation ---------------------------

TEST(PlanCacheTest, HitMissInvalidationCounters) {
  Database db;
  ASSERT_TRUE(db.catalog().RegisterVariable("x", 3).ok());
  auto table = std::make_shared<Table>("r", Schema({"x"}, "f"));
  table->AppendRow({0}, 1.0);
  table->AppendRow({1}, 2.0);
  table->AppendRow({2}, 0.5);
  ASSERT_TRUE(db.CreateTable(table).ok());
  ASSERT_TRUE(db.CreateMpfView({"v", {"r"}, Semiring::SumProduct()}).ok());
  MpfQuerySpec query{{"x"}, {}};

  auto first = db.Query("v", query);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->plan_cache_hit);
  auto second = db.Query("v", query);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->plan_cache_hit);
  EXPECT_TRUE(fr::TablesEqual(*first->table, *second->table, 0.0));

  auto stats = db.plan_cache().stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.invalidations, 0u);
  EXPECT_EQ(stats.entries, 1u);

  // A different query misses; a permuted-selection query shares the entry.
  auto other = db.Query("v", MpfQuerySpec{{}, {{"x", 1}}});
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other->plan_cache_hit);
  EXPECT_EQ(db.plan_cache().stats().misses, 2u);

  // A measure update bumps only the data epoch: cached plans survive (a
  // plan depends on schema shape, not measure values) and the next query
  // hits while still reading the refreshed state.
  ASSERT_TRUE(db.ApplyMeasureUpdate("r", {1}, 6.0).ok());
  stats = db.plan_cache().stats();
  EXPECT_EQ(stats.invalidations, 0u);
  EXPECT_EQ(stats.entries, 2u);

  auto after = db.Query("v", query);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->plan_cache_hit);
  // And the cached-plan result reflects the new measure.
  bool found = false;
  for (size_t i = 0; i < after->table->NumRows(); ++i) {
    if (after->table->Row(i).var(0) == 1) {
      EXPECT_EQ(after->table->measure(i), 6.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);

  // A structural change (new table) bumps the structural epoch: every entry
  // is invalidated (counted) and the next query re-plans.
  ASSERT_TRUE(db.catalog().RegisterVariable("y", 2).ok());
  auto extra = std::make_shared<Table>("extra", Schema({"y"}, "f"));
  extra->AppendRow({0}, 1.0);
  extra->AppendRow({1}, 1.0);
  ASSERT_TRUE(db.CreateTable(extra).ok());
  stats = db.plan_cache().stats();
  EXPECT_EQ(stats.invalidations, 2u);
  EXPECT_EQ(stats.entries, 0u);

  auto replanned = db.Query("v", query);
  ASSERT_TRUE(replanned.ok());
  EXPECT_FALSE(replanned->plan_cache_hit);
  auto again = db.Query("v", query);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->plan_cache_hit);
}

TEST(PlanCacheTest, KeyCanonicalizationAndEviction) {
  using server::CanonicalQueryKey;
  MpfQuerySpec a{{"x", "y"}, {{"u", 1}, {"t", 0}}};
  MpfQuerySpec b{{"x", "y"}, {{"t", 0}, {"u", 1}}};
  EXPECT_EQ(CanonicalQueryKey(a), CanonicalQueryKey(b));
  MpfQuerySpec c{{"y", "x"}, {{"t", 0}, {"u", 1}}};
  EXPECT_NE(CanonicalQueryKey(a), CanonicalQueryKey(c));  // schema order kept

  server::PlanCache cache(/*capacity=*/2);
  auto plan = std::make_shared<server::CachedPlan>();
  cache.Insert("k1", 0, plan);
  cache.Insert("k2", 0, plan);
  EXPECT_NE(cache.Lookup("k1", 0), nullptr);  // k1 now most recent
  cache.Insert("k3", 0, plan);                // evicts k2 (LRU)
  EXPECT_EQ(cache.Lookup("k2", 0), nullptr);
  EXPECT_NE(cache.Lookup("k1", 0), nullptr);
  EXPECT_NE(cache.Lookup("k3", 0), nullptr);
  auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);

  // Stale lookup: counted as invalidation + miss, entry dropped.
  EXPECT_EQ(cache.Lookup("k1", 5), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

// --- Multi-session differential soak --------------------------------------

struct RecordedQuery {
  size_t view = 0;  // index into the soak's views
  MpfQuerySpec spec;
  bool cached = false;     // QueryCached instead of Query
  uint64_t epoch = 0;      // snapshot epoch the result was served at
  bool epoch_exact = true; // false: cached call raced an update, skip replay
  TablePtr result;
};

TEST(ServerSoakTest, ConcurrentSessionsBitIdenticalToSerialReplay) {
  constexpr int kViews = 3;
  constexpr int kSessions = 4;
  constexpr int kOpsPerSession = 24;
  constexpr int kUpdates = 10;
  const uint64_t seed = CaseSeed(101);
  MPFDB_TRACE_SEED(seed);

  // Live database: kViews independent random views, VE-caches on all of
  // them; view 0's first relation receives the update stream.
  Database db;
  std::vector<RandomView> views;
  for (int i = 0; i < kViews; ++i) {
    views.push_back(MakeRandomView(seed + static_cast<uint64_t>(i),
                                   /*num_vars=*/4, /*num_rels=*/3,
                                   /*force_acyclic=*/(i % 2 == 0),
                                   "s" + std::to_string(i) + "_"));
    Install(views.back(), db);
    ASSERT_TRUE(db.BuildCache(views.back().view.name).ok());
  }
  const uint64_t base = db.epoch();

  // The update stream: rewrite the measure of row 0 of view 0's first
  // relation to values never equal to the current one, so every update
  // commits (bumping the epoch by exactly 1) — epoch base + k means the
  // first k updates are visible.
  const Table& target = *views[0].tables[0];
  std::vector<VarValue> target_row(target.Row(0).vars,
                                   target.Row(0).vars + target.Row(0).arity);
  auto update_value = [](int k) { return 16.0 + k * 0.125; };  // exact in FP

  std::atomic<bool> start{false};
  std::atomic<bool> done{false};
  std::thread updater([&] {
    while (!start.load()) std::this_thread::yield();
    for (int k = 0; k < kUpdates; ++k) {
      ASSERT_TRUE(db.ApplyMeasureUpdate(views[0].tables[0]->name(),
                                        target_row, update_value(k))
                      .ok());
      std::this_thread::yield();
    }
    done.store(true);
  });

  server::ServerOptions options;
  options.max_concurrent = 3;
  options.global_memory_limit = 64u << 20;
  MpfServer server(db, options);
  std::vector<std::vector<RecordedQuery>> recorded(kSessions);
  std::vector<std::thread> workers;
  for (int s = 0; s < kSessions; ++s) {
    workers.emplace_back([&, s] {
      auto session = server.CreateSession("soak-" + std::to_string(s));
      Rng rng(seed + 1000 + static_cast<uint64_t>(s));
      while (!start.load()) std::this_thread::yield();
      for (int op = 0; op < kOpsPerSession; ++op) {
        RecordedQuery rec;
        rec.view = static_cast<size_t>(rng.UniformInt(0, kViews - 1));
        const RandomView& rv = views[rec.view];
        MpfQuerySpec spec;
        spec.group_vars = {Pick(rv.present_vars, rng)};
        if (rng.Bernoulli(0.4)) {
          const std::string& sel = Pick(rv.present_vars, rng);
          if (sel != spec.group_vars[0]) {
            spec.selections.push_back(QuerySelection{
                sel, static_cast<VarValue>(rng.UniformInt(
                         0, *rv.catalog.DomainSize(sel) - 1))});
          }
        }
        rec.spec = spec;
        rec.cached = rng.Bernoulli(0.3);
        if (rec.cached) {
          uint64_t pre = db.epoch();
          auto result = session->QueryCached(rv.view.name, spec);
          uint64_t post = db.epoch();
          ASSERT_TRUE(result.ok()) << result.status().message();
          rec.epoch = pre;
          rec.epoch_exact = pre == post;
          rec.result = *result;
        } else {
          auto result = session->Query(rv.view.name, spec);
          ASSERT_TRUE(result.ok()) << result.status().message();
          rec.epoch = result->snapshot_epoch;
          rec.result = result->table;
        }
        recorded[static_cast<size_t>(s)].push_back(std::move(rec));
      }
    });
  }
  start.store(true);
  updater.join();
  for (auto& t : workers) t.join();
  ASSERT_TRUE(done.load());
  ASSERT_EQ(db.epoch(), base + kUpdates);

  // The serving layer actually served concurrently and the plan cache
  // actually earned its keep.
  auto sstats = server.stats();
  EXPECT_EQ(sstats.admitted,
            static_cast<uint64_t>(kSessions * kOpsPerSession));
  EXPECT_EQ(sstats.completed, sstats.admitted);
  auto pstats = db.plan_cache().stats();
  EXPECT_GT(pstats.hits, 0u);
  // Plans are keyed on the structural epoch now, so the measure-update
  // stream must not have invalidated a single cached plan.
  EXPECT_EQ(pstats.invalidations, 0u);

  // Serial replay: a fresh database built from the same seeds, stepped
  // through the same update stream one epoch at a time. Every recorded
  // query re-runs serially at its epoch and must match bit-for-bit.
  Database replay;
  std::vector<RandomView> replay_views;
  for (int i = 0; i < kViews; ++i) {
    replay_views.push_back(MakeRandomView(seed + static_cast<uint64_t>(i),
                                          4, 3, (i % 2 == 0),
                                          "s" + std::to_string(i) + "_"));
    Install(replay_views.back(), replay);
    ASSERT_TRUE(replay.BuildCache(replay_views.back().view.name).ok());
  }

  // Group recorded queries by the number of updates their epoch reflects.
  std::map<uint64_t, std::vector<const RecordedQuery*>> by_step;
  size_t replayed = 0, skipped = 0;
  for (const auto& session_log : recorded) {
    for (const auto& rec : session_log) {
      if (rec.cached && !rec.epoch_exact) {
        ++skipped;  // raced an update; no single epoch to replay at
        continue;
      }
      by_step[rec.epoch - base].push_back(&rec);
      ++replayed;
    }
  }
  for (uint64_t step = 0, applied = 0; step <= kUpdates; ++step) {
    while (applied < step) {
      ASSERT_TRUE(replay
                      .ApplyMeasureUpdate(replay_views[0].tables[0]->name(),
                                          target_row,
                                          update_value(static_cast<int>(
                                              applied)))
                      .ok());
      ++applied;
    }
    auto it = by_step.find(step);
    if (it == by_step.end()) continue;
    for (const RecordedQuery* rec : it->second) {
      const std::string& view_name = replay_views[rec->view].view.name;
      TablePtr expected;
      if (rec->cached) {
        auto result = replay.QueryCached(view_name, rec->spec);
        ASSERT_TRUE(result.ok()) << result.status().message();
        expected = *result;
      } else {
        auto result = replay.Query(view_name, rec->spec);
        ASSERT_TRUE(result.ok()) << result.status().message();
        expected = result->table;
      }
      EXPECT_TRUE(fr::TablesEqual(*expected, *rec->result,
                                  /*tolerance=*/0.0))
          << (rec->cached ? "cached" : "query") << " on view " << view_name
          << " at step " << step;
    }
  }
  // The race-skip path should be the exception, not the rule.
  EXPECT_GT(replayed, skipped);
}

// --- MVCC mixed readers+writers soak --------------------------------------

struct RecordedUpdate {
  uint64_t commit_epoch = 0;  // exact epoch of the commit (from the ack)
  std::string table;
  std::vector<VarValue> row_vars;
  double value = 0;
};

// Four sessions — two in-process, two over the wire — mix reads and writes
// at the parameterized write fraction. Every session writes only its own
// (table, row) target, so the order inside one coalesced commit batch never
// matters and the exact ack epochs define a serial schedule: a fresh
// database stepped through the recorded commits in epoch order must
// reproduce every recorded query result bit-for-bit (tolerance 0.0).
class MvccSoakTest : public ::testing::TestWithParam<double> {};

TEST_P(MvccSoakTest, MixedReadersWritersBitIdenticalToSerialReplay) {
  const double write_frac = GetParam();
  constexpr int kViews = 2;
  constexpr int kSessions = 4;
  constexpr int kOpsPerSession = 32;
  const uint64_t seed =
      CaseSeed(401 + static_cast<uint64_t>(write_frac * 1000));
  MPFDB_TRACE_SEED(seed);

  Database db;
  std::vector<RandomView> views;
  for (int i = 0; i < kViews; ++i) {
    views.push_back(MakeRandomView(seed + static_cast<uint64_t>(i),
                                   /*num_vars=*/4, /*num_rels=*/3,
                                   /*force_acyclic=*/(i % 2 == 0),
                                   "m" + std::to_string(i) + "_"));
    Install(views.back(), db);
    ASSERT_TRUE(db.BuildCache(views.back().view.name).ok());
  }
  const uint64_t base = db.epoch();

  // Session s writes row 0 of views[s % kViews].tables[s / kViews]: four
  // distinct (table, row) targets, never a conflict inside a batch. Values
  // are exact in FP, session-disjoint, and strictly increasing, so no
  // update is ever a no-op.
  struct WriteTarget {
    std::string table;
    std::vector<VarValue> row;
  };
  std::vector<WriteTarget> targets;
  for (int s = 0; s < kSessions; ++s) {
    const RandomView& rv = views[static_cast<size_t>(s % kViews)];
    const Table& t = *rv.tables[static_cast<size_t>(s / kViews) %
                                rv.tables.size()];
    RowView r0 = t.Row(0);
    targets.push_back(
        {t.name(), std::vector<VarValue>(r0.vars, r0.vars + r0.arity)});
  }
  auto write_value = [](int s, int k) { return 128.0 + s * 16.0 + k * 0.125; };

  server::ServerOptions sopts;
  sopts.max_concurrent = 3;
  sopts.global_memory_limit = 64u << 20;
  MpfServer server(db, sopts);
  server::net::NetServer net(server);
  ASSERT_TRUE(net.Start().ok());

  std::vector<std::vector<RecordedQuery>> recorded(kSessions);
  std::vector<std::vector<RecordedUpdate>> written(kSessions);
  std::atomic<bool> start{false};
  std::vector<std::thread> workers;
  for (int s = 0; s < kSessions; ++s) {
    workers.emplace_back([&, s] {
      const bool wire = s >= kSessions / 2;
      std::unique_ptr<server::net::NetClient> client;
      std::shared_ptr<Session> session;
      if (wire) {
        auto connected = server::net::NetClient::Connect(net.port());
        ASSERT_TRUE(connected.ok()) << connected.status().message();
        client = std::move(*connected);
        ASSERT_TRUE(client->set_recv_timeout_ms(30000).ok());
      } else {
        session = server.CreateSession("mvcc-soak-" + std::to_string(s));
      }
      Rng rng(seed + 2000 + static_cast<uint64_t>(s));
      int writes = 0;
      while (!start.load()) std::this_thread::yield();
      for (int op = 0; op < kOpsPerSession; ++op) {
        if (rng.Bernoulli(write_frac)) {
          RecordedUpdate up;
          up.table = targets[static_cast<size_t>(s)].table;
          up.row_vars = targets[static_cast<size_t>(s)].row;
          up.value = write_value(s, writes++);
          if (wire) {
            auto epoch = client->Update(up.table, up.row_vars, up.value);
            ASSERT_TRUE(epoch.ok()) << epoch.status().message();
            up.commit_epoch = *epoch;
          } else {
            ASSERT_TRUE(session
                            ->Update(up.table, up.row_vars, up.value,
                                     &up.commit_epoch)
                            .ok());
          }
          written[static_cast<size_t>(s)].push_back(std::move(up));
          continue;
        }
        RecordedQuery rec;
        rec.view = static_cast<size_t>(rng.UniformInt(0, kViews - 1));
        const RandomView& rv = views[rec.view];
        MpfQuerySpec spec;
        spec.group_vars = {Pick(rv.present_vars, rng)};
        if (rng.Bernoulli(0.4)) {
          const std::string& sel = Pick(rv.present_vars, rng);
          if (sel != spec.group_vars[0]) {
            spec.selections.push_back(QuerySelection{
                sel, static_cast<VarValue>(rng.UniformInt(
                         0, *rv.catalog.DomainSize(sel) - 1))});
          }
        }
        rec.spec = spec;
        rec.cached = rng.Bernoulli(0.4);
        if (wire) {
          auto result = client->Query(rv.view.name, spec, "", 0, rec.cached);
          ASSERT_TRUE(result.ok()) << result.status().message();
          rec.epoch = result->snapshot_epoch;
          rec.epoch_exact = !result->epoch_inexact;
          rec.result = result->table;
        } else if (rec.cached) {
          uint64_t pre = db.epoch();
          auto result = session->QueryCached(rv.view.name, spec);
          uint64_t post = db.epoch();
          ASSERT_TRUE(result.ok()) << result.status().message();
          rec.epoch = pre;
          rec.epoch_exact = pre == post;
          rec.result = *result;
        } else {
          auto result = session->Query(rv.view.name, spec);
          ASSERT_TRUE(result.ok()) << result.status().message();
          rec.epoch = result->snapshot_epoch;
          rec.result = result->table;
        }
        recorded[static_cast<size_t>(s)].push_back(std::move(rec));
      }
    });
  }
  start.store(true);
  for (auto& t : workers) t.join();

  // Accounting: every write was effective (distinct targets, fresh values),
  // every commit batch bumped the epoch exactly once, and the wire/local
  // acks all name real commit epochs.
  std::vector<const RecordedUpdate*> updates;
  for (const auto& session_log : written) {
    for (const auto& up : session_log) updates.push_back(&up);
  }
  std::sort(updates.begin(), updates.end(),
            [](const RecordedUpdate* a, const RecordedUpdate* b) {
              return a->commit_epoch < b->commit_epoch;
            });
  MvccStats mstats = db.mvcc_stats();
  EXPECT_EQ(mstats.updates_applied, updates.size());
  EXPECT_EQ(db.epoch(), base + mstats.commit_batches);
  for (const RecordedUpdate* up : updates) {
    EXPECT_GT(up->commit_epoch, base);
    EXPECT_LE(up->commit_epoch, db.epoch());
  }
  EXPECT_EQ(server.stats().updates, updates.size());
  // Measure commits never invalidate structurally-keyed plans.
  EXPECT_EQ(db.plan_cache().stats().invalidations, 0u);

  // Serial replay: a fresh database stepped through the recorded commits in
  // ack-epoch order; every exact-epoch query must match bit-for-bit.
  Database replay;
  std::vector<RandomView> replay_views;
  for (int i = 0; i < kViews; ++i) {
    replay_views.push_back(MakeRandomView(seed + static_cast<uint64_t>(i), 4,
                                          3, (i % 2 == 0),
                                          "m" + std::to_string(i) + "_"));
    Install(replay_views.back(), replay);
    ASSERT_TRUE(replay.BuildCache(replay_views.back().view.name).ok());
  }
  std::map<uint64_t, std::vector<const RecordedQuery*>> by_epoch;
  size_t replayed = 0, skipped = 0;
  for (const auto& session_log : recorded) {
    for (const auto& rec : session_log) {
      if (rec.cached && !rec.epoch_exact) {
        ++skipped;  // raced an update; no single epoch to replay at
        continue;
      }
      by_epoch[rec.epoch].push_back(&rec);
      ++replayed;
    }
  }
  size_t next_update = 0;
  for (const auto& [epoch, queries] : by_epoch) {
    while (next_update < updates.size() &&
           updates[next_update]->commit_epoch <= epoch) {
      const RecordedUpdate* up = updates[next_update];
      ASSERT_TRUE(
          replay.ApplyMeasureUpdate(up->table, up->row_vars, up->value).ok());
      ++next_update;
    }
    for (const RecordedQuery* rec : queries) {
      const std::string& view_name = replay_views[rec->view].view.name;
      TablePtr expected;
      if (rec->cached) {
        auto result = replay.QueryCached(view_name, rec->spec);
        ASSERT_TRUE(result.ok()) << result.status().message();
        expected = *result;
      } else {
        auto result = replay.Query(view_name, rec->spec);
        ASSERT_TRUE(result.ok()) << result.status().message();
        expected = result->table;
      }
      EXPECT_TRUE(fr::TablesEqual(*expected, *rec->result,
                                  /*tolerance=*/0.0))
          << (rec->cached ? "cached" : "query") << " on view " << view_name
          << " at epoch " << epoch;
    }
  }
  // The race-skip path should be the exception, not the rule.
  EXPECT_GT(replayed, skipped);
}

INSTANTIATE_TEST_SUITE_P(Mixes, MvccSoakTest,
                         ::testing::Values(0.05, 0.5),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return info.param < 0.1 ? "Read95Write5"
                                                   : "Read50Write50";
                         });

}  // namespace
}  // namespace mpfdb
