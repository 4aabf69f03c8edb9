// Tests for the epoll network front end: wire-vs-in-process bit-identity
// of one round trip (the differential driver, tests/differential_test.cc,
// checks wire answers under concurrent updates), overload behaviour
// (queue-full rejection with backoff hints, queued-deadline error frames,
// per-connection backpressure, the slow-reader kick, the connection cap),
// graceful drain, protocol-error handling, and a seeded socket-fault chaos
// soak in which every request must observe exactly one definite outcome.

#include "server/net/net_server.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "fr/algebra.h"
#include "random_view.h"
#include "server/net/client.h"
#include "server/net/wire.h"
#include "server/server.h"
#include "util/fault_injector.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace mpfdb {
namespace {

using server::MpfServer;
using server::ServerOptions;
using server::net::ErrorFrame;
using server::net::Frame;
using server::net::FrameType;
using server::net::NetClient;
using server::net::NetServer;
using server::net::NetServerOptions;
using server::net::QueryRequestFrame;

std::unique_ptr<NetClient> MustConnect(uint16_t port) {
  auto client = NetClient::Connect(port);
  EXPECT_TRUE(client.ok()) << client.status().message();
  return std::move(client).value();
}

// One server over one small database, for the plumbing-level tests.
class NetServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rv_ = MakeRandomView(/*seed=*/7, /*num_vars=*/3, /*num_rels=*/3,
                         /*force_acyclic=*/true);
    Install(rv_, db_);
    ASSERT_TRUE(db_.BuildCache(rv_.view.name).ok());
  }

  void StartNet(ServerOptions sopts = {}, NetServerOptions nopts = {}) {
    mpf_ = std::make_unique<MpfServer>(db_, sopts);
    net_ = std::make_unique<NetServer>(*mpf_, nopts);
    ASSERT_TRUE(net_->Start().ok());
  }

  MpfQuerySpec AnyQuery() const { return MpfQuerySpec{{rv_.vars[0]}, {}}; }

  RandomView rv_;
  Database db_;
  std::unique_ptr<MpfServer> mpf_;
  std::unique_ptr<NetServer> net_;
};

TEST_F(NetServerTest, QueryRoundtripMatchesInProcessBitIdentical) {
  StartNet();
  auto client = MustConnect(net_->port());
  ASSERT_TRUE(client->set_recv_timeout_ms(30000).ok());

  auto wire = client->Query(rv_.view.name, AnyQuery());
  ASSERT_TRUE(wire.ok()) << wire.status().message();
  auto local = db_.Query(rv_.view.name, AnyQuery());
  ASSERT_TRUE(local.ok());
  EXPECT_TRUE(fr::TablesEqual(*wire->table, *local->table, /*tolerance=*/0.0));
  EXPECT_EQ(wire->snapshot_epoch, local->snapshot_epoch);

  // Cached path too, at a quiescent epoch.
  auto cached = client->Query(rv_.view.name, AnyQuery(), "", 0,
                              /*cached=*/true);
  ASSERT_TRUE(cached.ok()) << cached.status().message();
  EXPECT_FALSE(cached->epoch_inexact);
  auto local_cached = db_.QueryCached(rv_.view.name, AnyQuery());
  ASSERT_TRUE(local_cached.ok());
  EXPECT_TRUE(fr::TablesEqual(*cached->table, **local_cached, 0.0));

  auto stats = net_->stats();
  EXPECT_EQ(stats.results_sent, 2u);
  EXPECT_EQ(stats.errors_sent, 0u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST_F(NetServerTest, UnknownViewYieldsNonRetryableErrorFrame) {
  StartNet();
  auto client = MustConnect(net_->port());
  ASSERT_TRUE(client->set_recv_timeout_ms(30000).ok());
  auto result = client->Query("no_such_view", AnyQuery());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(client->last_error().from_frame);
  EXPECT_FALSE(client->last_error().retryable);
  // The connection survives a semantic error.
  auto again = client->Query(rv_.view.name, AnyQuery());
  EXPECT_TRUE(again.ok()) << again.status().message();
}

TEST_F(NetServerTest, MetricsOverWire) {
  StartNet();
  auto client = MustConnect(net_->port());
  ASSERT_TRUE(client->set_recv_timeout_ms(30000).ok());
  ASSERT_TRUE(client->Query(rv_.view.name, AnyQuery()).ok());
  auto metrics = client->Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().message();
  EXPECT_NE(metrics->find("server_completed 1"), std::string::npos);
  EXPECT_NE(metrics->find("plan_cache_hits"), std::string::npos);
}

TEST_F(NetServerTest, MalformedBytesDrawErrorFrameAndClose) {
  StartNet();
  auto client = MustConnect(net_->port());
  ASSERT_TRUE(client->set_recv_timeout_ms(30000).ok());
  // A hostile length prefix: the server must answer with a connection-scoped
  // error frame (request id 0) and close; it must not hang or crash.
  const uint8_t garbage[] = {0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0x02, 0x03};
  ASSERT_TRUE(client->SendRaw(garbage, sizeof(garbage)).ok());
  auto frame = client->ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  ASSERT_EQ(frame->type, FrameType::kError);
  EXPECT_EQ(frame->error.request_id, 0u);
  EXPECT_EQ(frame->error.code, StatusCode::kInvalidArgument);
  EXPECT_FALSE(frame->error.retryable);
  // Then the close.
  auto eof = client->ReadFrame();
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), StatusCode::kCancelled);
  // Spin briefly: the close is counted on the loop thread.
  for (int i = 0; i < 1000 && net_->stats().open_connections > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto stats = net_->stats();
  EXPECT_EQ(stats.protocol_errors, 1u);
  EXPECT_EQ(stats.open_connections, 0u);
}

TEST_F(NetServerTest, QueueFullRejectionCarriesBackoffHint) {
  ServerOptions sopts;
  sopts.max_concurrent = 1;
  sopts.max_queued = 1;
  StartNet(sopts);
  mpf_->Pause();

  auto blocked = MustConnect(net_->port());
  ASSERT_TRUE(blocked->set_recv_timeout_ms(30000).ok());
  QueryRequestFrame first;
  first.request_id = blocked->NextRequestId();
  first.view = rv_.view.name;
  first.query = AnyQuery();
  ASSERT_TRUE(blocked->SendQuery(first).ok());
  // Wait until it is visibly queued, then overflow the queue.
  while (mpf_->stats().queued < 1) std::this_thread::yield();

  auto overflow = MustConnect(net_->port());
  ASSERT_TRUE(overflow->set_recv_timeout_ms(30000).ok());
  auto rejected = overflow->Query(rv_.view.name, AnyQuery());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(overflow->last_error().retryable);
  EXPECT_GE(overflow->last_error().retry_after_ms, 1u);

  mpf_->Resume();
  auto frame = blocked->ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  EXPECT_EQ(frame->type, FrameType::kResult);
}

TEST_F(NetServerTest, QueuedDeadlineExpiresIntoErrorFrame) {
  ServerOptions sopts;
  sopts.max_concurrent = 1;
  sopts.shed_doomed_queries = false;  // force the queued-timeout path
  StartNet(sopts);
  mpf_->Pause();

  auto client = MustConnect(net_->port());
  ASSERT_TRUE(client->set_recv_timeout_ms(30000).ok());
  auto result = client->Query(rv_.view.name, AnyQuery(), "",
                              /*deadline_ms=*/60);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(client->last_error().retryable);
  EXPECT_EQ(mpf_->stats().timed_out, 1u);
  EXPECT_EQ(mpf_->stats().queued, 0u);  // the dead ticket left the queue
  mpf_->Resume();
}

TEST_F(NetServerTest, DoomedDeadlineFailsFastBeforeExecution) {
  ServerOptions sopts;
  sopts.max_concurrent = 1;
  StartNet(sopts);
  auto client = MustConnect(net_->port());
  ASSERT_TRUE(client->set_recv_timeout_ms(30000).ok());
  // Prime the service-time EMA, then stage a queue the estimator can see.
  ASSERT_TRUE(client->Query(rv_.view.name, AnyQuery()).ok());
  mpf_->Pause();
  QueryRequestFrame waiter;
  waiter.request_id = client->NextRequestId();
  waiter.view = rv_.view.name;
  waiter.query = AnyQuery();
  ASSERT_TRUE(client->SendQuery(waiter).ok());
  while (mpf_->stats().queued < 1) std::this_thread::yield();

  // A 1ms deadline behind a paused, occupied queue is doomed. Depending on
  // dispatch timing it is shed at enqueue (kResourceExhausted, retryable,
  // with a backoff hint) or fails the deadline before/while queued — but it
  // must fail fast, never sit in the queue until Resume.
  auto second = MustConnect(net_->port());
  ASSERT_TRUE(second->set_recv_timeout_ms(30000).ok());
  auto started = std::chrono::steady_clock::now();
  auto doomed = second->Query(rv_.view.name, AnyQuery(), "",
                              /*deadline_ms=*/1);
  auto seconds = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - started)
                     .count();
  ASSERT_FALSE(doomed.ok());
  EXPECT_LT(seconds, 10.0);
  EXPECT_TRUE(doomed.status().code() == StatusCode::kResourceExhausted ||
              doomed.status().code() == StatusCode::kDeadlineExceeded)
      << doomed.status().ToString();
  if (doomed.status().code() == StatusCode::kResourceExhausted) {
    EXPECT_TRUE(second->last_error().retryable);
    EXPECT_GE(second->last_error().retry_after_ms, 1u);
    EXPECT_GE(mpf_->stats().shed, 1u);
  }
  // Only the staged waiter remains queued.
  EXPECT_LE(mpf_->stats().queued, 1u);

  mpf_->Resume();
  auto frame = client->ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  EXPECT_EQ(frame->type, FrameType::kResult);
}

TEST_F(NetServerTest, BackpressurePausesReadsThenRecovers) {
  NetServerOptions nopts;
  nopts.max_inflight_per_connection = 2;
  ServerOptions sopts;
  sopts.max_concurrent = 1;
  StartNet(sopts, nopts);
  mpf_->Pause();  // stack the admission queue so responses cannot drain

  auto client = MustConnect(net_->port());
  ASSERT_TRUE(client->set_recv_timeout_ms(30000).ok());
  constexpr int kPipelined = 6;
  std::vector<uint64_t> ids;
  for (int i = 0; i < kPipelined; ++i) {
    QueryRequestFrame req;
    req.request_id = client->NextRequestId();
    req.view = rv_.view.name;
    req.query = AnyQuery();
    ids.push_back(req.request_id);
    ASSERT_TRUE(client->SendQuery(req).ok());
  }
  // The loop must stop reading at 2 unanswered requests, not buffer all 6.
  for (int i = 0; i < 10000 && net_->stats().reads_paused == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(net_->stats().reads_paused, 1u);
  EXPECT_LE(mpf_->stats().queued + mpf_->stats().in_flight, 2u);

  mpf_->Resume();
  std::map<uint64_t, int> answered;
  for (int i = 0; i < kPipelined; ++i) {
    auto frame = client->ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().message();
    ASSERT_EQ(frame->type, FrameType::kResult);
    ++answered[frame->result.request_id];
  }
  for (uint64_t id : ids) {
    EXPECT_EQ(answered[id], 1) << "request " << id;
  }
}

TEST_F(NetServerTest, SlowReaderIsKicked) {
  NetServerOptions nopts;
  nopts.max_write_buffer_bytes = 8192;
  nopts.send_buffer_bytes = 4096;  // tiny kernel buffer: backlog lands on us
  StartNet({}, nopts);

  auto client = MustConnect(net_->port());
  ASSERT_TRUE(client->set_recv_buffer_bytes(4096).ok());
  ASSERT_TRUE(client->set_recv_timeout_ms(30000).ok());
  // Pipeline metrics requests and never read: replies (a few hundred bytes
  // each) fill the tiny kernel buffers, then the server-side write buffer,
  // then the cap. The server must disconnect us, not buffer forever.
  bool send_failed = false;
  for (int i = 0; i < 2000 && !send_failed; ++i) {
    Status s = client->SendMetricsRequest(client->NextRequestId());
    send_failed = !s.ok();
    if (net_->stats().slow_reader_kicks > 0) break;
  }
  for (int i = 0; i < 10000 && net_->stats().slow_reader_kicks == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(net_->stats().slow_reader_kicks, 1u);
  // And the client observes a definite outcome: connection closed.
  for (;;) {
    auto frame = client->ReadFrame();
    if (!frame.ok()) {
      EXPECT_EQ(frame.status().code(), StatusCode::kCancelled);
      break;
    }
  }
}

TEST_F(NetServerTest, ConnectionCapRefusesExtraClients) {
  NetServerOptions nopts;
  nopts.max_connections = 1;
  StartNet({}, nopts);
  auto first = MustConnect(net_->port());
  ASSERT_TRUE(first->set_recv_timeout_ms(30000).ok());
  ASSERT_TRUE(first->Query(rv_.view.name, AnyQuery()).ok());

  // The kernel completes the handshake, then the server closes immediately.
  auto second = MustConnect(net_->port());
  ASSERT_TRUE(second->set_recv_timeout_ms(30000).ok());
  auto refused = second->ReadFrame();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kCancelled);
  EXPECT_GE(net_->stats().connections_refused, 1u);
  // The first client is unaffected.
  EXPECT_TRUE(first->Query(rv_.view.name, AnyQuery()).ok());
}

TEST_F(NetServerTest, GracefulDrainGivesEveryRequestADefiniteOutcome) {
  ServerOptions sopts;
  sopts.max_concurrent = 2;
  NetServerOptions nopts;
  nopts.drain_timeout_ms = 20000;
  StartNet(sopts, nopts);
  const uint16_t port = net_->port();

  constexpr int kClients = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> definite{0}, indefinite{0}, completed_ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      auto client = NetClient::Connect(port);
      if (!client.ok()) return;
      ASSERT_TRUE((*client)->set_recv_timeout_ms(20000).ok());
      Rng rng(static_cast<uint64_t>(t) + 1);
      while (!stop.load(std::memory_order_acquire)) {
        auto result = (*client)->Query(rv_.view.name, AnyQuery());
        if (result.ok()) {
          ++completed_ok;
          ++definite;
          continue;
        }
        StatusCode code = result.status().code();
        if (code == StatusCode::kDeadlineExceeded) {
          ++indefinite;  // client-side receive timeout: a dropped request
          return;
        }
        ++definite;
        // Drain notice or closed connection: both definite. Stop here —
        // the server is going away.
        if ((*client)->last_error().from_frame) {
          EXPECT_TRUE((*client)->last_error().retryable);
        }
        return;
      }
    });
  }
  // Let traffic flow, then drain mid-stream.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto drain_started = std::chrono::steady_clock::now();
  net_->Shutdown();
  auto drain_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - drain_started)
                           .count();
  stop.store(true);
  for (auto& t : threads) t.join();

  EXPECT_LT(drain_seconds, 20.0) << "drain hung";
  EXPECT_GT(completed_ok.load(), 0);
  EXPECT_EQ(indefinite.load(), 0) << "a request vanished without an outcome";
  auto stats = net_->stats();
  EXPECT_EQ(stats.open_connections, 0u);
  // New connections are refused after drain.
  auto late = NetClient::Connect(port);
  if (late.ok()) {
    ASSERT_TRUE((*late)->set_recv_timeout_ms(5000).ok());
    auto frame = (*late)->ReadFrame();
    EXPECT_FALSE(frame.ok());
  }
  // The MpfServer itself is still serving in-process callers.
  auto session = mpf_->CreateSession();
  EXPECT_TRUE(session->Query(rv_.view.name, AnyQuery()).ok());
}

TEST_F(NetServerTest, ShutdownIsIdempotentAndImmediateWhenIdle) {
  StartNet();
  auto started = std::chrono::steady_clock::now();
  net_->Shutdown();
  net_->Shutdown();
  auto seconds = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - started)
                     .count();
  EXPECT_LT(seconds, 5.0);
}

// --- Seeded socket-fault chaos soak ----------------------------------------

// Every request under fault injection must reach exactly one definite
// outcome: an OK result (bit-identical to the expected answer), an error
// frame, or a closed connection. Hangs surface as client receive timeouts
// and fail the test; crashes and leaks surface under ASan/TSan in CI.
TEST(NetServerChaosTest, SoakSurvivesSocketFaultSeeds) {
  RandomView rv = MakeRandomView(/*seed=*/11, /*num_vars=*/3, /*num_rels=*/3,
                                 /*force_acyclic=*/true, "chaos_");
  Database db;
  Install(rv, db);
  ASSERT_TRUE(db.BuildCache(rv.view.name).ok());

  // Precompute the expected answer for each group var: no updates run, so
  // every successful wire result must match bit-for-bit.
  std::map<std::string, TablePtr> expected;
  for (const auto& var : rv.present_vars) {
    auto result = db.Query(rv.view.name, MpfQuerySpec{{var}, {}});
    ASSERT_TRUE(result.ok());
    expected[var] = result->table;
  }

  uint64_t base_seed = 1;
  if (const char* env = std::getenv("MPFDB_FAULT_SEED")) {
    base_seed = std::strtoull(env, nullptr, 10);
  }
  constexpr int kSeeds = 8;
  constexpr int kClients = 3;
  constexpr int kOpsPerClient = 12;

  for (int s = 0; s < kSeeds; ++s) {
    const uint64_t seed = base_seed + static_cast<uint64_t>(s);
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    server::ServerOptions sopts;
    sopts.max_concurrent = 2;
    MpfServer server(db, sopts);
    NetServerOptions nopts;
    nopts.io_threads = 2;
    nopts.drain_timeout_ms = 20000;
    NetServer net(server, nopts);
    ASSERT_TRUE(net.Start().ok());

    ScopedFaultInjection faults(FaultInjector::Config{
        seed, /*probability=*/0.0, /*fail_nth=*/0,
        /*socket_probability=*/0.08});

    std::atomic<int> ok_results{0}, error_frames{0}, closed{0},
        timeouts{0}, mismatches{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        Rng rng(seed * 977 + static_cast<uint64_t>(c));
        std::unique_ptr<NetClient> client;
        for (int op = 0; op < kOpsPerClient; ++op) {
          if (client == nullptr) {
            auto conn = NetClient::Connect(net.port());
            if (!conn.ok()) {
              // Connect refused under accept faults: definite, retry.
              ++closed;
              std::this_thread::sleep_for(std::chrono::milliseconds(2));
              --op;
              continue;
            }
            client = std::move(conn).value();
            if (!client->set_recv_timeout_ms(20000).ok()) return;
          }
          const std::string& var = Pick(rv.present_vars, rng);
          auto result = client->Query(rv.view.name, MpfQuerySpec{{var}, {}});
          if (result.ok()) {
            ++ok_results;
            if (!fr::TablesEqual(*expected[var], *result->table, 0.0)) {
              ++mismatches;
            }
          } else if (result.status().code() == StatusCode::kDeadlineExceeded &&
                     !client->last_error().from_frame) {
            ++timeouts;  // no definite outcome: the bug this test hunts
            client.reset();
          } else if (client->last_error().from_frame) {
            ++error_frames;
          } else {
            ++closed;  // reset/kick/refusal: definite, reconnect
            client.reset();
          }
        }
      });
    }
    for (auto& t : threads) t.join();

    auto drain_started = std::chrono::steady_clock::now();
    net.Shutdown();
    auto drain_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - drain_started)
                             .count();
    EXPECT_LT(drain_seconds, 20.0) << "drain hung under faults";
    EXPECT_EQ(timeouts.load(), 0) << "request(s) got no definite outcome";
    EXPECT_EQ(mismatches.load(), 0) << "fault injection corrupted a result";
    EXPECT_GT(ok_results.load() + error_frames.load() + closed.load(), 0);
    server.Shutdown();
  }
}

// --- approximate queries over the wire ---------------------------------------

TEST_F(NetServerTest, ApproxQueryOnAcyclicViewIsExactOverWire) {
  // Two overlapping pair relations over three variables make a genuinely
  // acyclic path (the fixture's own 3-relation "path" wraps into a cycle).
  RandomView acyclic = MakeRandomView(/*seed=*/8, /*num_vars=*/3,
                                      /*num_rels=*/2, /*force_acyclic=*/true,
                                      "ac_");
  Install(acyclic, db_);
  StartNet();
  auto client = MustConnect(net_->port());
  ASSERT_TRUE(client->set_recv_timeout_ms(30000).ok());

  // On an acyclic view the approximate path degenerates to the exact
  // answer: no approximate flag, no bound payload on the wire.
  MpfQuerySpec query{{acyclic.vars[0]}, {}};
  auto wire = client->QueryApprox(acyclic.view.name, query);
  ASSERT_TRUE(wire.ok()) << wire.status().message();
  EXPECT_FALSE(wire->approximate);
  EXPECT_FALSE(wire->deadline_degraded);
  EXPECT_EQ(wire->lower, nullptr);
  EXPECT_EQ(wire->upper, nullptr);
  auto local = db_.Query(acyclic.view.name, query);
  ASSERT_TRUE(local.ok());
  EXPECT_TRUE(fr::TablesEqual(*wire->table, *local->table, 0.0));
}

TEST(NetServerApproxTest, ApproxCyclicQueryShipsBoundsBitIdentical) {
  Database db;
  workload::CycleParams params;
  params.num_vars = 4;
  params.domain_size = 5;
  params.density = 0.7;
  params.seed = 61;
  auto schema = workload::GenerateCycle(params, db.catalog());
  ASSERT_TRUE(schema.ok()) << schema.status();
  ASSERT_TRUE(db.CreateMpfView(schema->view).ok());
  MpfServer server(db, ServerOptions{});
  NetServer net(server, NetServerOptions{});
  ASSERT_TRUE(net.Start().ok());

  auto client = MustConnect(net.port());
  ASSERT_TRUE(client->set_recv_timeout_ms(30000).ok());
  MpfQuerySpec query{{schema->vars[0]}, {}};
  auto wire = client->QueryApprox(schema->view.name, query, /*eps=*/1e-6,
                                  /*max_rounds=*/4, /*seed=*/17);
  ASSERT_TRUE(wire.ok()) << wire.status().message();
  EXPECT_TRUE(wire->approximate);
  ASSERT_NE(wire->lower, nullptr);
  ASSERT_NE(wire->upper, nullptr);

  ApproxOptions approx;
  approx.eps = 1e-6;
  approx.max_rounds = 4;
  approx.seed = 17;
  auto local = db.QueryApprox(schema->view.name, query, approx);
  ASSERT_TRUE(local.ok()) << local.status();
  EXPECT_EQ(wire->samples, local->samples);
  EXPECT_EQ(wire->bound_gap, local->max_gap);
  EXPECT_TRUE(fr::TablesEqual(*wire->table, *local->estimate, 0.0));
  EXPECT_TRUE(fr::TablesEqual(*wire->lower, *local->lower, 0.0));
  EXPECT_TRUE(fr::TablesEqual(*wire->upper, *local->upper, 0.0));

  net.Shutdown();
  server.Shutdown();
}

}  // namespace
}  // namespace mpfdb
