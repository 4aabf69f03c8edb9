#ifndef MPFDB_SERVER_SERVER_H_
#define MPFDB_SERVER_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/database.h"
#include "util/query_context.h"
#include "util/status.h"

namespace mpfdb::server {

struct ServerOptions {
  // In-flight query slots: at most this many queries execute at once;
  // further submissions wait in the admission queue.
  size_t max_concurrent = 4;
  // Waiting tickets beyond which submissions are rejected with
  // kResourceExhausted instead of queued.
  size_t max_queued = 256;
  // Global memory budget in bytes, statically partitioned across the
  // admission slots: each admitted query runs under a QueryContext whose
  // limit is tightened to global_memory_limit / max_concurrent (spill-based
  // degradation, not failure, once the engine hits it). 0 = unlimited.
  size_t global_memory_limit = 0;
  // Record the session name of every admission, in admission order
  // (admission_trace()). For tests and audits; off by default.
  bool record_admission_trace = false;
  // Deadline-aware load shedding: a submission whose QueryContext deadline
  // is already closer than the estimated queue wait (EMA of completed query
  // durations, scaled by queue depth over the slot count) is rejected at
  // enqueue with kResourceExhausted instead of queueing work that is doomed
  // to time out. Estimation needs at least one completed query; until then
  // nothing is shed.
  bool shed_doomed_queries = true;
  // Wall-time threshold for the slow-query log; completed queries (OK or
  // failed) at or above it are recorded. <= 0 disables the log.
  double slow_query_seconds = 0.0;
  // Bounded ring capacity of the slow-query log (oldest entries drop).
  size_t slow_query_log_capacity = 64;
};

struct ServerStats {
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  uint64_t completed = 0;  // admitted queries that returned OK
  uint64_t failed = 0;     // admitted queries that returned an error
  uint64_t updates = 0;        // measure-update calls that committed OK
  uint64_t update_failures = 0;  // measure-update calls that errored
  uint64_t rejected = 0;   // refused before admission (queue full / shutdown)
  uint64_t shed = 0;       // rejected at enqueue: queue wait exceeds deadline
  uint64_t timed_out = 0;  // left the queue on deadline/cancel pre-admission
  uint64_t slow_queries = 0;  // recorded in the slow-query log
  size_t max_queue_depth = 0;
  size_t in_flight = 0;  // current
  size_t queued = 0;     // current
};

// One slow-query log record (ServerOptions::slow_query_seconds).
struct SlowQuery {
  std::string session;
  std::string view;
  std::string canonical_query;  // server::CanonicalQueryKey rendering
  double seconds = 0;
  size_t peak_bytes = 0;    // QueryContext high-water memory
  uint64_t spill_bytes = 0;  // bytes degraded to disk, if any
};

// One waiting admission request.
struct Ticket {
  uint64_t session_id = 0;
  uint64_t seq = 0;  // global arrival order, strictly increasing
};

// The admission policy, extracted pure so it can be unit-tested: among the
// waiting tickets, pick the one from the session with the fewest in-flight
// queries, breaking ties by arrival order. With a single session (or all
// sessions equally loaded) this is plain FIFO; under contention it prevents
// one chatty session from starving the others. Returns an index into
// `waiting`, or `waiting.size()` if empty.
size_t PickNextTicket(const std::vector<Ticket>& waiting,
                      const std::map<uint64_t, size_t>& in_flight_per_session);

class MpfServer;

// A client handle: identifies the submitter for admission fairness and
// carries per-session counters. Create via MpfServer::CreateSession; safe to
// use from multiple threads, though a session's queries then contend with
// each other for fairness credit like any other same-session queries.
class Session {
 public:
  // Admission-controlled query: blocks in the admission queue when the
  // server is saturated, then runs against the database's current snapshot.
  // A caller-provided `ctx` governs the execution (cancellation, deadline,
  // memory); its memory limit is tightened to the slot partition for the
  // duration of the query and restored afterwards.
  StatusOr<QueryResult> Query(const std::string& view_name,
                              const MpfQuerySpec& query,
                              const std::string& optimizer_spec =
                                  "cs+nonlinear",
                              QueryContext* ctx = nullptr);

  // Admission-controlled anytime approximate query (Database::QueryApprox):
  // same admission / slot-memory / slow-query treatment as Query. An
  // expiring `ctx` deadline degrades to best bounds so far (OK +
  // deadline_hit) per the QueryApprox contract.
  StatusOr<ApproxResult> QueryApprox(const std::string& view_name,
                                     const MpfQuerySpec& query,
                                     const ApproxOptions& approx = {},
                                     const std::string& optimizer_spec =
                                         "cs+nonlinear",
                                     QueryContext* ctx = nullptr);

  // Admission-controlled QueryCached (answers from the view's VE-cache).
  StatusOr<TablePtr> QueryCached(const std::string& view_name,
                                 const MpfQuerySpec& query,
                                 QueryContext* ctx = nullptr);

  // Measure updates. Writers do NOT take admission slots: they enter the
  // database's group-commit pipeline directly (concurrent callers coalesce
  // into one version bump), so an update stream cannot starve queued
  // readers of execution slots. Returns once this call's updates are
  // durable in the published state. A non-null `commit_epoch` receives the
  // exact epoch of the commit that applied the batch.
  Status Update(const std::string& table,
                const std::vector<VarValue>& row_vars, double new_measure,
                uint64_t* commit_epoch = nullptr);
  Status Update(const std::vector<MeasureUpdateSpec>& specs,
                uint64_t* commit_epoch = nullptr);

  uint64_t id() const { return id_; }
  const std::string& name() const { return name_; }
  uint64_t queries_run() const;

 private:
  friend class MpfServer;
  Session(MpfServer* server, uint64_t id, std::string name)
      : server_(server), id_(id), name_(std::move(name)) {}

  // Runs `call(qctx)` — one database read — under admission: admit against
  // `ctx` (a local context when null), tighten its memory limit to the slot
  // partition for the call and restore it, then release the slot, offer the
  // call to the slow-query log, and count it.
  template <typename Call>
  auto Admitted(const std::string& view_name, const MpfQuerySpec& query,
                QueryContext* ctx, Call&& call) -> decltype(call(ctx));

  MpfServer* server_;
  uint64_t id_;
  std::string name_;
  mutable std::mutex mu_;
  uint64_t queries_run_ = 0;  // guarded by mu_
};

// The concurrent serving front end: sessions submit queries, an admission
// controller bounds how many run at once (FIFO with per-session fairness,
// see PickNextTicket), the global memory budget is partitioned across the
// admitted slots, and every query runs against a database snapshot — so any
// interleaving of queries and updates yields, per query, a result
// bit-identical to running that query alone at its snapshot epoch.
class MpfServer {
 public:
  explicit MpfServer(Database& db, ServerOptions options = {});
  ~MpfServer();  // implies Shutdown()

  MpfServer(const MpfServer&) = delete;
  MpfServer& operator=(const MpfServer&) = delete;

  // Creates a session handle. The default name is "session-<id>".
  std::shared_ptr<Session> CreateSession(std::string name = "");

  // Stops admitting: submissions still queue (up to max_queued) but nothing
  // is admitted until Resume. For tests that need a deterministic queue.
  void Pause();
  void Resume();

  // Rejects all waiting and future submissions with kCancelled. In-flight
  // queries finish normally. Idempotent.
  void Shutdown();

  ServerStats stats() const;
  // Session names in admission order; empty unless
  // ServerOptions::record_admission_trace.
  std::vector<std::string> admission_trace() const;

  // The slow-query log, oldest first (bounded by
  // ServerOptions::slow_query_log_capacity).
  std::vector<SlowQuery> slow_queries() const;

  // How long a client should wait before retrying after a rejection:
  // the estimated time for the current queue to drain through the slots,
  // floored at 1ms. The wire layer stamps this into retryable error frames.
  uint64_t RetryAfterHintMs() const;

  // Plain-text ops dump: every ServerStats counter, the shared plan-cache
  // counters, and the slow-query log, one `name value` line each (log lines
  // are `slow_query` followed by key=value fields). Served by the net
  // layer's metrics frame and handy in tests/ops scripts.
  std::string MetricsText() const;

  Database& database() { return db_; }
  const ServerOptions& options() const { return options_; }

 private:
  friend class Session;

  struct WaitState {
    uint64_t session_id = 0;
    uint64_t seq = 0;
    std::string session_name;
    bool admitted = false;  // guarded by MpfServer::mu_
  };

  // Blocks until a slot is granted (OK), the server shuts down (kCancelled),
  // the queue is full or the request is shed (kResourceExhausted, immediate),
  // or — while queued — `ctx`'s deadline passes (kDeadlineExceeded) or its
  // cancel token fires (kCancelled). A dead ticket is removed from the queue
  // so it can never be picked.
  Status Admit(const Session& session, QueryContext* ctx);
  void Release(const Session& session, bool ok, double seconds);
  void RecordUpdate(bool ok);
  // Records a completed query in the slow-query log when it crossed the
  // configured threshold.
  void MaybeRecordSlowQuery(const Session& session,
                            const std::string& view_name,
                            const MpfQuerySpec& query, double seconds,
                            const QueryContext::Stats& exec_stats);
  // Admits as many waiting tickets as slots allow. Caller holds mu_.
  void AdmitWaitingLocked();
  // Estimated wait for a ticket entering the queue at `queue_position`
  // (EMA-based; zero until a query has completed). Caller holds mu_.
  std::chrono::nanoseconds EstimatedQueueWaitLocked(
      size_t queue_position) const;
  // The per-slot share of the global memory budget (0 = unlimited).
  size_t SlotMemoryLimit() const;

  Database& db_;
  const ServerOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool paused_ = false;
  bool shutdown_ = false;
  uint64_t next_session_id_ = 1;
  uint64_t next_seq_ = 1;
  std::vector<std::shared_ptr<WaitState>> waiting_;     // arrival order
  std::map<uint64_t, size_t> in_flight_per_session_;    // session -> count
  size_t in_flight_ = 0;
  ServerStats stats_;
  std::vector<std::string> admission_trace_;
  // Exponential moving average of completed-query wall time, the load
  // shedder's service-time estimate. 0 until the first completion.
  double ema_query_seconds_ = 0;       // guarded by mu_
  std::deque<SlowQuery> slow_log_;     // guarded by mu_
};

}  // namespace mpfdb::server

#endif  // MPFDB_SERVER_SERVER_H_
