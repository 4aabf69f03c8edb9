#include "server/server.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "server/plan_cache.h"

namespace mpfdb::server {

namespace {

using SteadyClock = std::chrono::steady_clock;

double SecondsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

}  // namespace

size_t PickNextTicket(const std::vector<Ticket>& waiting,
                      const std::map<uint64_t, size_t>& in_flight_per_session) {
  size_t best = waiting.size();
  size_t best_load = 0;
  for (size_t i = 0; i < waiting.size(); ++i) {
    auto it = in_flight_per_session.find(waiting[i].session_id);
    size_t load = it == in_flight_per_session.end() ? 0 : it->second;
    if (best == waiting.size() || load < best_load ||
        (load == best_load && waiting[i].seq < waiting[best].seq)) {
      best = i;
      best_load = load;
    }
  }
  return best;
}

uint64_t Session::queries_run() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queries_run_;
}

template <typename Call>
auto Session::Admitted(const std::string& view_name, const MpfQuerySpec& query,
                       QueryContext* ctx, Call&& call)
    -> decltype(call(ctx)) {
  QueryContext local_ctx;
  QueryContext* qctx = ctx != nullptr ? ctx : &local_ctx;
  MPFDB_RETURN_IF_ERROR(server_->Admit(*this, qctx));
  size_t old_limit = qctx->memory_limit();
  qctx->TightenMemoryLimit(server_->SlotMemoryLimit());
  auto start = SteadyClock::now();
  auto result = call(qctx);
  double seconds = SecondsSince(start);
  if (qctx == ctx) ctx->set_memory_limit(old_limit);
  server_->Release(*this, result.ok(), seconds);
  server_->MaybeRecordSlowQuery(*this, view_name, query, seconds,
                                qctx->stats());
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++queries_run_;
  }
  return result;
}

StatusOr<QueryResult> Session::Query(const std::string& view_name,
                                     const MpfQuerySpec& query,
                                     const std::string& optimizer_spec,
                                     QueryContext* ctx) {
  return Admitted(view_name, query, ctx, [&](QueryContext* qctx) {
    return server_->db_.Query(view_name, query, optimizer_spec, qctx);
  });
}

StatusOr<ApproxResult> Session::QueryApprox(const std::string& view_name,
                                            const MpfQuerySpec& query,
                                            const ApproxOptions& approx,
                                            const std::string& optimizer_spec,
                                            QueryContext* ctx) {
  return Admitted(view_name, query, ctx, [&](QueryContext* qctx) {
    return server_->db_.QueryApprox(view_name, query, approx, optimizer_spec,
                                    qctx);
  });
}

StatusOr<TablePtr> Session::QueryCached(const std::string& view_name,
                                        const MpfQuerySpec& query,
                                        QueryContext* ctx) {
  // The admitted context governs the read itself: its cancel token and
  // deadline stop the VE-cache steps, as they stop the wait for admission.
  return Admitted(view_name, query, ctx, [&](QueryContext* qctx) {
    return server_->db_.QueryCached(view_name, query, qctx);
  });
}

Status Session::Update(const std::string& table,
                       const std::vector<VarValue>& row_vars,
                       double new_measure, uint64_t* commit_epoch) {
  return Update(std::vector<MeasureUpdateSpec>{{table, row_vars,
                                                new_measure}},
                commit_epoch);
}

Status Session::Update(const std::vector<MeasureUpdateSpec>& specs,
                       uint64_t* commit_epoch) {
  // No admission: writers coalesce in the database's group-commit queue
  // instead of occupying reader slots.
  Status status = server_->db_.ApplyMeasureUpdates(specs, commit_epoch);
  server_->RecordUpdate(status.ok());
  return status;
}

void MpfServer::RecordUpdate(bool ok) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ok) {
    ++stats_.updates;
  } else {
    ++stats_.update_failures;
  }
}

MpfServer::MpfServer(Database& db, ServerOptions options)
    : db_(db), options_(options) {}

MpfServer::~MpfServer() { Shutdown(); }

std::shared_ptr<Session> MpfServer::CreateSession(std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t id = next_session_id_++;
  if (name.empty()) name = "session-" + std::to_string(id);
  // Not make_shared: the constructor is private to MpfServer.
  return std::shared_ptr<Session>(new Session(this, id, std::move(name)));
}

size_t MpfServer::SlotMemoryLimit() const {
  if (options_.global_memory_limit == 0) return 0;
  size_t slots = std::max<size_t>(1, options_.max_concurrent);
  return std::max<size_t>(1, options_.global_memory_limit / slots);
}

std::chrono::nanoseconds MpfServer::EstimatedQueueWaitLocked(
    size_t queue_position) const {
  if (ema_query_seconds_ <= 0) return std::chrono::nanoseconds(0);
  size_t slots = std::max<size_t>(1, options_.max_concurrent);
  // Tickets ahead of this one drain through the slots at roughly one EMA
  // apiece; queries already in flight are assumed halfway done.
  double ahead = static_cast<double>(queue_position) +
                 0.5 * static_cast<double>(in_flight_);
  return std::chrono::nanoseconds(static_cast<int64_t>(
      ema_query_seconds_ * 1e9 * ahead / static_cast<double>(slots)));
}

Status MpfServer::Admit(const Session& session, QueryContext* ctx) {
  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.submitted;
  if (shutdown_) {
    ++stats_.rejected;
    return Status::Cancelled("server is shut down");
  }
  if (waiting_.size() >= options_.max_queued) {
    ++stats_.rejected;
    return Status::ResourceExhausted(
        "admission queue full (" + std::to_string(waiting_.size()) + "/" +
        std::to_string(options_.max_queued) + " waiting)");
  }
  const bool has_deadline = ctx != nullptr && ctx->has_deadline();
  if (options_.shed_doomed_queries && has_deadline) {
    auto wait = EstimatedQueueWaitLocked(waiting_.size());
    if (wait.count() > 0 && SteadyClock::now() + wait > ctx->deadline()) {
      ++stats_.shed;
      auto wait_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(wait).count();
      return Status::ResourceExhausted(
          "request shed: estimated queue wait " + std::to_string(wait_ms) +
          "ms exceeds the request deadline; retry with backoff");
    }
  }
  auto state = std::make_shared<WaitState>();
  state->session_id = session.id();
  state->seq = next_seq_++;
  state->session_name = session.name();
  waiting_.push_back(state);
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, waiting_.size());
  AdmitWaitingLocked();
  const bool watch_ctx = ctx != nullptr;
  for (;;) {
    if (state->admitted) return Status::Ok();
    if (shutdown_) break;
    if (watch_ctx) {
      // A queued query must fail fast on its own cancel/deadline, not sit
      // dead in the queue until a slot frees up. Nothing signals our cv on
      // RequestCancel (the token is shared state, not a server event), so
      // the wait polls: exact wake at the deadline, 10ms cadence for cancel.
      Status doomed = Status::Ok();
      if (ctx->cancel_token()->cancelled()) {
        doomed = Status::Cancelled("query cancelled while queued");
      } else if (has_deadline && SteadyClock::now() >= ctx->deadline()) {
        doomed = Status::DeadlineExceeded("deadline expired while queued");
      }
      if (!doomed.ok()) {
        waiting_.erase(std::remove(waiting_.begin(), waiting_.end(), state),
                       waiting_.end());
        ++stats_.timed_out;
        return doomed;
      }
      auto wake = SteadyClock::now() + std::chrono::milliseconds(10);
      if (has_deadline && ctx->deadline() < wake) wake = ctx->deadline();
      cv_.wait_until(lock, wake);
    } else {
      cv_.wait(lock);
    }
  }
  // Shutdown won the race: drop our ticket.
  waiting_.erase(std::remove(waiting_.begin(), waiting_.end(), state),
                 waiting_.end());
  ++stats_.rejected;
  return Status::Cancelled("server shut down while queued");
}

void MpfServer::AdmitWaitingLocked() {
  while (!paused_ && !shutdown_ && in_flight_ < options_.max_concurrent &&
         !waiting_.empty()) {
    std::vector<Ticket> tickets;
    tickets.reserve(waiting_.size());
    for (const auto& w : waiting_) {
      tickets.push_back(Ticket{w->session_id, w->seq});
    }
    size_t pick = PickNextTicket(tickets, in_flight_per_session_);
    std::shared_ptr<WaitState> state = waiting_[pick];
    waiting_.erase(waiting_.begin() + pick);
    state->admitted = true;
    ++in_flight_;
    ++in_flight_per_session_[state->session_id];
    ++stats_.admitted;
    if (options_.record_admission_trace) {
      admission_trace_.push_back(state->session_name);
    }
  }
  cv_.notify_all();
}

void MpfServer::Release(const Session& session, bool ok, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  --in_flight_;
  auto it = in_flight_per_session_.find(session.id());
  if (it != in_flight_per_session_.end() && --it->second == 0) {
    in_flight_per_session_.erase(it);
  }
  if (ok) {
    ++stats_.completed;
  } else {
    ++stats_.failed;
  }
  // Service-time EMA for the load shedder (1/8 new weight: smooth enough to
  // ride out one outlier, fresh enough to track a regime change quickly).
  ema_query_seconds_ = ema_query_seconds_ <= 0
                           ? seconds
                           : 0.875 * ema_query_seconds_ + 0.125 * seconds;
  AdmitWaitingLocked();
}

void MpfServer::MaybeRecordSlowQuery(const Session& session,
                                     const std::string& view_name,
                                     const MpfQuerySpec& query, double seconds,
                                     const QueryContext::Stats& exec_stats) {
  if (options_.slow_query_seconds <= 0 ||
      seconds < options_.slow_query_seconds) {
    return;
  }
  SlowQuery entry;
  entry.session = session.name();
  entry.view = view_name;
  entry.canonical_query = CanonicalQueryKey(query);
  entry.seconds = seconds;
  entry.peak_bytes = exec_stats.peak_bytes;
  entry.spill_bytes = exec_stats.spill_bytes;
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.slow_queries;
  slow_log_.push_back(std::move(entry));
  while (slow_log_.size() > std::max<size_t>(1, options_.slow_query_log_capacity)) {
    slow_log_.pop_front();
  }
}

void MpfServer::Pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void MpfServer::Resume() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = false;
  AdmitWaitingLocked();
}

void MpfServer::Shutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  shutdown_ = true;
  cv_.notify_all();
}

ServerStats MpfServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServerStats s = stats_;
  s.in_flight = in_flight_;
  s.queued = waiting_.size();
  return s;
}

std::vector<std::string> MpfServer::admission_trace() const {
  std::lock_guard<std::mutex> lock(mu_);
  return admission_trace_;
}

std::vector<SlowQuery> MpfServer::slow_queries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<SlowQuery>(slow_log_.begin(), slow_log_.end());
}

uint64_t MpfServer::RetryAfterHintMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  auto wait = EstimatedQueueWaitLocked(waiting_.size());
  auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(wait);
  return std::max<uint64_t>(1, static_cast<uint64_t>(ms.count()));
}

std::string MpfServer::MetricsText() const {
  ServerStats s = stats();
  PlanCache::Stats p = db_.plan_cache().stats();
  std::vector<SlowQuery> slow = slow_queries();
  std::ostringstream out;
  out << "server_submitted " << s.submitted << "\n"
      << "server_admitted " << s.admitted << "\n"
      << "server_completed " << s.completed << "\n"
      << "server_failed " << s.failed << "\n"
      << "server_updates " << s.updates << "\n"
      << "server_update_failures " << s.update_failures << "\n"
      << "server_rejected " << s.rejected << "\n"
      << "server_shed " << s.shed << "\n"
      << "server_timed_out " << s.timed_out << "\n"
      << "server_slow_queries " << s.slow_queries << "\n"
      << "server_in_flight " << s.in_flight << "\n"
      << "server_queued " << s.queued << "\n"
      << "server_max_queue_depth " << s.max_queue_depth << "\n"
      << "plan_cache_hits " << p.hits << "\n"
      << "plan_cache_misses " << p.misses << "\n"
      << "plan_cache_inserts " << p.inserts << "\n"
      << "plan_cache_invalidations " << p.invalidations << "\n"
      << "plan_cache_evictions " << p.evictions << "\n"
      << "plan_cache_entries " << p.entries << "\n"
      << "plan_cache_bytes " << p.bytes << "\n"
      << "plan_cache_hit_rate " << p.hit_rate() << "\n";
  for (const SlowQuery& q : slow) {
    out << "slow_query session=" << q.session << " view=" << q.view
        << " seconds=" << q.seconds << " peak_bytes=" << q.peak_bytes
        << " spill_bytes=" << q.spill_bytes << " query=" << q.canonical_query
        << "\n";
  }
  return out.str();
}

}  // namespace mpfdb::server
