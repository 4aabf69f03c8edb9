// End-to-end, layer-by-layer benchmark of the paper's three workloads.
//
// Stands up Database -> MpfServer -> NetServer in-process and drives one
// workload over loopback with seeded closed-loop NetClients, checking every
// answer.
//
//   e2ebench --workload supply_olap|bn_inference|cache_rw --seed N
//            --seconds S --trace 0|1 [--spans PATH]
//
// --trace 0 measures the end-to-end metrics over an S-second timed run.
// --trace 1 runs the same stream untraced for a fifth of S, then replays
// exactly those requests once per layer boundary: NetClient::Query,
// Session::Query, Database::Query, SqlSession::Execute (plain queries only),
// and MakeOptimizer+Optimize / Executor::PlanPhysical / ExecutePhysical
// (then ExecuteAnalyze, untimed, for the operator breakdown). Each
// boundary runs against its own identically built database, so every layer
// sees the same plan-cache history as the served run, and a client thread
// sends request i through all boundaries before request i+1, so slow
// phases of a shared machine hit all layers of one request alike.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; the line before it ("# detail ...") carries the thread budget,
// sample counts and the metrics that apply to one workload only. Exits 1 on
// any wrong answer or request without a definite outcome, 2 on bad usage or
// a thread budget larger than the machine.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_logic.h"
#include "core/database.h"
#include "exec/executor.h"
#include "exec/thread_pool.h"
#include "fr/algebra.h"
#include "parser/sql.h"
#include "server/net/client.h"
#include "server/net/net_server.h"
#include "server/plan_cache.h"
#include "server/server.h"
#include "workloads.h"

namespace mpfdb::e2ebench {
namespace {

using Clock = std::chrono::steady_clock;
using server::CanonicalQueryKey;

constexpr double kP90 = 0.9;
// Set-up repetitions: at least kMinSetupReps, continuing until
// kSetupBudgetSeconds have been spent, so a cheap set-up is still measured
// as a median of many.
constexpr int kMinSetupReps = 4;
constexpr int kMaxSetupReps = 1000;
constexpr double kSetupBudgetSeconds = 2.0;
// Share of --seconds the traced run spends on its untraced baseline; the
// replay then repeats exactly those requests at every boundary.
constexpr double kTraceBaseShare = 0.2;
// ablate_vecache's agreement tolerance for cached vs from-scratch answers.
constexpr double kCacheTolerance = 1e-6;
constexpr const char* kScratchOptimizer = "ve(deg) ext.";
constexpr int kPoolSpeedupReps = 3;
constexpr size_t kPoolSpeedupSpecs = 14;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o->workload = value;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      o->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      o->trace = value == "1";
    } else if (flag == "--spans") {
      o->spans_path = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "bad value for %s: %s\n", flag.c_str(),
                   value.c_str());
      return false;
    }
  }
  if (o->workload.empty() || !(o->seconds > 0)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload W --seed N --seconds S "
                 "--trace 0|1 [--spans PATH]\n");
    return false;
  }
  return true;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

// --- Layer boundaries ------------------------------------------------------

enum class Layer { kWire, kSession, kDatabase, kSql, kDecomposed };

// One request's outcome at one boundary. Records hold no copy of their
// request, which the seeded stream regenerates (ForEachRequest), so the
// harness adds little memory per request to the peak it reports.
struct Record {
  OpKind kind = OpKind::kQuery;
  bool restricted = false;
  bool ok = false;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  // Query results: the bit hash of every answer, the table itself only for
  // the first answer to each distinct query (keeping every table would make
  // peak memory grow with throughput).
  TablePtr table;
  uint64_t hash = 0;
  double value = 0;  // writes: the measure sent
  uint64_t span = 0;
  // Database boundary.
  bool plan_cache_hit = false;
  int64_t planning_ns = 0;
  int64_t execution_ns = 0;
  uint64_t plan_span = 0;
  uint64_t exec_span = 0;
  // Decomposed boundary: exclusive operator time by kind, stats totals.
  int64_t join_ns = 0;
  int64_t agg_ns = 0;
  int64_t scan_ns = 0;
  uint64_t operator_rows = 0;
  uint64_t result_rows = 0;
  size_t peak_bytes = 0;
  uint64_t spill_partitions = 0;
  // ExecuteAnalyze's answer equals ExecutePhysical's bit for bit.
  bool analyze_agrees = true;

  int64_t duration_ns() const { return end_ns - start_ns; }
  bool is_query() const { return kind != OpKind::kUpdate; }
};

using Records = std::vector<std::vector<Record>>;  // [client][sequence]

// Calls fn(request, record) for every record, regenerating the requests
// from the clients' seeded streams.
template <typename Fn>
void ForEachRequest(const StreamShape& shape, uint64_t seed,
                    const Records& records, Fn fn) {
  for (size_t c = 0; c < records.size(); ++c) {
    RequestStream stream(shape, seed, static_cast<int>(c));
    for (const Record& rec : records[c]) fn(stream.Next(), rec);
  }
}

// The SELECT statement that asks `spec` of `view` under `optimizer` (empty:
// the parser's default, which is also the server's).
std::string SelectText(const std::string& view, const MpfQuerySpec& spec,
                       const std::string& optimizer) {
  std::string vars;
  for (size_t i = 0; i < spec.group_vars.size(); ++i) {
    vars += (i > 0 ? ", " : "") + spec.group_vars[i];
  }
  std::string sql = "SELECT " + vars + ", SUM(f) FROM " + view;
  for (size_t i = 0; i < spec.selections.size(); ++i) {
    sql += (i == 0 ? " WHERE " : " AND ") + spec.selections[i].var + " = " +
           std::to_string(spec.selections[i].value);
  }
  sql += " GROUP BY " + vars;
  if (!optimizer.empty()) sql += " USING OPTIMIZER " + optimizer;
  return sql + ";";
}

// Adds the exclusive wall time of each operator of `phys` to `rec` by kind:
// its inclusive OperatorStats::wall_nanos minus its children's. Returns the
// subtree's inclusive wall nanos.
uint64_t AttributeOperators(
    const PhysicalPlanNode& phys,
    const std::map<const PlanNode*, OperatorStats>& stats, Record* rec) {
  uint64_t children = 0;
  if (phys.left) children += AttributeOperators(*phys.left, stats, rec);
  if (phys.right) children += AttributeOperators(*phys.right, stats, rec);
  for (const auto& c : phys.children) {
    children += AttributeOperators(*c, stats, rec);
  }
  auto it = stats.find(phys.logical);
  if (it == stats.end()) return children;
  const OperatorStats& s = it->second;
  rec->operator_rows += s.output_rows;
  rec->spill_partitions += s.spill_partitions;
  const int64_t self =
      static_cast<int64_t>(s.wall_nanos) - static_cast<int64_t>(children);
  switch (phys.kind) {
    case PlanNodeKind::kJoin:
    case PlanNodeKind::kMultiwayJoin:
      rec->join_ns += self;
      break;
    case PlanNodeKind::kGroupBy:
      rec->agg_ns += self;
      break;
    case PlanNodeKind::kScan:
    case PlanNodeKind::kIndexScan:
      rec->scan_ns += self;
      break;
    default:
      break;
  }
  return s.wall_nanos;
}

// A thread that runs one call at a time for one client. Each database gets
// its own, so every database is only ever touched by threads dedicated to
// it, as the served database is by the NetServer's query threads; a client
// thread that ran every boundary itself would carry the other databases'
// working sets in its core's caches into each call (measured: the Session
// boundary then ran ~10% slower than the wire one it is nested in).
class Worker {
 public:
  Worker() : thread_([this] { Loop(); }) {}
  ~Worker() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  // Runs `fn` on the worker thread and returns when it has finished.
  void Run(std::function<void()> fn) {
    std::unique_lock<std::mutex> lock(mu_);
    job_ = std::move(fn);
    cv_.notify_all();
    cv_.wait(lock, [this] { return !job_; });
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      cv_.wait(lock, [this] { return stop_ || job_; });
      if (stop_) return;
      lock.unlock();
      job_();
      lock.lock();
      job_ = nullptr;
      cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::function<void()> job_;  // guarded by mu_
  bool stop_ = false;          // guarded by mu_
  std::thread thread_;
};

// The running benchmark: one database per layer boundary, the served one
// behind MpfServer + NetServer, the Session one behind its own MpfServer.
class Bench {
 public:
  Bench(const WorkloadConfig& config, std::vector<std::unique_ptr<Env>> envs,
        SpanLog* spans)
      : config_(config), envs_(std::move(envs)), spans_(spans) {}

  Status Start() {
    server::ServerOptions sopts;
    sopts.max_concurrent = static_cast<size_t>(config_.clients);
    served_ = std::make_unique<server::MpfServer>(*envs_[0]->db, sopts);
    if (envs_.size() > 1) {
      session_server_ =
          std::make_unique<server::MpfServer>(*envs_[1]->db, sopts);
    }
    server::net::NetServerOptions nopts;
    nopts.io_threads = kIoThreads;
    nopts.query_threads = config_.clients;
    net_ = std::make_unique<server::net::NetServer>(*served_, nopts);
    return net_->Start();
  }

  void Stop() {
    if (net_) net_->Shutdown();
    if (served_) served_->Shutdown();
    if (session_server_) session_server_->Shutdown();
  }

  // The database behind each boundary.
  Env& served() { return *envs_[0]; }
  Env& EnvFor(Layer layer) {
    switch (layer) {
      case Layer::kWire:
        return *envs_[0];
      case Layer::kSession:
        return *envs_[1];
      case Layer::kSql:
        return *envs_[3];
      default:
        return *envs_[2];
    }
  }
  std::vector<Env*> envs() {
    std::vector<Env*> out;
    for (auto& e : envs_) out.push_back(e.get());
    return out;
  }
  server::MpfServer& server() { return *served_; }
  server::net::NetServer& net() { return *net_; }

  // The timed run: every client sends its stream over the wire, untraced,
  // until `seconds` have passed.
  Records RunTimed(uint64_t seed, double seconds, double* wall_seconds,
                   uint64_t* missing) {
    std::vector<Records> out = Run({Layer::kWire}, seed, seconds, {},
                                   wall_seconds, missing);
    return std::move(out[0]);
  }

  // The traced replay: client c sends its first counts[c] requests, each
  // one through every boundary of `layers` in order, recording spans.
  std::vector<Records> RunTraced(const std::vector<Layer>& layers,
                                 uint64_t seed,
                                 const std::vector<size_t>& counts,
                                 uint64_t* missing) {
    double wall = 0;
    return Run(layers, seed, 0, counts, &wall, missing);
  }

 private:
  struct Clients {
    std::unique_ptr<server::net::NetClient> wire;
    std::shared_ptr<server::Session> session;
    std::unique_ptr<parser::SqlSession> sql;
  };

  std::vector<Records> Run(const std::vector<Layer>& layers, uint64_t seed,
                           double seconds, const std::vector<size_t>& counts,
                           double* wall_seconds, uint64_t* missing) {
    const int clients = config_.clients;
    std::vector<Records> out(layers.size(),
                             Records(static_cast<size_t>(clients)));
    std::latch connected(clients);
    std::latch go(1);
    std::atomic<int64_t> deadline_ns{0};
    std::atomic<uint64_t> lost{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        ClientLoop(layers, seed, c, counts, connected, go, deadline_ns, lost,
                   out);
      });
    }
    connected.wait();
    const int64_t t0 = NowNs();
    deadline_ns.store(t0 + static_cast<int64_t>(seconds * 1e9));
    go.count_down();
    for (auto& t : threads) t.join();
    int64_t t1 = t0;
    for (const auto& recs : out[0]) {
      for (const Record& r : recs) t1 = std::max(t1, r.end_ns);
    }
    *wall_seconds = static_cast<double>(t1 - t0) / 1e9;
    *missing += lost.load();
    return out;
  }

  void ClientLoop(const std::vector<Layer>& layers, uint64_t seed, int c,
                  const std::vector<size_t>& counts, std::latch& connected,
                  std::latch& go, std::atomic<int64_t>& deadline_ns,
                  std::atomic<uint64_t>& lost, std::vector<Records>& out) {
    const bool timed = counts.empty();
    // Writes of the traced replay carry other values than the timed run's,
    // so replaying a write onto the served database is never a no-op.
    const int pass = timed ? 0 : 1;
    Clients conn;
    auto client = server::net::NetClient::Connect(net_->port());
    const bool usable =
        client.ok() && (*client)->set_recv_timeout_ms(60000).ok();
    if (usable) conn.wire = std::move(*client);
    if (session_server_) {
      conn.session =
          session_server_->CreateSession("client-" + std::to_string(c));
    }
    if (envs_.size() > 3) {
      conn.sql = std::make_unique<parser::SqlSession>(*envs_[3]->db);
    }
    connected.count_down();
    go.wait();
    const size_t limit = timed ? SIZE_MAX : counts[static_cast<size_t>(c)];
    if (!usable) {
      // The requests this client should have sent get no outcome at all.
      lost.fetch_add(timed ? 1 : limit * layers.size());
      return;
    }
    RequestStream stream(config_.shape, seed, c);
    std::vector<std::set<std::string>> seen(layers.size());
    std::map<Env*, std::unique_ptr<Worker>> env_workers;
    std::vector<Worker*> workers;
    for (Layer layer : layers) {
      auto& w = env_workers[&EnvFor(layer)];
      if (w == nullptr && layer != Layer::kWire) w = std::make_unique<Worker>();
      workers.push_back(w.get());
    }
    for (size_t i = 0; i < limit; ++i) {
      if (timed && NowNs() >= deadline_ns.load()) break;
      const Request request = stream.Next();
      const Record* up = nullptr;
      for (size_t l = 0; l < layers.size(); ++l) {
        Record rec;
        rec.kind = request.kind;
        rec.restricted = request.restricted;
        if (workers[l] == nullptr) {
          Issue(layers[l], request, pass, c, !timed, up, conn, &rec);
        } else {
          workers[l]->Run([&] {
            Issue(layers[l], request, pass, c, !timed, up, conn, &rec);
          });
        }
        if (rec.table != nullptr) {
          // cache_rw reads are checked after the run, not one by one.
          const bool keep =
              request.kind == OpKind::kQuery &&
              seen[l].insert(CanonicalQueryKey(request.spec)).second;
          if (request.kind == OpKind::kQuery) {
            rec.hash = TableBitsHash(*rec.table);
          }
          if (!keep) rec.table.reset();
        }
        auto& mine = out[l][static_cast<size_t>(c)];
        mine.push_back(std::move(rec));
        // Each boundary hangs under the one before it (the SQL boundary,
        // last, is off the served path and hangs under none).
        up = &mine.back();
      }
    }
  }

  void Issue(Layer layer, const Request& r, int pass, int c, bool traced,
             const Record* up, Clients& conn, Record* rec) {
    Env& env = EnvFor(layer);
    Database& db = *env.db;
    const std::string& view = env.view;
    if (r.kind == OpKind::kUpdate) {
      rec->value = UpdateValue(pass, c, r.update_serial);
    }
    static const std::vector<VarValue> kNoRow;
    const std::vector<VarValue>& row =
        r.kind == OpKind::kUpdate ? env.update_rows[r.update_row] : kNoRow;
    const uint64_t up_span = up != nullptr ? up->span : 0;
    const std::string optimizer = config_.optimizer();

    rec->start_ns = NowNs();
    switch (layer) {
      case Layer::kWire: {
        if (r.kind == OpKind::kUpdate) {
          auto ack = conn.wire->Update(env.update_table, row, rec->value);
          Finish(ack.status(), r, rec);
        } else {
          auto res = conn.wire->Query(view, r.spec, config_.wire_optimizer, 0,
                                      r.kind == OpKind::kCachedQuery);
          if (res.ok()) rec->table = res->table;
          Finish(res.status(), r, rec);
        }
        if (traced) {
          rec->span = spans_->Add(0, r.id, "client", rec->start_ns,
                                  rec->end_ns);
        }
        break;
      }
      case Layer::kSession: {
        if (r.kind == OpKind::kUpdate) {
          Finish(conn.session->Update(env.update_table, row, rec->value), r,
                 rec);
        } else if (r.kind == OpKind::kCachedQuery) {
          auto res = conn.session->QueryCached(view, r.spec);
          if (res.ok()) rec->table = *res;
          Finish(res.status(), r, rec);
        } else {
          auto res = conn.session->Query(view, r.spec, optimizer);
          if (res.ok()) rec->table = res->table;
          Finish(res.status(), r, rec);
        }
        rec->span = spans_->Add(up_span, r.id, "server.session",
                                rec->start_ns, rec->end_ns);
        break;
      }
      case Layer::kDatabase: {
        if (r.kind == OpKind::kUpdate) {
          Finish(db.ApplyMeasureUpdate(env.update_table, row, rec->value), r,
                 rec);
          rec->span = spans_->Add(up_span, r.id, "storage.commit",
                                  rec->start_ns, rec->end_ns);
        } else if (r.kind == OpKind::kCachedQuery) {
          auto res = db.QueryCached(view, r.spec);
          if (res.ok()) rec->table = *res;
          Finish(res.status(), r, rec);
          rec->span = spans_->Add(up_span, r.id, "workload.vecache",
                                  rec->start_ns, rec->end_ns);
        } else {
          // Session::Query hands Database::Query a QueryContext (its own
          // when the caller has none), which makes execution governed;
          // pass one here too so this boundary runs the served code path.
          QueryContext ctx;
          auto res = db.Query(view, r.spec, optimizer, &ctx);
          if (res.ok()) {
            rec->table = res->table;
            rec->plan_cache_hit = res->plan_cache_hit;
            rec->planning_ns =
                static_cast<int64_t>(res->planning_seconds * 1e9);
            rec->execution_ns =
                static_cast<int64_t>(res->execution_seconds * 1e9);
          }
          Finish(res.status(), r, rec);
          rec->span = spans_->Add(up_span, r.id, "core.query", rec->start_ns,
                                  rec->end_ns);
          // Database::Query plans, then executes, then returns; the two
          // phases are placed back to back before the call's end from the
          // durations QueryResult reports.
          const int64_t exec_start = rec->end_ns - rec->execution_ns;
          rec->plan_span =
              spans_->Add(rec->span, r.id, "core.plan",
                          exec_start - rec->planning_ns, exec_start);
          rec->exec_span = spans_->Add(rec->span, r.id, "core.execute",
                                       exec_start, rec->end_ns);
        }
        break;
      }
      case Layer::kSql: {
        auto res = conn.sql->Execute(
            SelectText(view, r.spec, config_.wire_optimizer));
        if (res.ok()) rec->table = res->table;
        Finish(res.status(), r, rec);
        rec->span = spans_->Add(0, r.id, "parser.sql", rec->start_ns,
                                rec->end_ns);
        break;
      }
      case Layer::kDecomposed:
        Decomposed(env, r, optimizer, up, rec);
        break;
    }
  }

  // MakeOptimizer+Optimize, PlanPhysical and ExecutePhysical, each timed. The
  // optimize and physical-plan spans hang under the served path's planning
  // phase only when the database boundary missed the plan cache; on a hit
  // they are roots, off the served path.
  void Decomposed(Env& env, const Request& r, const std::string& optimizer,
                  const Record* up, Record* rec) {
    Database& db = *env.db;
    auto snap = db.snapshot();
    auto view_it = snap->views.find(env.view);
    if (view_it == snap->views.end()) {
      Finish(Status::NotFound("view " + env.view), r, rec);
      return;
    }
    const MpfViewDef& view = view_it->second;
    const int64_t t0 = rec->start_ns;
    auto opt = MakeOptimizer(optimizer);
    StatusOr<PlanPtr> plan =
        opt.ok() ? (*opt)->Optimize(view, r.spec, snap->catalog,
                                    db.cost_model())
                 : StatusOr<PlanPtr>(opt.status());
    const int64_t t1 = NowNs();
    if (!plan.ok()) {
      Finish(plan.status(), r, rec);
      return;
    }
    exec::Executor executor(snap->catalog, view.semiring, env.exec_options);
    QueryContext ctx;
    auto phys = executor.PlanPhysical(**plan, &ctx);
    const int64_t t2 = NowNs();
    if (!phys.ok()) {
      Finish(phys.status(), r, rec);
      return;
    }
    // The served path runs ExecutePhysical; ExecuteAnalyze's per-operator
    // timers made the same execution 1-2 ms slower on supply_olap, so the
    // span times the former and the operator breakdown comes from the
    // latter, run afterwards.
    auto table = executor.ExecutePhysical(**phys, env.view + "_result", &ctx);
    const int64_t t3 = NowNs();
    QueryContext analyze_ctx;
    auto analyzed =
        executor.ExecuteAnalyze(**plan, env.view + "_result", &analyze_ctx);
    Finish(!table.ok() ? table.status() : analyzed.status(), r, rec);
    rec->end_ns = t3;
    if (!rec->ok) return;
    rec->table = *table;
    rec->analyze_agrees = SameBits(**table, *analyzed->table);
    rec->result_rows = (*table)->NumRows();
    rec->peak_bytes = ctx.stats().peak_bytes;
    AttributeOperators(*analyzed->physical, analyzed->stats, rec);
    const bool on_path = up != nullptr && !up->plan_cache_hit;
    const uint64_t plan_parent = on_path ? up->plan_span : 0;
    spans_->Add(plan_parent, r.id, "opt.optimize", t0, t1);
    spans_->Add(plan_parent, r.id, "plan.physical", t1, t2);
    spans_->Add(up != nullptr ? up->exec_span : 0, r.id, "exec.execute", t2,
                t3);
  }

  static void Finish(const Status& status, const Request& r, Record* rec) {
    rec->end_ns = NowNs();
    rec->ok = status.ok();
    if (!status.ok()) {
      std::fprintf(stderr, "request %llu failed: %s\n",
                   static_cast<unsigned long long>(r.id),
                   status.ToString().c_str());
    }
  }

  const WorkloadConfig& config_;
  std::vector<std::unique_ptr<Env>> envs_;
  SpanLog* spans_;
  std::unique_ptr<server::MpfServer> served_;
  std::unique_ptr<server::MpfServer> session_server_;
  std::unique_ptr<server::net::NetServer> net_;
};

// --- Checks ----------------------------------------------------------------

struct Tally {
  uint64_t attempted = 0;
  uint64_t errors = 0;
  uint64_t wrong = 0;
  uint64_t missing = 0;
  uint64_t failed() const { return errors + wrong + missing; }
};

// In-process answers by canonical query key.
struct Reference {
  TablePtr table;
  uint64_t hash = 0;
};
using References = std::map<std::string, Reference>;

void AddReference(const std::string& key, TablePtr table, References* refs) {
  if (table == nullptr || refs->count(key) != 0) return;
  const uint64_t hash = TableBitsHash(*table);
  refs->emplace(key, Reference{std::move(table), hash});
}

// Counts outcomes; with `refs`, every plain query result must equal its
// reference bit for bit. cache_rw reads run against moving epochs and are
// checked after the run instead (CheckCacheRw).
void Count(const StreamShape& shape, uint64_t seed, const Records& records,
           const References* refs, Tally* tally) {
  ForEachRequest(shape, seed, records, [&](const Request& q, const Record& r) {
    ++tally->attempted;
    if (!r.ok) {
      ++tally->errors;  // reported when it happened
      return;
    }
    if (refs == nullptr || q.kind != OpKind::kQuery) return;
    auto it = refs->find(CanonicalQueryKey(q.spec));
    const bool same =
        it != refs->end() && r.analyze_agrees &&
        (r.table != nullptr ? SameBits(*r.table, *it->second.table)
                            : r.hash == it->second.hash);
    if (!same) {
      ++tally->wrong;
      std::fprintf(stderr, "wrong answer for request %llu (%s)\n",
                   static_cast<unsigned long long>(q.id),
                   CanonicalQueryKey(q.spec).c_str());
    }
  });
}

// Computes in-process references (Database::Query, same optimizer) for every
// distinct query of `records` not yet in `refs`, on `threads` threads.
void FillReferences(Database& db, const std::string& view,
                    const std::string& optimizer, const StreamShape& shape,
                    uint64_t seed, const Records& records, unsigned threads,
                    References* refs) {
  std::vector<MpfQuerySpec> todo;
  std::set<std::string> queued;
  ForEachRequest(shape, seed, records, [&](const Request& q, const Record&) {
    if (q.kind != OpKind::kQuery) return;
    const std::string key = CanonicalQueryKey(q.spec);
    if (refs->count(key) == 0 && queued.insert(key).second) {
      todo.push_back(q.spec);
    }
  });
  std::vector<TablePtr> results(todo.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < todo.size();) {
        auto res = db.Query(view, todo[i], optimizer);
        if (res.ok()) results[i] = res->table;
      }
    });
  }
  for (auto& w : workers) w.join();
  for (size_t i = 0; i < todo.size(); ++i) {
    AddReference(CanonicalQueryKey(todo[i]), std::move(results[i]), refs);
  }
}

// cache_rw after the run, for one database: each cached spec (read over the
// wire as well when `wire` is set) must match a from-scratch query at the
// final epoch, and every row written must hold the last value its only
// writer sent.
void CheckCacheRw(const WorkloadConfig& config, uint64_t seed, Env& env,
                  server::net::NetClient* wire,
                  const std::vector<const Records*>& writes, Tally* tally) {
  Database& db = *env.db;
  for (const auto& [spec, weight] : config.shape.read_block) {
    (void)weight;
    auto scratch = db.Query(env.view, spec, kScratchOptimizer);
    std::vector<TablePtr> answers;
    ++tally->attempted;
    auto cached = db.QueryCached(env.view, spec);
    if (cached.ok()) answers.push_back(*cached);
    if (wire != nullptr) {
      ++tally->attempted;
      auto res = wire->Query(env.view, spec, "", 0, /*cached=*/true);
      if (res.ok()) answers.push_back(res->table);
    }
    if (!scratch.ok() || answers.size() != (wire != nullptr ? 2u : 1u)) {
      ++tally->errors;
      continue;
    }
    for (const TablePtr& answer : answers) {
      if (!fr::TablesEqual(*answer, *scratch->table, kCacheTolerance)) {
        ++tally->wrong;
        std::fprintf(stderr, "cached answer for %s disagrees with scratch\n",
                     CanonicalQueryKey(spec).c_str());
      }
    }
  }
  std::map<uint64_t, double> expected;
  for (const Records* pass : writes) {
    ForEachRequest(config.shape, seed, *pass,
                   [&](const Request& q, const Record& r) {
                     if (q.kind == OpKind::kUpdate && r.ok) {
                       expected[q.update_row] = r.value;
                     }
                   });
  }
  auto table = db.snapshot()->catalog.GetTable(env.update_table);
  if (!table.ok()) {
    ++tally->wrong;
    return;
  }
  for (const auto& [row, value] : expected) {
    const std::vector<VarValue>& vars = env.update_rows[row];
    RowView stored = (*table)->Row(row);
    if (!std::equal(vars.begin(), vars.end(), stored.vars) ||
        (*table)->measure(row) != value) {
      ++tally->wrong;
      std::fprintf(stderr, "row %llu of %s lost its last write\n",
                   static_cast<unsigned long long>(row),
                   env.update_table.c_str());
    }
  }
}

// --- Metrics ---------------------------------------------------------------

std::vector<double> LatenciesMs(const Records& records, bool queries) {
  std::vector<double> out;
  for (const auto& recs : records) {
    for (const Record& r : recs) {
      if (r.ok && r.is_query() == queries) out.push_back(Ms(r.duration_ns()));
    }
  }
  return out;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// The span names of the served path, in call order.
const char* const kServedSpans[] = {
    "client",        "server.session", "core.query",   "core.plan",
    "opt.optimize",  "plan.physical",  "core.execute", "exec.execute",
    "workload.vecache"};

// Per-layer self times of the served path, from the median request: one
// span per served span name, lasting that name's median duration over the
// traced query requests (0 for a request without such a span), under the
// same parent name. Its self times (SelfTimes) are the layer figures and
// add up to the median client latency. Differences of medians, because a
// request's boundaries are separate executions whose latencies correlate
// weakly on a noisy machine: per-request differences averaged over
// requests picked by client latency regress to the mean. Writes report the
// median storage.commit time.
struct LayerSelf {
  std::map<std::string, double> self_ms;
  // ClosureError of the median request, core.execute being the replay gap.
  double closure_error_ms = 0;
  double commit_ms = 0;
};

LayerSelf ComputeLayerSelf(const std::vector<Span>& spans) {
  std::map<uint64_t, const Span*> by_id;
  for (const Span& s : spans) by_id[s.id] = &s;
  std::map<uint64_t, std::map<std::string, int64_t>> per_request;
  std::map<std::string, std::string> parent_name;
  for (const Span& s : spans) {
    const Span* root = &s;
    while (root->parent != 0) root = by_id.at(root->parent);
    if (root->name != "client") continue;
    per_request[s.request][s.name] += s.duration_ns();
    if (s.parent != 0) parent_name[s.name] = by_id.at(s.parent)->name;
  }
  std::map<std::string, std::vector<double>> durations;
  std::vector<double> commits;
  for (const auto& [request, layers] : per_request) {
    if (auto it = layers.find("storage.commit"); it != layers.end()) {
      commits.push_back(Ms(it->second));
      continue;
    }
    for (const char* name : kServedSpans) {
      auto it = layers.find(name);
      durations[name].push_back(it == layers.end() ? 0 : Ms(it->second));
    }
  }
  // The median request as a span tree; durations in nanoseconds.
  std::vector<Span> median;
  std::map<std::string, uint64_t> id_of;
  for (const char* name : kServedSpans) id_of[name] = id_of.size() + 1;
  for (const char* name : kServedSpans) {
    Span s;
    s.id = id_of[name];
    auto parent = parent_name.find(name);
    s.parent = parent == parent_name.end() ? 0 : id_of.at(parent->second);
    s.name = name;
    s.end_ns = static_cast<int64_t>(Median(durations[name]) * 1e6);
    median.push_back(std::move(s));
  }
  const std::map<uint64_t, int64_t> self = SelfTimes(median);
  LayerSelf out;
  for (const Span& s : median) out.self_ms[s.name] = Ms(self.at(s.id));
  out.closure_error_ms = Ms(ClosureError(median, "core.execute"));
  out.commit_ms = Median(std::move(commits));
  return out;
}

// exec.pool_speedup: ExecutePhysical of each of `specs` on one thread vs a
// pool of `threads`, alternating, median of kPoolSpeedupReps each; the ratio
// of the summed medians. Every result must match `refs`.
double PoolSpeedup(const WorkloadConfig& config, Env& env, size_t threads,
                   const std::vector<MpfQuerySpec>& specs,
                   const References& refs, Tally* tally) {
  Database& db = *env.db;
  auto snap = db.snapshot();
  const MpfViewDef& view = snap->views.at(env.view);
  exec::Executor executor(snap->catalog, view.semiring, env.exec_options);
  exec::ThreadPool pool(threads);
  double serial_ms = 0, pooled_ms = 0;
  for (const MpfQuerySpec& spec : specs) {
    auto opt = MakeOptimizer(config.optimizer());
    if (!opt.ok()) return 0;
    auto plan = (*opt)->Optimize(view, spec, snap->catalog, db.cost_model());
    if (!plan.ok()) return 0;
    auto phys = executor.PlanPhysical(**plan);
    if (!phys.ok()) return 0;
    auto ref = refs.find(CanonicalQueryKey(spec));
    std::vector<double> one, many;
    for (int rep = 0; rep < kPoolSpeedupReps; ++rep) {
      for (bool pooled : {false, true}) {
        QueryContext ctx;
        if (pooled) ctx.set_thread_pool(&pool);
        const int64_t t0 = NowNs();
        auto res = executor.ExecutePhysical(**phys, "speedup", &ctx);
        (pooled ? many : one).push_back(Ms(NowNs() - t0));
        ++tally->attempted;
        if (!res.ok() || ref == refs.end() ||
            !SameBits(**res, *ref->second.table)) {
          ++tally->wrong;
        }
      }
    }
    serial_ms += Median(one);
    pooled_ms += Median(many);
  }
  return Ratio(serial_ms, pooled_ms);
}

}  // namespace

int Main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) return 2;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  auto config_or = ConfigFor(opts.workload);
  if (!config_or.ok()) {
    std::fprintf(stderr, "%s\n", config_or.status().ToString().c_str());
    return 2;
  }
  WorkloadConfig config = *config_or;
  if (config.ThreadBudget() > static_cast<int>(nproc)) {
    std::fprintf(stderr,
                 "thread budget %d (io %d + clients %d) exceeds nproc %u; "
                 "refusing to run an oversubscribed benchmark\n",
                 config.ThreadBudget(), kIoThreads, config.clients, nproc);
    return 2;
  }
  const bool plain_queries = config.shape.read_kind == OpKind::kQuery;
  const bool writes = config.shape.writes_per_block > 0;
  const bool olap = config.name == "supply_olap";
  // The traced run needs one database per boundary: wire, Session,
  // Database (+ decomposed), and SQL where the reads are plain queries.
  const size_t envs_needed = !opts.trace ? 1 : plain_queries ? 4 : 3;

  // Set-up, repeated; the last envs_needed databases are kept.
  std::vector<double> setup_s, generate_s, build_cache_s;
  std::vector<std::unique_ptr<Env>> envs;
  const auto setup_start = Clock::now();
  for (int rep = 0; rep < kMaxSetupReps; ++rep) {
    if (rep >= kMinSetupReps &&
        std::chrono::duration<double>(Clock::now() - setup_start).count() >=
            kSetupBudgetSeconds) {
      break;
    }
    if (envs.size() == envs_needed) envs.erase(envs.begin());
    auto t0 = Clock::now();
    auto env_or = SetUp(config);
    if (!env_or.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   env_or.status().ToString().c_str());
      return 1;
    }
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    generate_s.push_back((*env_or)->generate_s);
    build_cache_s.push_back((*env_or)->build_cache_s);
    envs.push_back(std::move(*env_or));
  }
  config.shape.update_rows = envs.front()->update_rows.size();
  const std::string optimizer = config.optimizer();

  SpanLog spans;
  Bench bench(config, std::move(envs), &spans);
  if (Status s = bench.Start(); !s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  Env& served = bench.served();
  Database& db = *served.db;

  Tally tally;
  References refs;
  // Each run starts every database's plan cache from the same state:
  // empty, then (supply_olap) its 14 keys, whose answers are also the
  // references.
  auto prepare = [&] {
    for (Env* env : bench.envs()) {
      env->db->plan_cache().Clear();
      if (!olap) continue;
      for (const auto& [spec, weight] : config.shape.read_block) {
        (void)weight;
        auto res = env->db->Query(env->view, spec, optimizer);
        if (res.ok()) AddReference(CanonicalQueryKey(spec), res->table, &refs);
      }
    }
  };

  std::vector<Metric> metrics;
  std::string detail;
  auto add_detail = [&detail](const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    detail += ", \"" + key + "\": " + buf;
  };

  prepare();
  const auto pc0 = db.plan_cache().stats();
  const auto mv0 = db.mvcc_stats();
  double base_wall = 0;
  const double base_seconds =
      opts.trace ? opts.seconds * kTraceBaseShare : opts.seconds;
  Records base = bench.RunTimed(opts.seed, base_seconds, &base_wall,
                                &tally.missing);
  // Before the references and checks below, which are not the served run.
  const double peak_rss_mb = PeakRssMb();
  const auto pc1 = db.plan_cache().stats();
  const auto mv1 = db.mvcc_stats();

  const std::vector<double> query_ms = LatenciesMs(base, true);
  const std::vector<double> update_ms = LatenciesMs(base, false);
  const double query_p50 = Median(query_ms);
  const double ups = Ratio(static_cast<double>(update_ms.size()), base_wall);
  if (!PercentileSupported(query_ms.size(), kP90)) {
    std::fprintf(stderr, "warning: %zu query samples do not support p90\n",
                 query_ms.size());
  }

  // Writes each database received, for the final cache_rw check.
  std::map<Env*, std::vector<const Records*>> written;
  written[&served].push_back(&base);
  std::vector<Records> traced;
  if (!opts.trace) {
    if (plain_queries) {
      FillReferences(db, served.view, optimizer, config.shape, opts.seed,
                     base, nproc, &refs);
    }
    Count(config.shape, opts.seed, base, plain_queries ? &refs : nullptr,
          &tally);
  } else {
    std::vector<Layer> layers = {Layer::kWire, Layer::kSession,
                                 Layer::kDatabase};
    // The decomposed boundary follows the database one directly: another
    // database's call in between left its execution ~15% slower.
    if (plain_queries) layers.push_back(Layer::kDecomposed);
    if (plain_queries) layers.push_back(Layer::kSql);
    std::vector<size_t> counts;
    for (const auto& recs : base) counts.push_back(recs.size());
    prepare();
    const auto net0 = bench.net().stats();
    traced = bench.RunTraced(layers, opts.seed, counts, &tally.missing);
    const auto net1 = bench.net().stats();
    static const Records kNone;
    auto at = [&](Layer l) -> const Records& {
      auto it = std::find(layers.begin(), layers.end(), l);
      return it == layers.end() ? kNone
                                : traced[static_cast<size_t>(
                                      it - layers.begin())];
    };
    const Records& wire = at(Layer::kWire);
    const Records& database = at(Layer::kDatabase);
    const Records& sqlpass = at(Layer::kSql);
    const Records& decomposed = at(Layer::kDecomposed);
    written[&bench.EnvFor(Layer::kWire)].push_back(&wire);
    written[&bench.EnvFor(Layer::kSession)].push_back(&at(Layer::kSession));
    written[&bench.EnvFor(Layer::kDatabase)].push_back(&database);

    // The database boundary is Database::Query with the workload's
    // optimizer: the reference every other boundary must match bit for bit.
    const References* check = plain_queries ? &refs : nullptr;
    if (plain_queries) {
      ForEachRequest(config.shape, opts.seed, database,
                     [&](const Request& q, const Record& r) {
                       if (!r.ok) return;
                       AddReference(CanonicalQueryKey(q.spec), r.table, &refs);
                     });
    }
    Count(config.shape, opts.seed, base, check, &tally);
    for (const Records& pass : traced) {
      Count(config.shape, opts.seed, pass, check, &tally);
    }

    const LayerSelf self = ComputeLayerSelf(spans.spans());
    auto layer = [&self](const char* name) { return self.self_ms.at(name); };
    const double traced_p50 = Median(LatenciesMs(wire, true));
    // Per-request quantities off the served tree.
    std::vector<double> parser_ms, vec_plain, vec_restricted;
    std::vector<double> join_ms, agg_ms, scan_ms, peak_mb;
    double op_rows = 0, result_rows = 0, spill = 0;
    for (size_t c = 0; c < database.size(); ++c) {
      for (size_t i = 0; i < database[c].size(); ++i) {
        const Record& d = database[c][i];
        if (!d.ok) continue;
        if (d.kind == OpKind::kCachedQuery) {
          (d.restricted ? vec_restricted : vec_plain)
              .push_back(Ms(d.duration_ns()));
        }
        if (!sqlpass.empty() && sqlpass[c][i].ok) {
          parser_ms.push_back(
              Ms(sqlpass[c][i].duration_ns() - d.duration_ns()));
        }
        if (!decomposed.empty() && decomposed[c][i].ok) {
          const Record& x = decomposed[c][i];
          join_ms.push_back(Ms(x.join_ns));
          agg_ms.push_back(Ms(x.agg_ns));
          scan_ms.push_back(Ms(x.scan_ns));
          peak_mb.push_back(static_cast<double>(x.peak_bytes) / 1e6);
          op_rows += static_cast<double>(x.operator_rows);
          result_rows += static_cast<double>(x.result_rows);
          spill += static_cast<double>(x.spill_partitions);
        }
      }
    }
    // The pool is timed on the first distinct queries of the stream (all
    // 14 of supply_olap's).
    std::vector<MpfQuerySpec> speedup_specs;
    std::set<std::string> speedup_keys;
    ForEachRequest(config.shape, opts.seed, base,
                   [&](const Request& q, const Record&) {
                     if (q.kind == OpKind::kQuery &&
                         speedup_specs.size() < kPoolSpeedupSpecs &&
                         speedup_keys.insert(CanonicalQueryKey(q.spec))
                             .second) {
                       speedup_specs.push_back(q.spec);
                     }
                   });
    // Against a pool of nproc/2, after the replay, with no client active.
    const size_t pool_threads = nproc / 2;
    const double pool_speedup =
        plain_queries && pool_threads > 1
            ? PoolSpeedup(config, bench.EnvFor(Layer::kDatabase),
                          pool_threads, speedup_specs, refs, &tally)
            : 0;

    const auto server_stats = bench.server().stats();
    const uint64_t commits = mv1.commit_batches - mv0.commit_batches;
    const uint64_t applied = mv1.updates_applied - mv0.updates_applied;
    const uint64_t deltas = mv1.delta_refreshes - mv0.delta_refreshes;
    const uint64_t rebuilds = mv1.full_rebuilds - mv0.full_rebuilds;
    const uint64_t hits = pc1.hits - pc0.hits;
    const uint64_t lookups = hits + (pc1.misses - pc0.misses);

    metrics = {
        {"net.self_ms", layer("client"), "ms"},
        {"net.reads_paused",
         static_cast<double>(net1.reads_paused - net0.reads_paused), "count"},
        {"server.self_ms", layer("server.session"), "ms"},
        {"server.queue_depth_max",
         static_cast<double>(server_stats.max_queue_depth), "count"},
        {"server.plan_cache.hit_rate",
         Ratio(static_cast<double>(hits), static_cast<double>(lookups)),
         "ratio"},
        {"server.plan_cache.evictions",
         static_cast<double>(pc1.evictions - pc0.evictions), "count"},
        {"server.plan_cache.lookup_ms", layer("core.plan"), "ms"},
        {"core.self_ms", layer("core.query"), "ms"},
        {"parser.self_ms", Median(parser_ms), "ms"},
        {"opt.optimize_ms", layer("opt.optimize"), "ms"},
        {"plan.physical_ms", layer("plan.physical"), "ms"},
        {"exec.execute_ms", layer("exec.execute"), "ms"},
        {"exec.join.self_ms", Median(join_ms), "ms"},
        {"exec.agg.self_ms", Median(agg_ms), "ms"},
        {"exec.scan.self_ms", Median(scan_ms), "ms"},
        {"exec.rows_per_result", Ratio(op_rows, result_rows), "ratio"},
        {"exec.peak_mb", Median(peak_mb), "MB"},
        {"exec.spill_partitions", spill, "count"},
        {"exec.pool_speedup", pool_speedup, "ratio"},
        {"storage.commit_ms", self.commit_ms, "ms"},
        {"storage.updates_per_commit",
         Ratio(static_cast<double>(applied), static_cast<double>(commits)),
         "ratio"},
        {"storage.versions_retained",
         static_cast<double>(mv1.versions_retained), "count"},
        {"workload.vecache.answer_ms", Median(vec_plain), "ms"},
        {"workload.vecache.restricted_answer_ms", Median(vec_restricted),
         "ms"},
        {"workload.vecache.delta_refresh_ratio",
         Ratio(static_cast<double>(deltas),
               static_cast<double>(deltas + rebuilds)),
         "ratio"},
        {"client.update_p50_ms", Median(update_ms), "ms"},
        {"client.update_p90_ms", Percentile(update_ms, kP90), "ms"},
        {"client.updates_per_sec", ups, "1/s"},
        {"setup.generate_s", Median(generate_s), "s"},
        {"setup.build_cache_s", Median(build_cache_s), "s"},
        {"trace.client_p50_ms", traced_p50, "ms"},
        {"trace.overhead_frac", Ratio(traced_p50 - query_p50, query_p50),
         "ratio"},
        {"trace.closure_error_frac",
         Ratio(self.closure_error_ms, traced_p50), "ratio"},
    };
    add_detail("exec.replay_gap_ms", layer("core.execute"));
    static const char* const kBoundaryNames[] = {"wire", "session", "database",
                                                 "sql", "decomposed"};
    for (size_t l = 0; l < layers.size(); ++l) {
      add_detail(std::string("boundary.") +
                     kBoundaryNames[static_cast<int>(layers[l])] + "_p50_ms",
                 Median(LatenciesMs(traced[l], true)));
    }
  }
  if (writes) {
    auto wire = server::net::NetClient::Connect(bench.net().port());
    for (auto& [env, passes] : written) {
      CheckCacheRw(config, opts.seed, *env,
                   env == &served && wire.ok() ? wire->get() : nullptr,
                   passes, &tally);
    }
    if (!wire.ok()) ++tally.missing;
  }
  bench.Stop();

  if (!opts.trace) {
    metrics = {
        {"query_p50_ms", query_p50, "ms"},
        {"query_p90_ms", Percentile(query_ms, kP90), "ms"},
        {"queries_per_sec",
         Ratio(static_cast<double>(query_ms.size()), base_wall), "1/s"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
    if (writes) {
      add_detail("update_p50_ms", Median(update_ms));
      add_detail("update_p90_ms", Percentile(update_ms, kP90));
      add_detail("updates_per_sec", ups);
    }
  }
  add_detail("nproc", nproc);
  add_detail("clients", config.clients);
  add_detail("admission_slots", config.clients);
  add_detail("io_threads", kIoThreads);
  add_detail("executor_pool", static_cast<double>(kPoolThreads));
  add_detail("thread_budget", config.ThreadBudget());
  add_detail("query_samples", static_cast<double>(query_ms.size()));
  add_detail("update_samples", static_cast<double>(update_ms.size()));
  add_detail("setup_reps", static_cast<double>(setup_s.size()));
  add_detail("error_frac", Ratio(static_cast<double>(tally.failed()),
                                 static_cast<double>(tally.attempted)));

  bool finite = true;
  for (const Metric& m : metrics) finite = finite && std::isfinite(m.value);
  if (opts.trace && !opts.spans_path.empty() &&
      !spans.WriteJsonLines(opts.spans_path)) {
    std::fprintf(stderr, "cannot write spans to %s\n", opts.spans_path.c_str());
    finite = false;
  }
  const bool correct = tally.wrong == 0 && tally.missing == 0 && finite;
  std::printf("# detail {\"workload\": \"%s\", \"seed\": %llu%s}\n",
              config.name.c_str(), static_cast<unsigned long long>(opts.seed),
              detail.c_str());
  std::printf("%s\n",
              ResultLine(correct, std::max<uint64_t>(1, tally.attempted),
                         tally.failed(), metrics)
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace mpfdb::e2ebench

int main(int argc, char** argv) { return mpfdb::e2ebench::Main(argc, argv); }
