// The differential driver: one seeded harness that checks every way of
// answering an MPF query against one oracle, fr::EvaluateNaiveMpf.
//
// For a seed it draws a view (tests/random_view.h), a semiring and queries
// with group variables, selections and HAVING clauses, and checks them on
// the axes a case asks for:
//
//   optimizers  every MakeOptimizer spec plans each query, and the serial
//               executor's answer (the spec's golden) equals the oracle: at
//               tolerance 0.0 when the measures make every fold order exact,
//               else at 1e-9 relative.
//   engine      one spec per query, in rotation over the seeds, runs its
//               plan on packed keys, keys past the dense join heads (2^25
//               domains) or vector keys (2^62 domains); without a budget or
//               under 2 KiB, which forces spills. Each run reproduces the
//               golden bit for bit, unwinds every charge and leaves no spill
//               file; on the chain family every budgeted run must spill.
//   serving     the same plans through Database::Query (a caller context
//               with a spill budget, after a sibling query with other
//               selection values cached the plan's template), QueryWhatIf
//               without a change, Session::Query, NetClient over NetServer
//               and SqlSession: bit for bit.
//   approx      QueryApprox: the golden on an acyclic view; on a cyclic one
//               its bounds bracket the oracle.
//   cached      QueryCached answers from the VE-cache, which folds in its
//               own order: the oracle at 1e-7, for semirings with division;
//               and again after the cache's delta path absorbed an update
//               to every relation.
//
// A concurrent mode runs in-process sessions, wire sessions and writers
// together. Every row belongs to one session, which alone writes it, so the
// acknowledged commit epochs define a serial schedule; a database that
// rebuilds its VE-caches on every commit replays that schedule, bit for bit.
//
// On a mismatch the driver shrinks the case (Shrink) while the same route
// still disagrees, then prints the minimal view and query, the route, the
// optimizer and the command that replays the seed. The driver's cases are
// one table (kCases) of seed sets, each naming the view family, semirings
// and axes it runs.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "exec/executor.h"
#include "fr/algebra.h"
#include "parser/sql.h"
#include "random_view.h"
#include "server/net/client.h"
#include "server/net/net_server.h"
#include "server/server.h"
#include "storage/csv.h"
#include "util/query_context.h"
#include "util/rng.h"

namespace mpfdb {
namespace {

namespace fs = std::filesystem;
using server::net::NetClient;

// --- Routes -----------------------------------------------------------------

enum class Keys { kPacked, kMid, kWide };

// One way of answering a query. The default route is the golden: the
// serial executor on packed keys without a budget.
struct Route {
  enum Kind {
    kExecutor,
    kDatabase,
    kWhatIf,
    kSession,
    kWire,
    kSql,
    kApprox,
    kCached,
    kCachedAfterUpdate,
  };
  Kind kind = kExecutor;
  Keys keys = Keys::kPacked;
  bool spill = false;

  bool golden() const {
    return kind == kExecutor && keys == Keys::kPacked && !spill;
  }
  std::string Name() const {
    static const char* const kNames[] = {"executor",
                                         "Database::Query",
                                         "QueryWhatIf",
                                         "Session::Query",
                                         "NetClient",
                                         "SqlSession",
                                         "QueryApprox",
                                         "QueryCached",
                                         "QueryCached after an update"};
    static const char* const kKeys[] = {"packed", "mid", "wide"};
    if (kind != kExecutor) return kNames[kind];
    return std::string("executor/") + kKeys[static_cast<int>(keys)] +
           (spill ? "/spill" : "/mem");
  }
};

// The axes a case checks (see the top of the file).
enum Axis : unsigned {
  kOptimizers = 1,
  kEngine = 2,
  kServing = 4,
  kApprox = 8,
  kCached = 16,
  kAllAxes = 31,
};

// The routes that run one spec's plan on `axes`, the golden first.
std::vector<Route> PlanRoutes(unsigned axes) {
  std::vector<Route> routes = {Route{}};
  for (Keys keys : {Keys::kPacked, Keys::kMid, Keys::kWide}) {
    for (bool spill : {false, true}) {
      Route r{Route::kExecutor, keys, spill};
      if ((axes & kEngine) && !r.golden()) routes.push_back(r);
    }
  }
  if (axes & kServing) {
    for (Route::Kind kind : {Route::kDatabase, Route::kWhatIf,
                             Route::kSession, Route::kWire, Route::kSql}) {
      routes.push_back(Route{kind});
    }
  }
  if (axes & kApprox) routes.push_back(Route{Route::kApprox});
  return routes;
}

// Everything one view is served by, built on first use.
class Fixture {
 public:
  explicit Fixture(const DiffView& view)
      : view_(view), def_(ViewDefOf(view)), packed_(CatalogOf(view)) {}
  ~Fixture() {
    client_.reset();
    if (net_) net_->Shutdown();
    if (!spill_dir_.empty()) fs::remove_all(spill_dir_);
  }

  const DiffView& view() const { return view_; }
  const MpfViewDef& def() const { return def_; }

  const Catalog& catalog(Keys keys) {
    if (keys == Keys::kPacked) return packed_;
    auto& slot = keys == Keys::kMid ? mid_ : wide_;
    if (!slot) {
      slot = std::make_unique<Catalog>(
          CatalogOf(view_, int64_t{1} << (keys == Keys::kMid ? 25 : 62)));
    }
    return *slot;
  }
  // This fixture's own spill directory, so a file left behind is its own.
  const std::string& spill_dir() {
    if (spill_dir_.empty()) {
      static std::atomic<int> next{0};
      spill_dir_ = (fs::temp_directory_path() /
                    ("mpfdb_diff_" + std::to_string(::getpid()) + "_" +
                     std::to_string(next++)))
                       .string();
      fs::create_directories(spill_dir_);
    }
    return spill_dir_;
  }
  Database& db() {
    if (!db_) {
      db_ = std::make_unique<Database>();
      Install(*db_, view_, def_.name);
    }
    return *db_;
  }
  server::Session& session() {
    if (!session_) {
      server_ = std::make_unique<server::MpfServer>(db());
      session_ = server_->CreateSession("differential");
    }
    return *session_;
  }
  NetClient& client() {
    if (!client_) {
      session();
      net_ = std::make_unique<server::net::NetServer>(*server_);
      EXPECT_TRUE(net_->Start().ok());
      auto client = NetClient::Connect(net_->port());
      EXPECT_TRUE(client.ok()) << client.status();
      client_ = std::move(*client);
      EXPECT_TRUE(client_->set_recv_timeout_ms(60000).ok());
    }
    return *client_;
  }
  parser::SqlSession& sql() {
    if (!sql_) sql_ = std::make_unique<parser::SqlSession>(db());
    return *sql_;
  }

  // Installs `view` as `name`, with its indexes and (for semirings with
  // division) its VE-cache, into `db`, on copies of its tables.
  static void Install(Database& db, const DiffView& view,
                      const std::string& name) {
    for (const auto& [var, domain] : view.vars) {
      EXPECT_TRUE(db.catalog().RegisterVariable(var, domain).ok());
    }
    MpfViewDef def = ViewDefOf(view);
    def.name = name;
    for (const TablePtr& t : view.tables) {
      EXPECT_TRUE(db.CreateTable(TablePtr(t->Clone(t->name()))).ok());
    }
    for (const auto& [table, var] : view.indexes) {
      EXPECT_TRUE(db.catalog().CreateIndex(table, var).ok());
    }
    EXPECT_TRUE(db.CreateMpfView(def).ok());
    if (view.semiring.HasDivision()) {
      Status built = db.BuildCache(name);
      EXPECT_TRUE(built.ok()) << built;
    }
  }

 private:
  DiffView view_;
  MpfViewDef def_;
  Catalog packed_;
  std::unique_ptr<Catalog> mid_, wide_;
  std::string spill_dir_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<server::MpfServer> server_;
  std::shared_ptr<server::Session> session_;
  std::unique_ptr<server::net::NetServer> net_;
  std::unique_ptr<NetClient> client_;
  std::unique_ptr<parser::SqlSession> sql_;
};

// `value` printed so that parsing it back gives the same double.
std::string Exact(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// The query as SQL (ToString prints HAVING thresholds round-trip).
std::string SqlOf(const MpfViewDef& def, const MpfQuerySpec& q) {
  return q.ToString(def);
}

// `got` with its columns in the query's group-variable order. Each group is
// one row, so the regrouping moves no measure bit.
StatusOr<TablePtr> Aligned(StatusOr<TablePtr> got, const MpfQuerySpec& q,
                           const Semiring& semiring) {
  if (!got.ok() || (*got)->schema().variables() == q.group_vars) return got;
  return fr::Marginalize(**got, q.group_vars, semiring, "aligned");
}

// "" when `got` equals `want` to `tolerance`; else both tables.
std::string Compare(const TablePtr& want, const StatusOr<TablePtr>& got,
                    double tolerance) {
  if (!got.ok()) return "error: " + got.status().ToString();
  if (fr::TablesEqual(*want, **got, tolerance)) return "";
  return "answer differs at tolerance " + Exact(tolerance) + "\nwant " +
         want->ToString() + "got  " + (*got)->ToString();
}

// "" when every group of `exact` lies within [lower, upper]; a group missing
// from a bound table bounds at Add's identity.
std::string Bracket(const Table& exact, const Table& lower, const Table& upper,
                    const Semiring& semiring) {
  auto rows = [](const Table& t) {
    std::map<std::vector<VarValue>, double> out;
    for (size_t i = 0; i < t.NumRows(); ++i) {
      RowView r = t.Row(i);
      out[std::vector<VarValue>(r.vars, r.vars + r.arity)] = r.measure;
    }
    return out;
  };
  const auto lo = rows(lower), hi = rows(upper);
  for (const auto& [key, value] : rows(exact)) {
    const double l = lo.count(key) ? lo.at(key) : semiring.AddIdentity();
    const double h = hi.count(key) ? hi.at(key) : semiring.AddIdentity();
    const double slack =
        1e-9 * std::max({1.0, std::fabs(l), std::fabs(value), std::fabs(h)});
    if (!(l <= value + slack && value <= h + slack)) {
      return "bounds [" + Exact(l) + ", " + Exact(h) + "] miss " +
             Exact(value) + "\nexact " + exact.ToString();
    }
  }
  return "";
}

// The oracle's answer to `q` over `view`; null when it has none.
TablePtr Oracle(const DiffView& view, const MpfQuerySpec& q) {
  std::vector<fr::Selection> selections;
  for (const auto& s : q.selections) selections.push_back({s.var, s.value});
  auto naive = fr::EvaluateNaiveMpf(view.tables, q.group_vars, selections,
                                    view.semiring, "oracle");
  if (naive.ok() && q.having) {
    naive = fr::FilterMeasure(**naive, *q.having, "oracle");
  }
  return naive.ok() ? *naive : nullptr;
}

// One query on one fixture: the oracle's answer and, per spec, the plan and
// its golden answer, each computed once.
class QueryRun {
 public:
  QueryRun(Fixture& fx, const MpfQuerySpec& query)
      : fx_(fx), query_(query), oracle_(Oracle(fx.view(), query)) {}

  const TablePtr& oracle() const { return oracle_; }
  // Budgeted executor runs that spilled nothing.
  size_t unspilled() const { return unspilled_; }

  // "" when `route` answers as it must for `spec`; else what went wrong. A
  // route other than the golden is only judged once the golden stands.
  std::string Verify(const std::string& spec, const Route& route) {
    const DiffView& view = fx_.view();
    // Bounds of a HAVING query would filter each side on its own value.
    if (oracle_ == nullptr || (route.kind == Route::kApprox && query_.having)) {
      return "";
    }
    if (route.kind == Route::kCached) {
      return Compare(oracle_, Run(spec, route), 1e-7);
    }
    if (route.kind == Route::kCachedAfterUpdate) return CachedAfterUpdate();
    const StatusOr<TablePtr>& golden = Golden(spec);
    if (route.golden()) {
      if (!golden.ok()) return "error: " + golden.status().ToString();
      if (spec == "faq" && view.acyclic &&
          PlanSignature(**plans_.at(spec)).find("MultiwayJoin") !=
              std::string::npos) {
        return "faq planned a MultiwayJoin on an acyclic view";
      }
      return Compare(oracle_, golden, view.exact ? 0.0 : 1e-9);
    }
    if (!golden.ok()) return "";
    return Compare(*golden, Run(spec, route), 0.0);
  }

 private:
  // The VE-cache of a fresh database after its delta path absorbed a new
  // measure for the middle row of every relation, one commit each, against
  // the oracle over the changed relations: "" when they agree to 1e-7.
  std::string CachedAfterUpdate() {
    DiffView changed = fx_.view();
    Database db;
    Fixture::Install(db, changed, "view");
    for (TablePtr& t : changed.tables) {
      const size_t r = t->NumRows() / 2;
      const RowView row = t->Row(r);
      const double value = row.measure * 2;
      Status applied = db.ApplyMeasureUpdate(
          t->name(), std::vector<VarValue>(row.vars, row.vars + row.arity),
          value);
      if (!applied.ok()) return "update: " + applied.ToString();
      TablePtr updated(t->Clone(t->name()));
      updated->set_measure(r, value);
      t = updated;
    }
    const TablePtr want = Oracle(changed, query_);
    if (want == nullptr) return "";
    return Compare(
        want, Aligned(db.QueryCached("view", query_), query_, changed.semiring),
        1e-7);
  }

  const StatusOr<TablePtr>& Golden(const std::string& spec) {
    auto it = goldens_.find(spec);
    if (it == goldens_.end()) it = goldens_.emplace(spec, Run(spec, {})).first;
    return it->second;
  }

  // The route's answer for `spec`, its columns in the query's order. A route
  // that leaves a charge or a spill file behind fails.
  StatusOr<TablePtr> Run(const std::string& spec, const Route& route) {
    const MpfViewDef& def = fx_.def();
    QueryContext ctx;
    if (route.spill || route.kind == Route::kDatabase) {
      ctx.set_memory_limit(2 * 1024);
      ctx.set_spill_dir(fx_.spill_dir());
    }
    auto table = [](auto result) -> StatusOr<TablePtr> {
      if (!result.ok()) return result.status();
      return result->table;
    };
    StatusOr<TablePtr> got = Status::Internal("no answer");
    switch (route.kind) {
      case Route::kExecutor: {
        if (!plans_.count(spec)) {
          auto optimizer = MakeOptimizer(spec);
          if (!optimizer.ok()) return optimizer.status();
          plans_.emplace(spec,
                         (*optimizer)->Optimize(def, query_,
                                                fx_.catalog(Keys::kPacked),
                                                CostModel()));
        }
        const StatusOr<PlanPtr>& plan = plans_.at(spec);
        if (!plan.ok()) return plan.status();
        got = exec::Executor(fx_.catalog(route.keys), def.semiring)
                  .Execute(**plan, "out", &ctx);
        if (route.spill && ctx.stats().spill_files == 0) ++unspilled_;
        break;
      }
      case Route::kDatabase: {
        // A sibling query, every selection value 0, warms the plan cache:
        // this query and the serving routes after it run its template
        // bound to their own values.
        MpfQuerySpec sibling = query_;
        for (auto& s : sibling.selections) s.value = 0;
        (void)fx_.db().Query(def.name, sibling, spec);
        got = table(fx_.db().Query(def.name, query_, spec, &ctx));
        break;
      }
      case Route::kWhatIf:
        got = table(fx_.db().QueryWhatIf(def.name, query_, WhatIf{}, spec));
        break;
      case Route::kSession:
        got = table(fx_.session().Query(def.name, query_, spec));
        break;
      case Route::kWire:
        got = table(fx_.client().Query(def.name, query_, spec));
        break;
      case Route::kSql:
        got = table(fx_.sql().Execute(SqlOf(def, query_) +
                                      " using optimizer " + spec));
        break;
      case Route::kApprox: {
        ApproxOptions options;
        options.seed = 7;
        options.max_rounds = 2;
        options.sweeps_per_round = 16;
        options.burn_in_sweeps = 16;
        auto result = fx_.db().QueryApprox(def.name, query_, options, spec);
        if (!result.ok()) return result.status();
        if (!result->approximate) {
          got = result->estimate;
          break;
        }
        // Bounds are judged against the oracle here; the golden then stands
        // in for the answer.
        std::string miss = Bracket(*oracle_, *result->lower, *result->upper,
                                   def.semiring);
        if (!miss.empty()) return Status::Internal(miss);
        return Golden(spec);
      }
      case Route::kCached:
      case Route::kCachedAfterUpdate:
        got = fx_.db().QueryCached(def.name, query_);
        break;
    }
    if (got.ok() && ctx.stats().bytes_in_use != 0) {
      return Status::Internal(std::to_string(ctx.stats().bytes_in_use) +
                              " bytes still charged after the query");
    }
    if (got.ok() && !fs::is_empty(fx_.spill_dir())) {
      return Status::Internal("spill files left behind");
    }
    return Aligned(std::move(got), query_, def.semiring);
  }

  Fixture& fx_;
  MpfQuerySpec query_;
  TablePtr oracle_;
  std::map<std::string, StatusOr<PlanPtr>> plans_;
  std::map<std::string, StatusOr<TablePtr>> goldens_;
  size_t unspilled_ = 0;
};

// --- Shrinking --------------------------------------------------------------

// Whether `c` is a well-formed case: a relation, a group variable, and every
// variable the query names in some relation.
bool WellFormed(const DiffCase& c) {
  const std::vector<std::string> present = PresentVars(c.view);
  if (present.empty() || c.query.group_vars.empty()) return false;
  for (const auto& v : c.query.group_vars) {
    if (!varset::Contains(present, v)) return false;
  }
  for (const auto& s : c.query.selections) {
    if (!varset::Contains(present, s.var)) return false;
  }
  return true;
}

// `c` with `var` projected out of every relation (keeping the first row of
// each remaining tuple, so each stays a functional relation; a relation over
// `var` alone goes) and out of the query.
DiffCase WithoutVariable(const DiffCase& c, const std::string& var) {
  DiffCase out = c;
  out.view.tables.clear();
  for (const TablePtr& t : c.view.tables) {
    auto at = t->schema().IndexOf(var);
    if (!at) {
      out.view.tables.push_back(t);
      continue;
    }
    std::vector<std::string> vars = t->schema().variables();
    if (vars.size() == 1) continue;
    vars.erase(vars.begin() + static_cast<std::ptrdiff_t>(*at));
    auto kept = std::make_shared<Table>(
        t->name(), Schema(vars, t->schema().measure_name()));
    std::set<std::vector<VarValue>> seen;
    for (size_t r = 0; r < t->NumRows(); ++r) {
      RowView row = t->Row(r);
      std::vector<VarValue> key(row.vars, row.vars + row.arity);
      key.erase(key.begin() + static_cast<std::ptrdiff_t>(*at));
      if (seen.insert(key).second) kept->AppendRow(key, row.measure);
    }
    out.view.tables.push_back(kept);
  }
  auto& groups = out.query.group_vars;
  groups.erase(std::remove(groups.begin(), groups.end(), var), groups.end());
  auto& sels = out.query.selections;
  sels.erase(std::remove_if(sels.begin(), sels.end(),
                            [&](const auto& s) { return s.var == var; }),
             sels.end());
  return out;
}

// Greedily shrinks `c` while `fails` holds. Each pass tries to drop, in
// order, a relation, a variable (WithoutVariable), runs of rows (halves down
// to single rows), an index, the variables no relation uses, a selection,
// the HAVING clause and a group variable; passes repeat until none applies.
DiffCase Shrink(DiffCase c, const std::function<bool(const DiffCase&)>& fails) {
  bool progress = true;
  auto accept = [&](DiffCase cand) {
    auto& ix = cand.view.indexes;  // an index on what went goes too
    ix.erase(std::remove_if(ix.begin(), ix.end(),
                            [&](const auto& index) {
                              for (const TablePtr& t : cand.view.tables) {
                                if (t->name() == index.first) {
                                  return !t->schema().HasVariable(index.second);
                                }
                              }
                              return true;
                            }),
             ix.end());
    if (!WellFormed(cand) || !fails(cand)) return false;
    c = std::move(cand);
    return progress = true;
  };
  auto drop_each = [&](auto field) {
    for (size_t i = 0; i < field(c).size();) {
      DiffCase cand = c;
      field(cand).erase(field(cand).begin() + static_cast<std::ptrdiff_t>(i));
      if (!accept(std::move(cand))) ++i;
    }
  };
  while (progress) {
    progress = false;
    drop_each([](DiffCase& k) -> auto& { return k.view.tables; });
    for (const std::string& var : PresentVars(c.view)) {
      accept(WithoutVariable(c, var));
    }
    for (size_t t = 0; t < c.view.tables.size(); ++t) {
      for (size_t run = c.view.tables[t]->NumRows() / 2; run > 0; run /= 2) {
        for (size_t begin = 0; begin < c.view.tables[t]->NumRows();) {
          const Table& table = *c.view.tables[t];
          auto kept = std::make_shared<Table>(table.name(), table.schema());
          for (size_t r = 0; r < table.NumRows(); ++r) {
            if (r < begin || r >= begin + run) {
              kept->AppendRowRaw(table.Row(r).vars, table.measure(r));
            }
          }
          DiffCase cand = c;
          cand.view.tables[t] = kept;
          if (kept->Empty() || !accept(std::move(cand))) begin += run;
        }
      }
    }
    drop_each([](DiffCase& k) -> auto& { return k.view.indexes; });
    const std::vector<std::string> present = PresentVars(c.view);
    if (c.view.vars.size() > present.size()) {
      DiffCase cand = c;
      auto& vars = cand.view.vars;
      vars.erase(std::remove_if(vars.begin(), vars.end(),
                                [&](const auto& v) {
                                  return !varset::Contains(present, v.first);
                                }),
                 vars.end());
      accept(std::move(cand));
    }
    drop_each([](DiffCase& k) -> auto& { return k.query.selections; });
    if (c.query.having) {
      DiffCase cand = c;
      cand.query.having.reset();
      accept(std::move(cand));
    }
    drop_each([](DiffCase& k) -> auto& { return k.query.group_vars; });
  }
  return c;
}

// A case as text: sizes, semiring, variables, every relation as CSV (exact
// measures), indexes, query.
std::string Describe(const DiffCase& c) {
  std::ostringstream os;
  size_t rows = 0;
  for (const TablePtr& t : c.view.tables) rows += t->NumRows();
  os << c.view.tables.size() << " relations, " << rows << " rows, "
     << c.view.vars.size() << " variables; " << c.view.semiring.name()
     << (c.view.exact ? ", exact" : "") << " measures\nvariables:";
  for (const auto& [var, domain] : c.view.vars) {
    os << " " << var << "[" << domain << "]";
  }
  for (const TablePtr& t : c.view.tables) {
    os << "\nrelation " << t->name() << ":\n" << FormatTableCsv(*t);
  }
  for (const auto& [table, var] : c.view.indexes) {
    os << "\nindex on " << table << "(" << var << ")";
  }
  os << "\nquery: " << SqlOf(ViewDefOf(c.view), c.query);
  return os.str();
}

// Shrinks a failing (case, spec, route) and reports the minimal repro.
void ReportFailure(const DiffCase& c, const std::string& spec,
                   const Route& route) {
  auto problem = [&](const DiffCase& candidate) {
    Fixture fx(candidate.view);
    return QueryRun(fx, candidate.query).Verify(spec, route);
  };
  const DiffCase small =
      Shrink(c, [&](const DiffCase& k) { return !problem(k).empty(); });
  const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
  ADD_FAILURE() << route.Name() << " disagrees for optimizer '" << spec
                << "': " << problem(small) << "\nminimal repro: "
                << Describe(small) << "\nreplay: MPFDB_TEST_SEED="
                << TestSeedOffset() << " tests/differential_test"
                << " --gtest_filter='" << test->test_suite_name() << "."
                << test->name() << "'";
}

// A HAVING clause whose threshold lies halfway between two neighbouring
// answer values, far enough from both that no tolerance moves a row across
// it (equality takes one of the values, on exact answers only); none when
// the answer has no such pair.
std::optional<HavingClause> DrawHaving(const Table& answer, bool exact,
                                       Rng& rng) {
  std::vector<double> values;
  for (size_t i = 0; i < answer.NumRows(); ++i) {
    if (std::isfinite(answer.measure(i))) values.push_back(answer.measure(i));
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  if (values.size() < 2) return std::nullopt;
  const size_t i = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(values.size()) - 2));
  const double lo = values[i], hi = values[i + 1];
  if (hi - lo < 1e-6 * std::max({1.0, std::fabs(lo), std::fabs(hi)})) {
    return std::nullopt;
  }
  const auto op = static_cast<CompareOp>(rng.UniformInt(0, 5));
  if (op == CompareOp::kEq) {
    if (!exact) return std::nullopt;
    return HavingClause{op, lo};
  }
  return HavingClause{op, lo + (hi - lo) / 2};
}

// The driver: two queries on the view drawn for `seed` (from `family`,
// under `semiring` if given), checked on `axes`. The engine, serving and
// approx axes run the plans of `spec`, or of one spec per query in
// rotation.
void RunDifferential(uint64_t seed, unsigned axes,
                     ViewFamily family = ViewFamily::kAny,
                     std::optional<SemiringKind> semiring = {},
                     const char* spec = nullptr) {
  MPFDB_TRACE_SEED(seed);
  Rng rng(seed);
  const DiffView view = DrawView(seed, family, semiring);
  Fixture fx(view);
  const std::vector<std::string>& specs = AllSpecs();
  int failures = 0;
  for (int q = 0; q < 2 && failures < 3; ++q) {
    const std::vector<Route> routes = PlanRoutes(axes);
    DiffCase c{view, DrawQuery(view, rng)};
    if (rng.Bernoulli(0.3)) {
      const TablePtr answer = Oracle(view, c.query);
      ASSERT_NE(answer, nullptr) << SqlOf(fx.def(), c.query);
      c.query.having = DrawHaving(*answer, view.exact, rng);
    }
    QueryRun run(fx, c.query);
    ASSERT_NE(run.oracle(), nullptr) << SqlOf(fx.def(), c.query);
    const size_t rotated = (seed * 2 + q) % specs.size();
    for (size_t s = 0; s < specs.size() && failures < 3; ++s) {
      const bool swept = spec ? specs[s] == spec : s == rotated;
      if (!swept && !(axes & kOptimizers)) continue;
      for (const Route& route : routes) {
        if (!route.golden() && !swept) break;
        if (!run.Verify(specs[s], route).empty()) {
          ReportFailure(c, specs[s], route);
          ++failures;
          break;
        }
      }
    }
    for (const Route cached :
         {Route{Route::kCached}, Route{Route::kCachedAfterUpdate}}) {
      if ((axes & kCached) && view.semiring.HasDivision() &&
          !run.Verify("", cached).empty()) {
        ReportFailure(c, "", cached);
        ++failures;
      }
    }
    // The chain is large enough that every budgeted run must spill; a spill
    // route that stopped spilling would otherwise pass unnoticed.
    if (family == ViewFamily::kChain) {
      EXPECT_EQ(run.unspilled(), 0u) << "budgeted runs that did not spill";
    }
  }
}

// --- Concurrent mode --------------------------------------------------------

// Two views (one acyclic) served to two in-process and two wire sessions
// that read and write at once, a `write_frac` share of their operations
// writes. Every row of every relation belongs to one session, which writes
// it with fresh values, so no commit batch depends on its internal order and
// the acknowledged epochs order every write. A database that rebuilds its
// VE-caches on each commit replays the writes in epoch order, and every read
// at an exact epoch comes out bit for bit the same.
void RunConcurrent(uint64_t seed, double write_frac) {
  MPFDB_TRACE_SEED(seed);
  constexpr int kSessions = 4;
  constexpr int kOps = 24;
  const Semiring semiring =
      seed % 3 == 0 ? Semiring::MaxProduct() : Semiring::SumProduct();
  std::vector<DiffView> views(2);
  for (int i = 0; i < 2; ++i) {
    RandomView rv = MakeRandomView(seed + i, 4, 3, /*force_acyclic=*/i == 0,
                                   "c" + std::to_string(i) + "_");
    views[i].tables = rv.tables;
    views[i].semiring = semiring;
    for (const auto& var : rv.vars) {
      views[i].vars.emplace_back(var, *rv.catalog.DomainSize(var));
    }
  }
  auto view_name = [&](size_t v) {
    return views[v].tables[0]->name() + "_view";
  };
  auto open = [&](DatabaseOptions options) {
    auto db = std::make_unique<Database>(options);
    for (size_t v = 0; v < views.size(); ++v) {
      Fixture::Install(*db, views[v], view_name(v));
    }
    return db;
  };
  struct Read {
    size_t view = 0;
    std::string spec;
    MpfQuerySpec query;
    bool cached = false;
    uint64_t epoch = 0;
    bool epoch_exact = true;  // false: a cached read raced a commit
    TablePtr result;
  };
  struct Write {
    uint64_t epoch = 0;  // the acknowledged commit epoch
    MeasureUpdateSpec update;
  };
  std::unique_ptr<Database> db = open(DatabaseOptions{});
  const uint64_t base = db->epoch();
  server::ServerOptions options;
  options.max_concurrent = 3;
  options.global_memory_limit = 64u << 20;
  server::MpfServer server(*db, options);
  server::net::NetServer net(server);
  ASSERT_TRUE(net.Start().ok());

  // The rows each session owns: (relation, row) pairs dealt round-robin.
  std::vector<std::vector<std::pair<const Table*, size_t>>> owned(kSessions);
  size_t dealt = 0;
  for (const DiffView& view : views) {
    for (const TablePtr& t : view.tables) {
      for (size_t r = 0; r < t->NumRows(); ++r) {
        owned[dealt++ % kSessions].emplace_back(t.get(), r);
      }
    }
  }
  std::vector<std::vector<Read>> reads(kSessions);
  std::vector<std::vector<Write>> writes(kSessions);
  std::atomic<bool> start{false};
  std::vector<std::thread> workers;
  for (int s = 0; s < kSessions; ++s) {
    workers.emplace_back([&, s] {
      std::shared_ptr<server::Session> session;
      std::unique_ptr<NetClient> client;
      if (s < kSessions / 2) {
        session = server.CreateSession("concurrent-" + std::to_string(s));
      } else {
        auto connected = NetClient::Connect(net.port());
        ASSERT_TRUE(connected.ok()) << connected.status();
        client = std::move(*connected);
        ASSERT_TRUE(client->set_recv_timeout_ms(60000).ok());
      }
      Rng rng(seed * 131 + static_cast<uint64_t>(s));
      while (!start.load()) std::this_thread::yield();
      for (int op = 0; op < kOps; ++op) {
        if (rng.Bernoulli(write_frac) && !owned[s].empty()) {
          const auto [target, r] = owned[s][static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(owned[s].size()) - 1))];
          const RowView row = target->Row(r);
          Write w{0,
                  {target->name(),
                   std::vector<VarValue>(row.vars, row.vars + row.arity),
                   128.0 + s * 16.0 + writes[s].size() * 0.125}};
          const MeasureUpdateSpec& u = w.update;
          if (client) {
            auto epoch = client->Update(u.table, u.row_vars, u.new_measure);
            ASSERT_TRUE(epoch.ok()) << epoch.status();
            w.epoch = *epoch;
          } else {
            ASSERT_TRUE(
                session->Update(u.table, u.row_vars, u.new_measure, &w.epoch)
                    .ok());
          }
          writes[s].push_back(std::move(w));
          continue;
        }
        Read r;
        r.view = static_cast<size_t>(rng.UniformInt(0, 1));
        r.spec = AllSpecs()[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(AllSpecs().size()) - 1))];
        r.query = DrawQuery(views[r.view], rng);
        r.cached = rng.Bernoulli(0.4);
        const std::string name = view_name(r.view);
        if (client) {
          auto result = client->Query(name, r.query, r.spec, 0, r.cached);
          ASSERT_TRUE(result.ok()) << result.status();
          r.epoch = result->snapshot_epoch;
          r.epoch_exact = !result->epoch_inexact;
          r.result = result->table;
        } else if (r.cached) {
          r.epoch = db->epoch();
          auto result = session->QueryCached(name, r.query);
          ASSERT_TRUE(result.ok()) << result.status();
          r.epoch_exact = r.epoch == db->epoch();
          r.result = *result;
        } else {
          auto result = session->Query(name, r.query, r.spec);
          ASSERT_TRUE(result.ok()) << result.status();
          r.epoch = result->snapshot_epoch;
          r.result = result->table;
        }
        reads[s].push_back(std::move(r));
      }
    });
  }
  start.store(true);
  for (auto& w : workers) w.join();
  net.Shutdown();

  // Every write committed, each commit batch bumped the epoch once, and
  // measure commits never invalidated a cached plan.
  std::vector<const Write*> schedule;
  for (const auto& log : writes) {
    for (const Write& w : log) schedule.push_back(&w);
  }
  std::sort(schedule.begin(), schedule.end(),
            [](const Write* a, const Write* b) { return a->epoch < b->epoch; });
  const MvccStats mvcc = db->mvcc_stats();
  EXPECT_EQ(mvcc.updates_applied, schedule.size());
  EXPECT_EQ(db->epoch(), base + mvcc.commit_batches);
  for (const Write* w : schedule) {
    EXPECT_GT(w->epoch, base);
    EXPECT_LE(w->epoch, db->epoch());
  }
  const server::ServerStats stats = server.stats();
  EXPECT_EQ(stats.updates, schedule.size());
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.completed, stats.admitted);
  EXPECT_EQ(db->plan_cache().stats().invalidations, 0u);

  DatabaseOptions rebuild;
  rebuild.incremental_cache_refresh = false;
  std::unique_ptr<Database> replay = open(rebuild);
  std::map<uint64_t, std::vector<const Read*>> by_epoch;
  size_t replayed = 0, skipped = 0;
  for (const auto& log : reads) {
    for (const Read& r : log) {
      if (r.epoch_exact) by_epoch[r.epoch].push_back(&r);
      ++(r.epoch_exact ? replayed : skipped);
    }
  }
  size_t next = 0;
  for (const auto& [epoch, epoch_reads] : by_epoch) {
    for (; next < schedule.size() && schedule[next]->epoch <= epoch; ++next) {
      const MeasureUpdateSpec& u = schedule[next]->update;
      ASSERT_TRUE(
          replay->ApplyMeasureUpdate(u.table, u.row_vars, u.new_measure).ok());
    }
    for (const Read* r : epoch_reads) {
      const std::string name = view_name(r->view);
      StatusOr<TablePtr> want = Status::Internal("unset");
      if (r->cached) {
        want = replay->QueryCached(name, r->query);
      } else {
        auto result = replay->Query(name, r->query, r->spec);
        want = result.ok() ? StatusOr<TablePtr>(result->table)
                           : StatusOr<TablePtr>(result.status());
      }
      ASSERT_TRUE(want.ok()) << want.status();
      EXPECT_TRUE(fr::TablesEqual(**want, *r->result, 0.0))
          << (r->cached ? "QueryCached" : r->spec) << " at epoch " << epoch
          << ": " << SqlOf(ViewDefOf(views[r->view]), r->query);
    }
  }
  EXPECT_GT(replayed, skipped);
}

TEST(DifferentialTest, ConcurrentSessionsReplaySerially) {
  RunConcurrent(CaseSeed(0), 0.3);
}

// --- The shrinker -----------------------------------------------------------

// A fake route that is wrong exactly when some relation over the query's
// first group variable has two or more rows shrinks to just that: one
// relation over that variable alone, two rows, no other variable, no index,
// no selection, no HAVING, one group variable.
TEST(DifferentialTest, ShrinkerFindsTheMinimalRepro) {
  DiffView view = DrawView(3, ViewFamily::kCyclic);
  for (const TablePtr& t : view.tables) {
    for (const std::string& var : t->schema().variables()) {
      view.indexes.emplace_back(t->name(), var);
    }
  }
  const std::vector<std::string> vars = PresentVars(view);
  const std::string group = vars[0];
  MpfQuerySpec query{{group, vars[1]}, {{vars[1], 0}, {vars[2], 1}}};
  query.having = HavingClause{CompareOp::kGt, 0.5};
  auto fails = [&](const DiffCase& c) {
    for (const TablePtr& t : c.view.tables) {
      if (t->schema().HasVariable(group) && t->NumRows() >= 2) return true;
    }
    return false;
  };
  const DiffCase start{view, query};
  ASSERT_TRUE(fails(start));
  const DiffCase small = Shrink(start, fails);
  SCOPED_TRACE(Describe(small));
  ASSERT_EQ(small.view.tables.size(), 1u);
  EXPECT_EQ(small.view.tables[0]->schema().variables(),
            std::vector<std::string>{group});
  EXPECT_EQ(small.view.tables[0]->NumRows(), 2u);
  ASSERT_EQ(small.view.vars.size(), 1u);
  EXPECT_EQ(small.view.vars[0].first, group);
  EXPECT_TRUE(small.view.indexes.empty());
  EXPECT_EQ(small.query.group_vars, std::vector<std::string>{group});
  EXPECT_TRUE(small.query.selections.empty());
  EXPECT_FALSE(small.query.having.has_value());
}

// --- The cases ---------------------------------------------------------------

// A set of driver runs: `seeds` seeds from `first` (each offset by `offset`)
// draw a view from `family` under each of `semirings` (or a drawn one) and
// check it on `axes`; `spec` fixes the plans the engine, serving and approx
// axes run. An id ending in '/' names one test per seed, the seed appended;
// any other id names one test over all of them. Most ids are those of the
// per-feature harnesses whose checks the driver took over.
struct DriverCase {
  const char* id;
  unsigned axes;
  uint64_t first = 0, seeds = 1, offset = 0;
  ViewFamily family = ViewFamily::kAny;
  std::vector<SemiringKind> semirings = {};
  const char* spec = nullptr;
};

using SK = SemiringKind;
using VF = ViewFamily;
const DriverCase kCases[] = {
    {"Seeds/DifferentialTest.EveryRouteMatchesTheOracle/", kAllAxes, 0, 8},
    {"Seeds/RandomSchemaTest.AllOptimizersAgreeWithNaive/", kOptimizers, 1,
     12},
    {"Seeds/RandomSchemaTest.VectorizedExecutionMatchesRowAtATime/", kEngine,
     1, 12, 2000},
    {"Seeds/RandomSchemaTest.VeCacheInvariant/", kCached, 1, 12},
    {"Seeds/ParallelDifferentialTest.BitIdenticalAcrossThreadsModesAndSpill/",
     kEngine, 1, 8, 4000},
    {"Seeds/PhysicalExecDifferentialTest.AutoSelectionMatchesForcedHash/",
     kEngine, 1, 8, 9000},
    {"Seeds/PhysicalExecDifferentialTest.FaqAcyclicMatchesForcedHash/",
     kEngine, 1, 8, 17000, VF::kAcyclic, {}, "faq"},
    {"Seeds/DatabasePipelineTest.EveryEntryPointMatchesNaiveOnThePool/",
     kServing | kApprox, 0, 6, 0, VF::kAcyclic},
    {"ParallelChainTest.LargeChainBitIdenticalUnderThreadsAndSpill", kEngine,
     7919, 1, 0, VF::kChain},
    {"DatabaseParallelTest.ThreadCountNeverChangesAnswers", kServing, 7, 1, 0,
     VF::kSupplyChain},
    {"DatabaseParallelTest.CallerContextPoolIsRespected", kServing, 11, 1, 0,
     VF::kSupplyChain},
    {"SmallSupplyChainTest.AllOptimizersAgreeWithNaiveBasicQuery", kOptimizers,
     321, 1, 0, VF::kSupplyChain, {SK::kSumProduct}},
    {"SmallSupplyChainTest.AllOptimizersAgreeWithNaiveConstrainedDomain",
     kOptimizers, 322, 1, 0, VF::kSupplyChain},
    {"SmallSupplyChainTest.AllOptimizersAgreeWithNaiveRestrictedAnswer",
     kOptimizers, 323, 1, 0, VF::kSupplyChain},
    {"SmallSupplyChainTest.MultiVariableGroupBy", kOptimizers, 324, 1, 0,
     VF::kSupplyChain},
    {"SmallSupplyChainTest.MinSumSemiringAgreesWithNaive", kOptimizers, 325, 1,
     0, VF::kSupplyChain, {SK::kMinSum}},
    {"SmallSupplyChainTest.FdPruningUsesProjection", kOptimizers | kEngine, 326,
     1, 0, VF::kSupplyChain, {}, "ve(deg) ext+fd"},
    {"SyntheticSchemaTest.OptimizersAgreeOnAllSchemas", kOptimizers, 0, 3, 0,
     VF::kSynthetic},
    {"FaqPlanTest.CyclicAnswersMatchCsPlusOnExactMeasures", kOptimizers, 23, 1,
     0, VF::kCycle, {SK::kSumProduct, SK::kMaxProduct, SK::kMinSum}},
    {"FaqPlanTest.ReachabilityAgreesWithVe", kOptimizers, 24, 1, 0, VF::kCycle,
     {SK::kBoolOrAnd}},
    {"FaqDatabaseTest.FaqQueryAgreesWithOtherOptimizers", kServing, 25, 1, 0,
     VF::kCycle, {}, "faq"},
    {"WorkloadTest.VeCacheRestrictedDomainProtocol", kCached, 99, 1, 0,
     VF::kSupplyChain},
    {"WorkloadTest.VeCacheRestrictedAnswerQueries", kCached, 100, 1, 0,
     VF::kSupplyChain},
    {"WorkloadTest.VeCacheAnswersMultiVariableQueries", kCached, 101, 1, 0,
     VF::kSupplyChain},
    {"ApproxQueryTest.ApproxBoundsBracketExactOnGrid", kApprox, 5, 1, 0,
     VF::kGrid},
};

// Runs case `c` on its seeds `first` to `last`.
void RunCase(const DriverCase& c, uint64_t first, uint64_t last) {
  std::vector<std::optional<SK>> kinds(c.semirings.begin(), c.semirings.end());
  if (kinds.empty()) kinds.emplace_back();
  for (uint64_t seed = first; seed <= last; ++seed) {
    for (const auto& kind : kinds) {
      RunDifferential(CaseSeed(seed) + c.offset, c.axes, c.family, kind,
                      c.spec);
    }
  }
}

class DriverTest : public ::testing::Test {
 public:
  DriverTest(const DriverCase& c, uint64_t first, uint64_t last)
      : case_(c), first_(first), last_(last) {}
  void TestBody() override { RunCase(case_, first_, last_); }

 private:
  const DriverCase& case_;
  uint64_t first_, last_;
};

// Registers every case in kCases before the tests run.
[[maybe_unused]] const bool kCasesRegistered = [] {
  for (const DriverCase& c : kCases) {
    const std::string id = c.id;
    const size_t dot = id.find('.');
    const bool per_seed = id.back() == '/';
    for (uint64_t first = c.first; first < c.first + c.seeds;
         first += per_seed ? 1 : c.seeds) {
      const uint64_t last = per_seed ? first : first + c.seeds - 1;
      const std::string name =
          id.substr(dot + 1) + (per_seed ? std::to_string(first) : "");
      const auto make = [&c, first, last] {
        return new DriverTest(c, first, last);
      };
      ::testing::RegisterTest(id.substr(0, dot).c_str(), name.c_str(), nullptr,
                              nullptr, __FILE__, __LINE__, make);
    }
  }
  return true;
}();

TEST(ServerSoakTest, ConcurrentSessionsBitIdenticalToSerialReplay) {
  RunConcurrent(CaseSeed(101), 0.1);
}
TEST(NetServerDifferentialTest, WireResultsBitIdenticalToSerialReplay) {
  RunConcurrent(CaseSeed(202), 0.2);
}
class MvccSoakTest : public ::testing::TestWithParam<double> {};
TEST_P(MvccSoakTest, MixedReadersWritersBitIdenticalToSerialReplay) {
  RunConcurrent(CaseSeed(401 + static_cast<uint64_t>(GetParam() * 1000)),
                GetParam());
}
INSTANTIATE_TEST_SUITE_P(Mixes, MvccSoakTest, ::testing::Values(0.05, 0.5),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return info.param < 0.1 ? "Read95Write5"
                                                   : "Read50Write50";
                         });

struct BracketCase {
  uint64_t seed;
  SemiringKind kind;

  std::string Name() const {
    return Semiring(kind).name() + "_seed" + std::to_string(seed);
  }
};
// The ctest id carries the printed parameter; gtest's default print would
// dump the struct's bytes, padding included, which change between builds.
void PrintTo(const BracketCase& c, std::ostream* os) { *os << c.Name(); }
class ApproxBracketTest : public ::testing::TestWithParam<BracketCase> {};
TEST_P(ApproxBracketTest, ApproxBoundsBracketExactOnCycle) {
  RunDifferential(CaseSeed(GetParam().seed), kApprox, ViewFamily::kCycle,
                  GetParam().kind);
}
INSTANTIATE_TEST_SUITE_P(
    SemiringsBySeeds, ApproxBracketTest,
    ::testing::Values(BracketCase{1, SemiringKind::kSumProduct},
                      BracketCase{2, SemiringKind::kSumProduct},
                      BracketCase{3, SemiringKind::kSumProduct},
                      BracketCase{1, SemiringKind::kMinSum},
                      BracketCase{2, SemiringKind::kMinSum},
                      BracketCase{1, SemiringKind::kMaxSum},
                      BracketCase{2, SemiringKind::kMaxSum},
                      BracketCase{1, SemiringKind::kMaxProduct},
                      BracketCase{2, SemiringKind::kMaxProduct},
                      BracketCase{1, SemiringKind::kBoolOrAnd},
                      BracketCase{2, SemiringKind::kBoolOrAnd},
                      BracketCase{1, SemiringKind::kLogSumProduct},
                      BracketCase{2, SemiringKind::kLogSumProduct}),
    [](const ::testing::TestParamInfo<BracketCase>& info) {
      return info.param.Name();
    });

}  // namespace
}  // namespace mpfdb
