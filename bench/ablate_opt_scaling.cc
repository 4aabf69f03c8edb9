// Ablation — optimization-time scaling (Theorem 2).
//
// The paper's complexity claims: Selinger-style CS+ costs O(N 2^N) in the
// number of tables, while VE with a linear-time heuristic costs O(M S 2^S)
// in the number of variables M and average connectivity S — so on the star
// schema (the classic DP worst case, Section 5.3) VE's planning time stays
// near-flat as N grows while CS+ explodes. This bench measures planning time
// only (plans are not executed).
//
// A second section, opt_planning/bn40_*, times planning on the end-to-end
// bn_inference view: the 40-node random Bayes net (at most 2 parents,
// domain 3, seed 33), asked P(x_q | x_e = v) for all 1,560 ordered pairs
// (q, e), v = (q + e) mod 3. It reports the mean Optimize time per spec.
//
// A third section, plan_cache/bn40_*, measures the plan cache's
// parameterized templates on the same net under ve(deg): the malloc-counted
// bytes of all 1,560 templates (one per (q, e) pair; the evidence value is a
// parameter), the hit rate over a seeded stream of 4,680 random
// single-evidence queries starting from an empty cache, and the mean time to
// inflate a template against the mean time to optimize from scratch.
//
//   ./build/bench/ablate_opt_scaling [max_tables] [--json <path>]
//   (max_tables defaults to 12)

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <utility>

#include "bench_util.h"
#include "bn/bayes_net.h"
#include "plan/plan_template.h"
#include "server/plan_cache.h"
#include "util/rng.h"

using namespace mpfdb;
using bench::RunQuery;

// Live heap bytes, as malloc rounds them: every operator new/delete in this
// binary is counted, so a before/after difference is what a structure
// really keeps resident.
namespace {
std::atomic<int64_t> g_live_bytes{0};

void* CountedAlloc(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  g_live_bytes.fetch_add(malloc_usable_size(p), std::memory_order_relaxed);
  return p;
}

void CountedFree(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }

namespace {

// P(x_q | x_e = v) on the 40-node net.
MpfQuerySpec BayesNetQuery(int q, int e, VarValue v) {
  return MpfQuerySpec{{"x" + std::to_string(q)},
                      {{"x" + std::to_string(e), v}}};
}

// Mean planning milliseconds of `spec` over every (q, e) pair of the net.
double MeanBayesNetPlanningMs(Database& db, const std::string& view,
                              int num_vars, const std::string& spec) {
  double total_ms = 0;
  int queries = 0;
  for (int q = 0; q < num_vars; ++q) {
    for (int e = 0; e < num_vars; ++e) {
      if (e == q) continue;
      total_ms +=
          RunQuery(db, view, BayesNetQuery(q, e, (q + e) % 3), spec, false)
              .planning_ms;
      ++queries;
    }
  }
  return total_ms / queries;
}

// The plan_cache/bn40_* rows: template memory, stream hit rate, and
// inflate-vs-optimize time, all under ve(deg).
void PlanCacheSection(Database& db, const MpfViewDef& view,
                      int num_vars, double hardware_threads,
                      bench::BenchJsonWriter& json) {
  const std::string spec = "ve(deg)";
  // The const accessor: the mutable one bumps the structural epoch.
  const Catalog& catalog = std::as_const(db).catalog();
  const int templates = num_vars * (num_vars - 1);
  auto explain = [&](const MpfQuerySpec& query) {
    // Explain plans through the cache without executing.
    if (!db.Explain(view.name, query, spec).ok()) {
      std::abort();
    }
  };

  // Memory: warm the snapshot, empty the cache, then plan every template.
  explain(BayesNetQuery(0, 1, 0));
  db.plan_cache().Clear();
  const int64_t before = g_live_bytes.load();
  for (int q = 0; q < num_vars; ++q) {
    for (int e = 0; e < num_vars; ++e) {
      if (e != q) explain(BayesNetQuery(q, e, (q + e) % 3));
    }
  }
  const double all_bytes = double(g_live_bytes.load() - before);
  const server::PlanCache::Stats filled = db.plan_cache().stats();

  // Hit rate over a seeded stream, from an empty cache.
  db.plan_cache().Clear();
  const server::PlanCache::Stats start = db.plan_cache().stats();
  Rng rng(21);
  constexpr int kStream = 4680;
  for (int i = 0; i < kStream; ++i) {
    const int q = int(rng.UniformInt(0, num_vars - 1));
    int e = int(rng.UniformInt(0, num_vars - 2));
    if (e >= q) ++e;
    explain(BayesNetQuery(q, e, VarValue(rng.UniformInt(0, 2))));
  }
  const server::PlanCache::Stats end = db.plan_cache().stats();
  const double hits = double(end.hits - start.hits);
  const double hit_rate = hits / double(end.hits - start.hits + end.misses -
                                        start.misses);

  // Inflate vs optimize: each template is built from value 0 and inflated
  // with value 1, as a cache hit binds a sibling query's value.
  auto vocab = PlanVocabulary::Build(view, catalog, db.cost_model());
  if (!vocab.ok()) std::abort();
  double optimize_us = 0;
  double inflate_us = 0;
  for (int q = 0; q < num_vars; ++q) {
    for (int e = 0; e < num_vars; ++e) {
      if (e == q) continue;
      auto optimizer = MakeOptimizer(spec);
      if (!optimizer.ok()) std::abort();
      const MpfQuerySpec built_from = BayesNetQuery(q, e, 0);
      auto start_opt = bench::Clock::now();
      auto plan =
          (*optimizer)->Optimize(view, built_from, catalog, db.cost_model());
      optimize_us += bench::MsSince(start_opt) * 1e3;
      if (!plan.ok()) std::abort();
      auto tmpl = PlanTemplate::Compact(
          **plan, (*optimizer)->name(), (*optimizer)->last_variable_order(),
          **vocab, server::CanonicalSelections(built_from));
      if (!tmpl.ok()) std::abort();
      const MpfQuerySpec bound_to = BayesNetQuery(q, e, 1);
      auto start_inflate = bench::Clock::now();
      auto bound = tmpl->Inflate(**vocab, server::CanonicalSelections(bound_to),
                                 bound_to.having);
      inflate_us += bench::MsSince(start_inflate) * 1e3;
      if (!bound.ok()) std::abort();
    }
  }
  optimize_us /= templates;
  inflate_us /= templates;

  std::printf("\n# Plan-cache templates of the 40-node net (ve(deg))\n");
  std::printf("templates %zu, %.0f malloc bytes each, %.2f MB in all "
              "(template arrays %.0f bytes each)\n",
              filled.entries, all_bytes / templates, all_bytes / 1e6,
              double(filled.bytes) / double(filled.entries));
  std::printf("hit rate %.3f over %d seeded queries; inflate %.1f us vs "
              "optimize %.1f us\n",
              hit_rate, kStream, inflate_us, optimize_us);
  json.Add("plan_cache/bn40_memory",
           {{"templates", double(filled.entries)},
            {"hardware_threads", hardware_threads},
            {"bytes_per_template", all_bytes / templates},
            {"total_mb", all_bytes / 1e6},
            {"array_bytes_per_template",
             double(filled.bytes) / double(filled.entries)}});
  json.Add("plan_cache/bn40_stream",
           {{"queries", double(kStream)},
            {"hardware_threads", hardware_threads},
            {"hit_rate", hit_rate},
            {"inflate_us", inflate_us},
            {"optimize_us", optimize_us}});
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::JsonPathFromArgs(argc, argv);
  int max_tables = 12;
  if (argc > 1 && argv[1][0] != '-') max_tables = std::atoi(argv[1]);
  const double hardware_threads = std::thread::hardware_concurrency();
  bench::BenchJsonWriter json;

  std::printf("# Optimization-time scaling on the star schema (Theorem 2)\n");
  std::printf("%6s | %16s %16s %16s %16s\n", "N", "cs+_ms", "cs+nl_ms",
              "ve(deg)_ms", "ve(deg)ext_ms");
  for (int n = 4; n <= max_tables; n += 2) {
    Database db;
    workload::SyntheticParams params;
    params.kind = workload::SyntheticKind::kStar;
    params.num_tables = n;
    params.domain_size = 4;  // keep table materialization cheap
    auto schema = workload::GenerateSynthetic(params, db.catalog());
    if (!schema.ok() || !db.CreateMpfView(schema->view).ok()) return 1;

    MpfQuerySpec query{{schema->linear_vars[0]}, {}};
    auto linear = RunQuery(db, schema->view.name, query, "cs+", false);
    auto nonlinear =
        RunQuery(db, schema->view.name, query, "cs+nonlinear", false);
    auto ve = RunQuery(db, schema->view.name, query, "ve(deg)", false);
    auto ve_ext = RunQuery(db, schema->view.name, query, "ve(deg) ext.", false);
    std::printf("%6d | %16.3f %16.3f %16.3f %16.3f\n", n, linear.planning_ms,
                nonlinear.planning_ms, ve.planning_ms, ve_ext.planning_ms);
    json.Add("opt_scaling/star_" + std::to_string(n),
             {{"tables", double(n)},
              {"hardware_threads", hardware_threads},
              {"cs+_ms", linear.planning_ms},
              {"cs+nonlinear_ms", nonlinear.planning_ms},
              {"ve_deg_ms", ve.planning_ms},
              {"ve_deg_ext_ms", ve_ext.planning_ms}});
  }
  std::printf("\n# Expected shape: cs+nl grows ~3^N; ve near-linear in N.\n");

  constexpr int kNetVars = 40;
  Database db;
  Rng rng(33);
  auto net = bn::RandomBayesNet(kNetVars, 2, 3, rng);
  if (!net.ok()) return 1;
  auto view = net->ToMpfView(db.catalog());
  if (!view.ok() || !db.CreateMpfView(*view).ok()) return 1;
  std::printf("\n# Planning the 40-node bn_inference net, %d queries\n",
              kNetVars * (kNetVars - 1));
  std::printf("%-16s | %12s\n", "spec", "mean_ms");
  struct Spec {
    const char* spec;
    const char* key;
  };
  for (const Spec& s :
       {Spec{"ve(deg)", "ve_deg"}, Spec{"ve(deg) ext.", "ve_deg_ext"},
        Spec{"ve(min_fill)", "ve_min_fill"}, Spec{"faq", "faq"}}) {
    const double mean_ms =
        MeanBayesNetPlanningMs(db, view->name, kNetVars, s.spec);
    std::printf("%-16s | %12.3f\n", s.spec, mean_ms);
    json.Add(std::string("opt_planning/bn40_") + s.key,
             {{"queries", double(kNetVars * (kNetVars - 1))},
              {"hardware_threads", hardware_threads},
              {"mean_ms", mean_ms}});
  }

  PlanCacheSection(db, *view, kNetVars, hardware_threads, json);

  if (!json_path.empty() && !json.WriteTo(json_path)) return 1;
  return 0;
}
