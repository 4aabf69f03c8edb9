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
//   ./build/bench/ablate_opt_scaling [max_tables] [--json <path>]
//   (max_tables defaults to 12)

#include <cstdlib>
#include <thread>

#include "bench_util.h"
#include "bn/bayes_net.h"
#include "util/rng.h"

using namespace mpfdb;
using bench::RunQuery;

namespace {

// Mean planning milliseconds of `spec` over every (q, e) pair of the net.
double MeanBayesNetPlanningMs(Database& db, const std::string& view,
                              int num_vars, const std::string& spec) {
  double total_ms = 0;
  int queries = 0;
  for (int q = 0; q < num_vars; ++q) {
    for (int e = 0; e < num_vars; ++e) {
      if (e == q) continue;
      MpfQuerySpec query{{"x" + std::to_string(q)},
                         {{"x" + std::to_string(e), (q + e) % 3}}};
      total_ms += RunQuery(db, view, query, spec, false).planning_ms;
      ++queries;
    }
  }
  return total_ms / queries;
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

  if (!json_path.empty() && !json.WriteTo(json_path)) return 1;
  return 0;
}
