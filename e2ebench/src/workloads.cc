#include "workloads.h"

#include <chrono>

#include "bn/bayes_net.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace mpfdb::e2ebench {

namespace {

// The datasets are fixed; --seed drives only the request streams, so every
// seed measures the same database.
constexpr uint64_t kBayesNetSeed = 33;
constexpr int kBayesNetVars = 40;
constexpr int kBayesNetMaxParents = 2;
constexpr int64_t kBayesNetDomain = 3;
constexpr double kOlapScale = 0.1;   // location: 100k rows
constexpr double kCacheScale = 0.05;  // location: 50k rows

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

StatusOr<WorkloadConfig> ConfigFor(const std::string& workload) {
  WorkloadConfig c;
  c.name = workload;
  if (workload == "supply_olap") {
    // Not in BENCHMARK.json: its memory-bound hash joins follow the host's
    // memory contention too closely to hold a bound (README.md).
    // Q1-Q3 single-variable totals plus cid restricted to each of ten
    // transporters: 14 plan-cache keys, all resident after warm-up. The
    // served path runs serial: on a 4-vCPU box a morsel pool of nproc/2
    // served these queries slower and with twice the run-to-run spread, so
    // the pool is measured apart from the timed run (exec.pool_speedup).
    for (const char* var : {"cid", "tid", "wid", "pid"}) {
      c.shape.read_block.push_back({MpfQuerySpec{{var}, {}}, 1});
    }
    for (VarValue k = 0; k < 10; ++k) {
      c.shape.read_block.push_back({MpfQuerySpec{{"cid"}, {{"tid", k}}}, 1});
    }
  } else if (workload == "bn_inference") {
    c.clients = 2;
    c.wire_optimizer = "ve(deg)";
    c.shape.bn_vars = kBayesNetVars;
    c.shape.bn_domain = kBayesNetDomain;
  } else if (workload == "cache_rw") {
    c.clients = 2;
    c.shape.read_kind = OpKind::kCachedQuery;
    // ablate_vecache's seven specs, interleaved 50/50 with writes. Their
    // answer times form separate clusters (in-process: cid, wid, tid
    // 0.02-0.05 ms, sid 0.3, pid 0.9, wid|cid 4.8, cid|tid 12), and a
    // percentile on the edge between two clusters jumps between them with
    // small speed changes (ablate_vecache's probabilities put p50 on the
    // sid/pid edge and p90 on the wid|cid / cid|tid edge; p50 then moved
    // 2.3x across seeds). These weights put p50 mid-pid (35-65 %), where
    // the wire is a large share of the latency, and p90 inside cid|tid
    // (80-100 %), the slowest Theorem 5 path. wid|cid (65-80 %) shows in
    // queries_per_sec only.
    c.shape.read_block = {
        {MpfQuerySpec{{"cid"}, {}}, 2},
        {MpfQuerySpec{{"wid"}, {}}, 2},
        {MpfQuerySpec{{"tid"}, {}}, 2},
        {MpfQuerySpec{{"sid"}, {}}, 1},
        {MpfQuerySpec{{"pid"}, {}}, 6},
        {MpfQuerySpec{{"wid"}, {{"cid", 1}}}, 3},
        {MpfQuerySpec{{"cid"}, {{"tid", 0}}}, 4},
    };
    c.shape.writes_per_block = 20;
  } else {
    return Status::InvalidArgument("unknown workload '" + workload +
                                   "' (supply_olap, bn_inference, cache_rw)");
  }
  c.shape.clients = c.clients;
  return c;
}

StatusOr<std::unique_ptr<Env>> SetUp(const WorkloadConfig& config) {
  auto env = std::make_unique<Env>();
  env->db = std::make_unique<Database>();
  env->exec_options.num_threads = kPoolThreads;
  env->db->set_exec_options(env->exec_options);
  Database& db = *env->db;

  auto start = std::chrono::steady_clock::now();
  if (config.name == "bn_inference") {
    Rng rng(kBayesNetSeed);
    MPFDB_ASSIGN_OR_RETURN(
        bn::BayesNet net, bn::RandomBayesNet(kBayesNetVars, kBayesNetMaxParents,
                                             kBayesNetDomain, rng));
    MPFDB_ASSIGN_OR_RETURN(MpfViewDef view, net.ToMpfView(db.catalog()));
    env->view = view.name;
    MPFDB_RETURN_IF_ERROR(db.CreateMpfView(std::move(view)));
    env->generate_s = SecondsSince(start);
    return env;
  }

  workload::SupplyChainParams params;
  params.scale = config.name == "supply_olap" ? kOlapScale : kCacheScale;
  MPFDB_ASSIGN_OR_RETURN(workload::SupplyChainSchema schema,
                         workload::GenerateSupplyChain(params, db.catalog()));
  env->view = schema.view.name;
  env->update_table = schema.view.relations[0];  // contracts(pid, sid; price)
  MPFDB_RETURN_IF_ERROR(db.CreateMpfView(schema.view));
  env->generate_s = SecondsSince(start);

  if (config.shape.writes_per_block > 0) {
    auto cache_start = std::chrono::steady_clock::now();
    MPFDB_RETURN_IF_ERROR(db.BuildCache(env->view));
    env->build_cache_s = SecondsSince(cache_start);
    MPFDB_ASSIGN_OR_RETURN(TablePtr table,
                           db.snapshot()->catalog.GetTable(env->update_table));
    for (size_t i = 0; i < table->NumRows(); ++i) {
      RowView row = table->Row(i);
      env->update_rows.emplace_back(row.vars, row.vars + row.arity);
    }
  }
  return env;
}

double UpdateValue(int pass, int client, uint32_t serial) {
  return 100.0 + 0.5 * static_cast<double>(serial) +
         0.125 * static_cast<double>(client) +
         1048576.0 * static_cast<double>(pass);
}

}  // namespace mpfdb::e2ebench
