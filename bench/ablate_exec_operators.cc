// Ablation — physical operators and key/table representation.
//
// Each logical node kind has one physical algorithm (hash product join,
// hash marginalize, LeapFrog TrieJoin for multiway joins), so what is left
// to measure is how fast those run and what the planner's estimates miss.
// Three layers of measurement here:
//
//  1. A hand-rolled representation ablation: the hash-join +
//     hash-marginalize pipeline (and each operator alone) driven through the
//     batch engine with vector keys (no catalog), and with packed 64-bit
//     keys (whose small-universe join heads use a dense array). Both run on
//     the Swiss tables; the raw hash_table/* section compares those against
//     std::unordered_map with no operator around them.
//  2. A physical-planner demo: a three-relation chain run under EXPLAIN
//     ANALYZE's stats spine, recording the max cardinality q-error.
//  3. google-benchmark microbenches of the hash join and the hash
//     marginalize (pass any --benchmark* flag to run these instead).
//
//   ./build/bench/ablate_exec_operators [--json BENCH_exec.json] [--threads N]
//   ./build/bench/ablate_exec_operators --benchmark_filter=...
//
// --threads N restricts the parallel-scaling sweep to a single worker count;
// by default the headline pipeline is swept at 1/2/4/8 threads and the
// per-count timings land in BENCH_exec.json under pipeline_scaling/*.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/database.h"
#include "cost/cost_model.h"
#include "exec/executor.h"
#include "server/server.h"
#include "exec/hash_table.h"
#include "exec/operator.h"
#include "exec/thread_pool.h"
#include "fr/algebra.h"
#include "opt/faq.h"
#include "plan/physical.h"
#include "plan/plan.h"
#include "storage/catalog.h"
#include "util/query_context.h"
#include "util/rng.h"
#include "workload/generators.h"

using namespace mpfdb;
using namespace mpfdb::exec;

namespace {

// Two joinable functional relations a(x, y) and b(y, z) with `rows` rows
// each over domains sized so that matches are plentiful but not quadratic.
std::pair<TablePtr, TablePtr> MakeJoinInputs(int64_t rows) {
  Rng rng(42);
  int64_t y_domain = std::max<int64_t>(4, rows / 16);
  auto a = std::make_shared<Table>("a", Schema({"x", "y"}, "f"));
  auto b = std::make_shared<Table>("b", Schema({"y", "z"}, "f"));
  for (int64_t i = 0; i < rows; ++i) {
    a->AppendRow({static_cast<VarValue>(i),
                  static_cast<VarValue>(rng.UniformInt(0, y_domain - 1))},
                 rng.UniformDouble(0.5, 2.0));
    b->AppendRow({static_cast<VarValue>(rng.UniformInt(0, y_domain - 1)),
                  static_cast<VarValue>(i)},
                 rng.UniformDouble(0.5, 2.0));
  }
  return {a, b};
}

TablePtr MakeAggInput(int64_t rows) {
  Rng rng(7);
  int64_t group_domain = std::max<int64_t>(4, rows / 64);
  auto t = std::make_shared<Table>("t", Schema({"g", "u"}, "f"));
  for (int64_t i = 0; i < rows; ++i) {
    t->AppendRow({static_cast<VarValue>(rng.UniformInt(0, group_domain - 1)),
                  static_cast<VarValue>(i)},
                 rng.UniformDouble(0.0, 1.0));
  }
  return t;
}

// --- Execution-mode ablation -------------------------------------------------

void Check(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "ablation failed: %s\n", status.ToString().c_str());
    std::abort();
  }
}

// Drains `op` to completion without materializing its output, so the
// measurement isolates operator throughput. Returns the number of rows the
// operator emitted.
size_t Drain(PhysicalOperator& op) {
  Check(op.Open());
  size_t rows = 0;
  RowBatch batch;
  while (true) {
    auto has = op.NextBatch(&batch);
    Check(has.status());
    if (!*has) break;
    rows += batch.num_rows();
    benchmark::DoNotOptimize(batch.measures()[0]);
  }
  op.Close();
  return rows;
}

struct Mode {
  const char* name;
  bool packed;
};

// `batch` builds its trees without a catalog (vector keys); the packed mode
// keeps its historical `batch_packed_swiss` name so its committed baselines
// stay comparable across commits.
constexpr Mode kModes[] = {
    {"batch", false},
    {"batch_packed_swiss", true},
};

// The headline pipeline: a(x,y) join b(y,z), marginalized onto y.
OperatorPtr MakePipeline(const TablePtr& a, const TablePtr& b,
                         Semiring semiring, const Catalog* cat) {
  auto join = std::make_unique<HashProductJoin>(
      std::make_unique<SeqScan>(a), std::make_unique<SeqScan>(b), semiring,
      cat);
  return std::make_unique<HashMarginalize>(
      std::move(join), std::vector<std::string>{"y"}, semiring, cat);
}

struct ModeResult {
  double seconds = 0;
  size_t out_rows = 0;
};

// Runs `make_tree(catalog_or_null)` `reps` times in the given mode and keeps
// the fastest wall time. With `governed` set, a QueryContext (accounting and
// polling active, no limit or deadline) is bound to the tree, measuring the
// resource governor's steady-state overhead.
template <typename MakeTree>
ModeResult Measure(const MakeTree& make_tree, const Catalog* catalog,
                   const Mode& mode, int reps = 3, bool governed = false) {
  ModeResult best;
  for (int rep = 0; rep < reps; ++rep) {
    OperatorPtr root = make_tree(mode.packed ? catalog : nullptr);
    QueryContext ctx;
    if (governed) root->BindContext(&ctx);
    auto start = bench::Clock::now();
    size_t rows = Drain(*root);
    double secs = bench::MsSince(start) / 1e3;
    if (rep == 0 || secs < best.seconds) best = {secs, rows};
  }
  return best;
}

// Measures one tree shape under every mode, prints the comparison, and
// records input-rows/sec per mode in the json writer.
template <typename MakeTree>
void AblateModes(const std::string& label, int64_t input_rows,
                 const MakeTree& make_tree, const Catalog& catalog,
                 bench::BenchJsonWriter* json) {
  std::printf("%s (input %lld rows)\n", label.c_str(),
              static_cast<long long>(input_rows));
  for (const Mode& mode : kModes) {
    ModeResult r = Measure(make_tree, &catalog, mode);
    double ops = static_cast<double>(input_rows) / r.seconds;
    std::printf("  %-18s %8.1f ms   %12.3e rows/s  (%zu out)\n", mode.name,
                r.seconds * 1e3, ops, r.out_rows);
    json->Add(label + "/" + mode.name, {{"input_rows", double(input_rows)},
                                        {"seconds", r.seconds},
                                        {"ops_per_sec", ops},
                                        {"output_rows", double(r.out_rows)}});
  }
}

int RunModeAblation(const std::string& json_path,
                    const std::vector<size_t>& thread_counts) {
  bench::BenchJsonWriter json;
  Semiring semiring = Semiring::SumProduct();

  // The headline pipeline: a(x,y) join b(y,z), marginalized onto y. Input
  // 2 * 10^6 rows; the join expands to ~16x that before the aggregation
  // collapses it to |dom(y)| groups.
  {
    const int64_t rows = 1000000;
    auto [a, b] = MakeJoinInputs(rows);
    Catalog catalog;
    Check(catalog.RegisterVariable("x", rows));
    Check(catalog.RegisterVariable("y", std::max<int64_t>(4, rows / 16)));
    Check(catalog.RegisterVariable("z", rows));
    auto make_tree = [&](const Catalog* cat) {
      return MakePipeline(a, b, semiring, cat);
    };
    AblateModes("pipeline_join_agg", 2 * rows, make_tree, catalog, &json);
  }

  // Hash join alone.
  {
    const int64_t rows = 1 << 18;
    auto [a, b] = MakeJoinInputs(rows);
    Catalog catalog;
    Check(catalog.RegisterVariable("x", rows));
    Check(catalog.RegisterVariable("y", std::max<int64_t>(4, rows / 16)));
    Check(catalog.RegisterVariable("z", rows));
    auto make_tree = [&](const Catalog* cat) -> OperatorPtr {
      return std::make_unique<HashProductJoin>(std::make_unique<SeqScan>(a),
                                               std::make_unique<SeqScan>(b),
                                               semiring, cat);
    };
    AblateModes("hash_join", 2 * rows, make_tree, catalog, &json);
  }

  // Hash marginalize alone.
  {
    const int64_t rows = 1 << 20;
    TablePtr t = MakeAggInput(rows);
    Catalog catalog;
    Check(catalog.RegisterVariable("g", std::max<int64_t>(4, rows / 64)));
    Check(catalog.RegisterVariable("u", rows));
    auto make_tree = [&](const Catalog* cat) -> OperatorPtr {
      return std::make_unique<HashMarginalize>(std::make_unique<SeqScan>(t),
                                               std::vector<std::string>{"g"},
                                               semiring, cat);
    };
    AblateModes("hash_marginalize", rows, make_tree, catalog, &json);
  }

  // Raw hash-table ablation: the Swiss table against std::unordered_map on
  // the three access patterns the execution layer leans on — build (inserts
  // over a ~4x key domain), probe (point lookups, roughly half hits), and
  // fold (group-and-accumulate into a small domain). Packed 64-bit keys.
  {
    const size_t n = 1 << 20;
    Rng rng(11);
    std::vector<uint64_t> keys(n);
    for (auto& k : keys) {
      k = static_cast<uint64_t>(
          rng.UniformInt(0, static_cast<int64_t>(n) * 4 - 1));
    }
    std::vector<uint64_t> probes(n);
    for (auto& k : probes) {
      k = static_cast<uint64_t>(
          rng.UniformInt(0, static_cast<int64_t>(n) * 8 - 1));
    }
    const uint64_t groups = n / 64;

    auto best_of = [](auto&& fn) {
      double best = 0;
      for (int rep = 0; rep < 5; ++rep) {
        auto start = bench::Clock::now();
        fn();
        double secs = bench::MsSince(start) / 1e3;
        if (rep == 0 || secs < best) best = secs;
      }
      return best;
    };

    std::unordered_map<uint64_t, double> std_map;
    std_map.reserve(n);
    SwissTable<double> swiss_map;
    swiss_map.Reserve(n);
    for (uint64_t k : keys) {
      std_map.emplace(k, 1.0);
      swiss_map.FindOrInsert(k, 1.0);
    }

    struct Pattern {
      const char* name;
      double std_secs;
      double swiss_secs;
    };
    const Pattern patterns[] = {
        {"build",
         best_of([&] {
           std::unordered_map<uint64_t, double> m;
           m.reserve(n);
           for (uint64_t k : keys) m.emplace(k, 1.0);
           benchmark::DoNotOptimize(m.size());
         }),
         best_of([&] {
           SwissTable<double> m;
           m.Reserve(n);
           for (uint64_t k : keys) m.FindOrInsert(k, 1.0);
           benchmark::DoNotOptimize(m.size());
         })},
        {"probe",
         best_of([&] {
           size_t hits = 0;
           for (uint64_t k : probes) hits += std_map.find(k) != std_map.end();
           benchmark::DoNotOptimize(hits);
         }),
         best_of([&] {
           size_t hits = 0;
           for (uint64_t k : probes) hits += swiss_map.Find(k) != nullptr;
           benchmark::DoNotOptimize(hits);
         })},
        {"fold",
         best_of([&] {
           std::unordered_map<uint64_t, double> m;
           m.reserve(groups);
           for (uint64_t k : keys) m[k % groups] += 1.0;
           benchmark::DoNotOptimize(m.size());
         }),
         best_of([&] {
           SwissTable<double> m;
           m.Reserve(groups);
           for (uint64_t k : keys) *m.FindOrInsert(k % groups, 0.0).first += 1.0;
           benchmark::DoNotOptimize(m.size());
         })},
    };
    std::printf("hash_table (%zu keys)\n", n);
    for (const Pattern& p : patterns) {
      double std_ops = static_cast<double>(n) / p.std_secs;
      double swiss_ops = static_cast<double>(n) / p.swiss_secs;
      double speedup = p.std_secs / p.swiss_secs;
      std::printf(
          "  %-6s std %12.3e ops/s   swiss %12.3e ops/s   %5.2fx\n", p.name,
          std_ops, swiss_ops, speedup);
      json.Add("hash_table/" + std::string(p.name) + "_std",
               {{"keys", double(n)},
                {"seconds", p.std_secs},
                {"ops_per_sec", std_ops}});
      json.Add("hash_table/" + std::string(p.name) + "_swiss",
               {{"keys", double(n)},
                {"seconds", p.swiss_secs},
                {"ops_per_sec", swiss_ops},
                {"speedup_vs_std", speedup}});
    }
  }

  // Resource-governor overhead: the headline pipeline re-run with a bound
  // QueryContext (memory accounting + cancellation/deadline polling, no
  // limits). The acceptance bar is <= 5% over the ungoverned run per mode.
  {
    const int64_t rows = 1000000;
    auto [a, b] = MakeJoinInputs(rows);
    Catalog catalog;
    Check(catalog.RegisterVariable("x", rows));
    Check(catalog.RegisterVariable("y", std::max<int64_t>(4, rows / 16)));
    Check(catalog.RegisterVariable("z", rows));
    auto make_tree = [&](const Catalog* cat) {
      return MakePipeline(a, b, semiring, cat);
    };
    std::printf("governed_overhead (input %lld rows)\n",
                static_cast<long long>(2 * rows));
    for (const Mode& mode : kModes) {
      // Interleave ungoverned/governed reps so machine-load drift hits both
      // sides equally; best-of over the pairs then cancels it out.
      ModeResult plain, governed;
      for (int rep = 0; rep < 7; ++rep) {
        ModeResult p = Measure(make_tree, &catalog, mode, 1);
        ModeResult g = Measure(make_tree, &catalog, mode, 1, /*governed=*/true);
        if (rep == 0 || p.seconds < plain.seconds) plain = p;
        if (rep == 0 || g.seconds < governed.seconds) governed = g;
      }
      double overhead = governed.seconds / plain.seconds - 1.0;
      std::printf("  %-13s %8.1f ms -> %8.1f ms   %+5.2f%%\n", mode.name,
                  plain.seconds * 1e3, governed.seconds * 1e3,
                  overhead * 100.0);
      json.Add("governed_overhead/" + std::string(mode.name),
               {{"input_rows", double(2 * rows)},
                {"ungoverned_seconds", plain.seconds},
                {"governed_seconds", governed.seconds},
                {"overhead_frac", overhead}});
    }
  }

  // Thread scaling: the headline pipeline in batch+packed mode driven with a
  // worker pool of each requested size. One thread reproduces the serial
  // engine; before timing, each count's materialized result is checked
  // bit-identical against the single-thread output (tolerance 0.0).
  {
    const int64_t rows = 1000000;
    auto [a, b] = MakeJoinInputs(rows);
    Catalog catalog;
    Check(catalog.RegisterVariable("x", rows));
    Check(catalog.RegisterVariable("y", std::max<int64_t>(4, rows / 16)));
    Check(catalog.RegisterVariable("z", rows));
    std::printf("pipeline_scaling (input %lld rows, batch_packed_swiss)\n",
                static_cast<long long>(2 * rows));
    double one_thread_secs = 0;
    TablePtr golden;
    for (size_t threads : thread_counts) {
      ThreadPool pool(threads);
      // Parity check for this worker count.
      {
        OperatorPtr root = MakePipeline(a, b, semiring, &catalog);
        QueryContext ctx;
        ctx.set_thread_pool(&pool);
        root->BindContext(&ctx);
        auto result = Run(*root, "out", &ctx);
        Check(result.status());
        std::vector<size_t> all((*result)->schema().arity());
        std::iota(all.begin(), all.end(), 0);
        (*result)->SortByVariables(all);
        if (golden == nullptr) {
          golden = *result;
        } else if (!fr::TablesEqual(*golden, **result, /*tolerance=*/0.0)) {
          std::fprintf(stderr,
                       "pipeline_scaling: %zu-thread result differs from the "
                       "baseline\n",
                       threads);
          std::abort();
        }
      }
      ModeResult best;
      for (int rep = 0; rep < 3; ++rep) {
        OperatorPtr root = MakePipeline(a, b, semiring, &catalog);
        QueryContext ctx;
        ctx.set_thread_pool(&pool);
        root->BindContext(&ctx);
        auto start = bench::Clock::now();
        size_t out = Drain(*root);
        double secs = bench::MsSince(start) / 1e3;
        if (rep == 0 || secs < best.seconds) best = {secs, out};
      }
      if (threads == 1) one_thread_secs = best.seconds;
      double speedup =
          one_thread_secs > 0 ? one_thread_secs / best.seconds : 1.0;
      std::printf("  threads=%-4zu %8.1f ms   %5.2fx vs 1 thread  (%zu out)\n",
                  threads, best.seconds * 1e3, speedup, best.out_rows);
      // hardware_threads keys the interpretation: counts beyond the
      // machine's cores only measure oversubscription.
      json.Add("pipeline_scaling/threads_" + std::to_string(threads),
               {{"input_rows", double(2 * rows)},
                {"threads", double(threads)},
                {"hardware_threads",
                 double(std::thread::hardware_concurrency())},
                {"seconds", best.seconds},
                {"speedup_vs_1thread", speedup},
                {"output_rows", double(best.out_rows)}});
    }
  }

  // Physical planner: a three-relation chain a(x,y) |x| b(y,z) |x| c(z,w)
  // marginalized onto z, with honest catalog estimates. Every join runs hash
  // and the GroupBy hash-marginalizes; EXPLAIN ANALYZE's stats spine reports
  // the per-operator actuals and the worst cardinality q-error.
  {
    Rng rng(3);
    Catalog catalog;
    Check(catalog.RegisterVariable("x", 2000));
    Check(catalog.RegisterVariable("y", 20));
    Check(catalog.RegisterVariable("z", 20));
    Check(catalog.RegisterVariable("w", 2000));
    auto a = std::make_shared<Table>("a", Schema({"x", "y"}, "f"));
    auto c = std::make_shared<Table>("c", Schema({"z", "w"}, "f"));
    for (int64_t i = 0; i < 2000; ++i) {
      a->AppendRow({static_cast<VarValue>(i),
                    static_cast<VarValue>(rng.UniformInt(0, 19))},
                   rng.UniformDouble(0.5, 2.0));
      c->AppendRow({static_cast<VarValue>(rng.UniformInt(0, 19)),
                    static_cast<VarValue>(i)},
                   rng.UniformDouble(0.5, 2.0));
    }
    auto b = std::make_shared<Table>("b", Schema({"y", "z"}, "f"));
    for (VarValue y = 0; y < 20; ++y) {
      for (VarValue z = 0; z < 20; ++z) {
        b->AppendRow({y, z}, rng.UniformDouble(0.5, 2.0));
      }
    }
    Check(catalog.RegisterTable(a));
    Check(catalog.RegisterTable(b));
    Check(catalog.RegisterTable(c));

    CostModel cost_model;
    PlanBuilder builder(catalog, cost_model);
    auto plan = [&]() -> PlanPtr {
      auto sa = builder.Scan("a");
      Check(sa.status());
      auto sb = builder.Scan("b");
      Check(sb.status());
      auto sc = builder.Scan("c");
      Check(sc.status());
      auto inner = builder.Join(*sa, *sb);
      Check(inner.status());
      auto top = builder.Join(*inner, *sc);
      Check(top.status());
      auto root = builder.GroupBy(*top, {"z"});
      Check(root.status());
      return *root;
    }();

    exec::Executor executor(catalog, Semiring::SumProduct());
    // Per-operator stats spine + max cardinality q-error over the same
    // query, from EXPLAIN ANALYZE's machinery.
    auto analyzed = executor.ExecuteAnalyze(*plan, "out");
    Check(analyzed.status());
    double max_q = 0;
    size_t spill_parts = 0, peak_bytes = 0;
    for (const auto& [logical, stats] : analyzed->stats) {
      if (logical->est_card > 0 && stats.output_rows > 0) {
        double actual = static_cast<double>(stats.output_rows);
        max_q = std::max(max_q, std::max(logical->est_card / actual,
                                         actual / logical->est_card));
      }
      spill_parts += stats.spill_partitions;
      peak_bytes = std::max(peak_bytes, stats.peak_bytes);
    }
    std::printf("physical_planner analyze (max q-error %.2f):\n%s", max_q,
                exec::ExplainAnalyzePlan(*analyzed->physical, analyzed->stats)
                    .c_str());
    json.Add("physical_planner/stats",
             {{"operators", double(analyzed->stats.size())},
              {"max_q_error", max_q},
              {"spill_partitions", double(spill_parts)},
              {"max_peak_bytes", double(peak_bytes)}});
  }

  // Concurrent serving: the shared plan cache's win on a repeated workload,
  // and admission-controlled multi-session throughput. The served database
  // is the planner chain a(x,y) |x| b(y,z) |x| c(z,w); the workload cycles
  // a handful of marginal/selection queries, so a cache-enabled server plans
  // each shape once and replays the memoized physical tree thereafter.
  {
    Rng rng(5);
    Database db;
    Check(db.catalog().RegisterVariable("x", 2000));
    Check(db.catalog().RegisterVariable("y", 20));
    Check(db.catalog().RegisterVariable("z", 20));
    Check(db.catalog().RegisterVariable("w", 2000));
    auto a = std::make_shared<Table>("a", Schema({"x", "y"}, "f"));
    auto c = std::make_shared<Table>("c", Schema({"z", "w"}, "f"));
    for (int64_t i = 0; i < 2000; ++i) {
      a->AppendRow({static_cast<VarValue>(i),
                    static_cast<VarValue>(rng.UniformInt(0, 19))},
                   rng.UniformDouble(0.5, 2.0));
      c->AppendRow({static_cast<VarValue>(rng.UniformInt(0, 19)),
                    static_cast<VarValue>(i)},
                   rng.UniformDouble(0.5, 2.0));
    }
    auto b = std::make_shared<Table>("b", Schema({"y", "z"}, "f"));
    for (VarValue y = 0; y < 20; ++y) {
      for (VarValue z = 0; z < 20; ++z) {
        b->AppendRow({y, z}, rng.UniformDouble(0.5, 2.0));
      }
    }
    Check(db.CreateTable(a));
    Check(db.CreateTable(b));
    Check(db.CreateTable(c));
    Check(db.CreateMpfView({"v", {"a", "b", "c"}, Semiring::SumProduct()}));

    const std::vector<MpfQuerySpec> workload = {
        MpfQuerySpec{{"y"}, {}},
        MpfQuerySpec{{"z"}, {}},
        MpfQuerySpec{{"y", "z"}, {}},
        MpfQuerySpec{{"z"}, {{"y", 3}}},
        MpfQuerySpec{{"y"}, {{"z", 5}}},
    };
    // The no-cache arm clears the plan cache before every query, so each
    // one re-plans.
    auto run_stream = [&](int reps, bool cached) {
      for (int rep = 0; rep < reps; ++rep) {
        for (const auto& spec : workload) {
          if (!cached) db.plan_cache().Clear();
          auto result = db.Query("v", spec);
          Check(result.status());
          benchmark::DoNotOptimize(result->table);
        }
      }
    };

    const int kReps = 20;
    const double total_queries = double(kReps) * double(workload.size());
    run_stream(1, /*cached=*/false);  // warm-up: allocators, page cache
    auto start = bench::Clock::now();
    run_stream(kReps, /*cached=*/false);
    double nocache_secs = bench::MsSince(start) / 1e3;

    db.plan_cache().Clear();  // the cached arm starts cold
    auto before = db.plan_cache().stats();
    start = bench::Clock::now();
    run_stream(kReps, /*cached=*/true);
    double cache_secs = bench::MsSince(start) / 1e3;
    auto after = db.plan_cache().stats();
    double lookups = double((after.hits - before.hits) +
                            (after.misses - before.misses));
    double hit_rate =
        lookups == 0 ? 0.0 : double(after.hits - before.hits) / lookups;
    std::printf(
        "serving plan_cache (%d x %zu queries): no-cache %8.1f ms, cached "
        "%8.1f ms   %5.2fx   hit rate %.3f\n",
        kReps, workload.size(), nocache_secs * 1e3, cache_secs * 1e3,
        nocache_secs / cache_secs, hit_rate);
    json.Add("serving/plan_cache",
             {{"queries", total_queries},
              {"nocache_seconds", nocache_secs},
              {"cached_seconds", cache_secs},
              {"speedup_from_cache", nocache_secs / cache_secs},
              {"hit_rate", hit_rate}});

    // Multi-session throughput through the admission controller. Bounded by
    // the machine: the per-query work is single-pipeline, so the speedup
    // over serial comes from overlapping whole queries.
    const int kSessions = 4;
    const int kPerSession = 25;
    server::ServerOptions options;
    options.max_concurrent = 4;
    server::MpfServer server(db, options);
    auto sbefore = db.plan_cache().stats();
    start = bench::Clock::now();
    std::vector<std::thread> threads;
    for (int s = 0; s < kSessions; ++s) {
      threads.emplace_back([&, s] {
        auto session = server.CreateSession("bench-" + std::to_string(s));
        for (int i = 0; i < kPerSession; ++i) {
          const auto& spec =
              workload[static_cast<size_t>(s + i) % workload.size()];
          auto result = session->Query("v", spec);
          Check(result.status());
          benchmark::DoNotOptimize(result->table);
        }
      });
    }
    for (auto& t : threads) t.join();
    double concurrent_secs = bench::MsSince(start) / 1e3;
    auto safter = db.plan_cache().stats();
    double slookups = double((safter.hits - sbefore.hits) +
                             (safter.misses - sbefore.misses));
    double shit_rate =
        slookups == 0 ? 0.0 : double(safter.hits - sbefore.hits) / slookups;
    double qps = double(kSessions * kPerSession) / concurrent_secs;
    std::printf(
        "serving concurrent (%d sessions x %d queries): %8.1f ms   %8.1f "
        "q/s   hit rate %.3f\n",
        kSessions, kPerSession, concurrent_secs * 1e3, qps, shit_rate);
    json.Add("serving/concurrent_throughput",
             {{"sessions", double(kSessions)},
              {"queries", double(kSessions * kPerSession)},
              {"seconds", concurrent_secs},
              {"queries_per_sec", qps},
              {"plan_cache_hit_rate", shit_rate},
              {"admitted", double(server.stats().admitted)},
              {"max_queue_depth", double(server.stats().max_queue_depth)}});
  }

  // FAQ planner on the triangle query: the worst-case-optimal multiway join
  // against the best pairwise-hash plan any of the binary optimizers finds.
  // Hub-skewed relations are the canonical pairwise worst case: every
  // binary join order crosses two hub sides and materializes a quadratic
  // intermediate, while the leapfrog join's intersections stay near the
  // (small) true triangle count. Results are cross-checked between the two
  // plan shapes before timing counts.
  {
    Catalog catalog;
    workload::CycleParams params;
    params.num_vars = 3;
    params.domain_size = 5000;
    params.density = 0.002;
    params.hub_fraction = 0.35;
    auto schema = workload::GenerateCycle(params, catalog);
    Check(schema.status());
    const MpfQuerySpec query{{"x0"}, {}};
    CostModel cost_model;

    opt::FaqOptimizer faq;
    auto faq_plan =
        faq.Optimize(schema->view, query, catalog, cost_model);
    Check(faq_plan.status());
    if (PlanSignature(**faq_plan).find("MultiwayJoin") == std::string::npos) {
      std::fprintf(stderr,
                   "faq_planner: expected a multiway join on the triangle\n");
      std::abort();
    }

    // Best pairwise-hash competitor: every binary optimizer's plan, fastest
    // wall time wins.
    exec::Executor executor(catalog, schema->view.semiring);
    auto time_plan = [&](const PlanNode& plan) {
      double best = 0;
      TablePtr out;
      for (int rep = 0; rep < 3; ++rep) {
        auto start = bench::Clock::now();
        auto result = executor.Execute(plan, "out");
        double secs = bench::MsSince(start) / 1e3;
        Check(result.status());
        if (rep == 0 || secs < best) best = secs;
        out = *result;
      }
      return std::make_pair(best, out);
    };

    double pairwise_secs = 0;
    TablePtr pairwise_out;
    std::string pairwise_winner;
    for (const std::string spec : {"cs+", "ve(width)", "ve(deg)"}) {
      auto optimizer = MakeOptimizer(spec);
      Check(optimizer.status());
      auto plan =
          (*optimizer)->Optimize(schema->view, query, catalog, cost_model);
      Check(plan.status());
      auto [secs, out] = time_plan(**plan);
      if (pairwise_out == nullptr || secs < pairwise_secs) {
        pairwise_secs = secs;
        pairwise_out = out;
        pairwise_winner = spec;
      }
    }

    auto [faq_secs, faq_out] = time_plan(**faq_plan);
    // Different plan shapes fold FP in different orders; equality up to a
    // tiny tolerance is the cross-shape contract (tol-0.0 is per-shape).
    if (!fr::TablesEqual(*faq_out, *pairwise_out, /*tolerance=*/1e-6)) {
      std::fprintf(stderr,
                   "faq_planner: multiway result differs from pairwise\n");
      std::abort();
    }
    auto e0 = catalog.GetTable("e0");
    Check(e0.status());
    std::printf(
        "faq_planner triangle (3 x %lld rows): leapfrog %8.1f ms   best "
        "pairwise-hash (%s) %8.1f ms   %5.2fx\n",
        static_cast<long long>((*e0)->NumRows()), faq_secs * 1e3,
        pairwise_winner.c_str(), pairwise_secs * 1e3,
        pairwise_secs / faq_secs);
    json.Add("faq_planner/triangle",
             {{"faq_seconds", faq_secs},
              {"pairwise_seconds", pairwise_secs},
              {"speedup_vs_pairwise", pairwise_secs / faq_secs},
              {"output_rows", double(faq_out->NumRows())}});
  }

  // Approximate inference: the dissociation bound pair on a cyclic view
  // (bounds-only: two acyclic exact queries replace one cyclic one), then
  // the Gibbs anytime refinement. queries_per_sec / samples_per_sec are the
  // regression-gated throughputs; the d32 gap ratio is informational only —
  // the relative sum-product gap saturates at 1.0 when a group's lower
  // bound collapses toward zero, so quality is gated on the dense d4
  // workload below instead.
  {
    Database db;
    workload::CycleParams params;
    params.num_vars = 6;
    params.domain_size = 32;
    params.density = 0.5;
    params.seed = 4242;
    auto schema = workload::GenerateCycle(params, db.catalog());
    Check(schema.status());
    Check(db.CreateMpfView(schema->view));
    const MpfQuerySpec query{{schema->vars[0]}, {}};

    ApproxOptions bounds_only;
    bounds_only.eps = 0;
    bounds_only.sampling = false;
    double bounds_secs = 0;
    double gap = 0;
    const int reps = 5;
    for (int rep = 0; rep < reps; ++rep) {
      auto start = bench::Clock::now();
      auto result = db.QueryApprox(schema->view.name, query, bounds_only);
      double secs = bench::MsSince(start) / 1e3;
      Check(result.status());
      gap = result->max_gap;
      if (rep == 0 || secs < bounds_secs) bounds_secs = secs;
    }
    std::printf(
        "approx bounds cycle6/d32: dissociation pair %8.1f ms   "
        "max gap ratio %.4f\n",
        bounds_secs * 1e3, gap);
    json.Add("approx/bounds_cycle",
             {{"queries_per_sec", 1.0 / bounds_secs},
              {"bound_gap_ratio", gap},
              {"seconds", bounds_secs}});

    ApproxOptions sampled;
    sampled.eps = 0;  // unreachable: run the full round budget
    sampled.seed = 7;
    sampled.max_rounds = 8;
    sampled.sweeps_per_round = 256;
    sampled.burn_in_sweeps = 64;
    double gibbs_secs = 0;
    uint64_t samples = 0;
    for (int rep = 0; rep < reps; ++rep) {
      auto start = bench::Clock::now();
      auto result = db.QueryApprox(schema->view.name, query, sampled);
      double secs = bench::MsSince(start) / 1e3;
      Check(result.status());
      samples = result->samples;
      if (rep == 0 || secs < gibbs_secs) gibbs_secs = secs;
    }
    std::printf(
        "approx gibbs cycle6/d32: %llu samples in %8.1f ms   %10.0f "
        "samples/sec\n",
        static_cast<unsigned long long>(samples), gibbs_secs * 1e3,
        double(samples) / gibbs_secs);
    json.Add("approx/gibbs_cycle",
             {{"samples", double(samples)},
              {"samples_per_sec", double(samples) / gibbs_secs},
              {"seconds", gibbs_secs}});
  }

  // Bound-tightness quality gate: a dense small-domain cycle where the
  // dissociation gap is far from the saturation point, so a worse split-var
  // choice or a regressed sampler moves the ratio measurably. Both ratios
  // are deterministic for the fixed workload and seed; check_bench.py holds
  // absolute ceilings on them.
  {
    Database db;
    workload::CycleParams params;
    params.num_vars = 6;
    params.domain_size = 4;
    params.density = 1.0;
    params.seed = 4242;
    auto schema = workload::GenerateCycle(params, db.catalog());
    Check(schema.status());
    Check(db.CreateMpfView(schema->view));
    const MpfQuerySpec query{{schema->vars[0]}, {}};

    ApproxOptions bounds_only;
    bounds_only.eps = 0;
    bounds_only.sampling = false;
    auto raw = db.QueryApprox(schema->view.name, query, bounds_only);
    Check(raw.status());

    ApproxOptions sampled;
    sampled.eps = 0;  // unreachable: run the full round budget
    sampled.seed = 7;
    sampled.max_rounds = 8;
    sampled.sweeps_per_round = 256;
    sampled.burn_in_sweeps = 64;
    auto tightened = db.QueryApprox(schema->view.name, query, sampled);
    Check(tightened.status());

    std::printf(
        "approx quality cycle6/d4 dense: raw gap ratio %.4f   gibbs-tightened "
        "%.4f (%llu samples)\n",
        raw->max_gap, tightened->max_gap,
        static_cast<unsigned long long>(tightened->samples));
    json.Add("approx/bounds_quality",
             {{"bound_gap_ratio", raw->max_gap},
              {"tightened_gap_ratio", tightened->max_gap},
              {"samples", double(tightened->samples)}});
  }

  if (!json_path.empty() && !json.WriteTo(json_path)) return 1;
  return 0;
}

// --- google-benchmark microbenches -------------------------------------------

void BM_HashProductJoin(benchmark::State& state) {
  auto [a, b] = MakeJoinInputs(state.range(0));
  Semiring semiring = Semiring::SumProduct();
  for (auto _ : state) {
    HashProductJoin join(std::make_unique<SeqScan>(a),
                         std::make_unique<SeqScan>(b), semiring);
    auto result = Run(join, "out");
    if (!result.ok()) state.SkipWithError("join failed");
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}

void BM_HashMarginalize(benchmark::State& state) {
  TablePtr t = MakeAggInput(state.range(0));
  Semiring semiring = Semiring::SumProduct();
  for (auto _ : state) {
    HashMarginalize agg(std::make_unique<SeqScan>(t),
                        std::vector<std::string>{"g"}, semiring);
    auto result = Run(agg, "out");
    if (!result.ok()) state.SkipWithError("agg failed");
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

BENCHMARK(BM_HashProductJoin)->Arg(1 << 10)->Arg(1 << 13)->Arg(1 << 16);
BENCHMARK(BM_HashMarginalize)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

}  // namespace

int main(int argc, char** argv) {
  bool micro = false;
  std::vector<size_t> thread_counts = {1, 2, 4, 8};
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark", 0) == 0) micro = true;
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      size_t n = static_cast<size_t>(std::strtoull(argv[i + 1], nullptr, 10));
      if (n == 0) {
        std::fprintf(stderr, "--threads wants a positive integer\n");
        return 1;
      }
      thread_counts = {n};
    }
  }
  if (micro) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
  }
  return RunModeAblation(bench::JsonPathFromArgs(argc, argv), thread_counts);
}
