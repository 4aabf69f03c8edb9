// Ablation — VE-cache workload optimization (Section 6).
//
// Measures the Section 6 objective C(S) + E[cost(Q)]: cache build cost and
// per-query answer time from the cache, against per-query optimization with
// the best single-query optimizer, over a probability-weighted workload of
// single-variable queries (including restricted-domain queries exercising
// the Theorem 5 protocol).
//
//   ./build/bench/ablate_vecache [scale] [--json <path>]   (default 0.05)
//
// --json writes, per workload query, the median in-process answer time
// (vecache_answer/<query>), and the median encode and decode time of a
// 5,000-row, one-variable result frame (wire/result_codec_5000). The
// default scale is e2ebench cache_rw's, whose seven read specs these are.

#include <algorithm>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "fr/algebra.h"
#include "server/net/wire.h"
#include "workload/vecache.h"

using namespace mpfdb;
using bench::Clock;
using bench::MsSince;

namespace {

// Median wall time of `fn` in ms, over at least `min_reps` runs and about
// 0.2 s.
template <typename Fn>
double MedianMs(Fn&& fn, int min_reps) {
  std::vector<double> samples;
  const auto start = Clock::now();
  while (static_cast<int>(samples.size()) < min_reps || MsSince(start) < 200) {
    const auto t0 = Clock::now();
    fn();
    samples.push_back(MsSince(t0));
  }
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  return samples[samples.size() / 2];
}

// Encode and decode time of one result frame carrying a 5,000-row answer
// over one variable (the shape of cache_rw's `pid` read).
void ResultCodecSection(double hardware_threads,
                        bench::BenchJsonWriter* json) {
  constexpr size_t kRows = 5000;
  auto table = std::make_shared<Table>("answer", Schema({"pid"}, "f"));
  for (size_t r = 0; r < kRows; ++r) {
    table->AppendRow({static_cast<VarValue>(r)}, 0.5 + static_cast<double>(r));
  }
  server::net::ResultFrame frame;
  frame.request_id = 1;
  frame.table = table;
  std::vector<uint8_t> bytes;
  const double encode_ms = MedianMs(
      [&] {
        bytes.clear();
        bytes.shrink_to_fit();
        server::net::EncodeResult(frame, &bytes);
      },
      200);
  const double decode_ms = MedianMs(
      [&] {
        server::net::FrameReader reader;
        reader.Append(bytes.data(), bytes.size());
        server::net::Frame out;
        auto got = reader.Next(&out);
        if (!got.ok() || !*got || out.result.table->NumRows() != kRows) {
          std::abort();
        }
      },
      200);
  std::printf("\nresult codec, %zu rows x 1 var: encode %.1f us, decode %.1f "
              "us\n",
              kRows, encode_ms * 1e3, decode_ms * 1e3);
  json->Add("wire/result_codec_5000",
            {{"encode_us", encode_ms * 1e3},
             {"decode_us", decode_ms * 1e3},
             {"hardware_threads", hardware_threads}});
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::JsonPathFromArgs(argc, argv);
  double scale = 0.05;
  if (argc > 1 && argv[1][0] != '-') scale = std::atof(argv[1]);
  const double hardware_threads = std::thread::hardware_concurrency();
  bench::BenchJsonWriter json;

  Database db;
  workload::SupplyChainParams params;
  params.scale = scale;
  auto schema = workload::GenerateSupplyChain(params, db.catalog());
  if (!schema.ok() || !db.CreateMpfView(schema->view).ok()) return 1;

  std::printf("# VE-cache ablation (scale %.3f)\n\n", scale);

  auto build_start = Clock::now();
  auto cache = workload::VeCache::Build(schema->view, db.catalog());
  if (!cache.ok()) {
    std::fprintf(stderr, "%s\n", cache.status().ToString().c_str());
    return 1;
  }
  double build_ms = MsSince(build_start);
  std::printf("cache: %zu tables, %lld rows, built in %.2f ms\n",
              cache->caches().size(),
              static_cast<long long>(cache->TotalCacheRows()), build_ms);

  const std::vector<workload::WorkloadQuery> queries = {
      {{{"pid"}, {}}, 0.25}, {{{"sid"}, {}}, 0.15}, {{{"wid"}, {}}, 0.15},
      {{{"cid"}, {}}, 0.15}, {{{"tid"}, {}}, 0.10},
      {{{"cid"}, {{"tid", 0}}}, 0.10}, {{{"wid"}, {{"cid", 1}}}, 0.10},
  };

  std::printf("\n%-52s %12s %12s %8s\n", "query", "cache_ms", "scratch_ms",
              "agree");
  double expected_cache = 0, expected_scratch = 0;
  for (const auto& wq : queries) {
    StatusOr<TablePtr> from_cache = Status::Internal("not run");
    const double cache_ms =
        MedianMs([&] { from_cache = cache->Answer(wq.spec); }, 5);
    auto t1 = Clock::now();
    auto from_scratch = db.Query("invest", wq.spec, "ve(deg) ext.");
    double scratch_ms = MsSince(t1);
    if (!from_cache.ok() || !from_scratch.ok()) return 1;
    bool agree = fr::TablesEqual(**from_cache, *from_scratch->table, 1e-6);
    std::printf("%-52s %12.3f %12.3f %8s\n",
                wq.spec.ToString(schema->view).c_str(), cache_ms, scratch_ms,
                agree ? "yes" : "NO");
    expected_cache += wq.probability * cache_ms;
    expected_scratch += wq.probability * scratch_ms;
    std::string name = "vecache_answer/" + wq.spec.group_vars[0];
    for (const auto& sel : wq.spec.selections) {
      name += "|" + sel.var + "=" + std::to_string(sel.value);
    }
    const double rows = static_cast<double>((*from_cache)->NumRows());
    json.Add(name, {{"answer_ms", cache_ms},
                    {"answer_rows", rows},
                    {"hardware_threads", hardware_threads}});
  }
  std::printf("\nexpected per-query cost: cache %.3f ms vs scratch %.3f ms\n",
              expected_cache, expected_scratch);
  std::printf("objective C(S) + k*E[cost]: cache wins for k > %.1f queries\n",
              expected_scratch > expected_cache
                  ? build_ms / (expected_scratch - expected_cache)
                  : -1.0);

  // Heuristic ablation: degree vs width elimination order for the cache.
  workload::VeCacheOptions width_options;
  width_options.use_width_heuristic = true;
  auto t0 = Clock::now();
  auto width_cache =
      workload::VeCache::Build(schema->view, db.catalog(), width_options);
  double width_build_ms = MsSince(t0);
  if (width_cache.ok()) {
    std::printf("\nheuristic ablation: degree cache %lld rows / %.2f ms vs "
                "width cache %lld rows / %.2f ms\n",
                static_cast<long long>(cache->TotalCacheRows()), build_ms,
                static_cast<long long>(width_cache->TotalCacheRows()),
                width_build_ms);
  }

  ResultCodecSection(hardware_threads, &json);
  if (!json_path.empty() && !json.WriteTo(json_path)) return 1;
  return 0;
}
