// Ablation — paged storage and the buffer pool.
//
// The paper's operands are disk-resident. This bench measures the real paged
// layer: sequential scans touch every data page once regardless of pool
// size, while random row access hit rates track pool size / table pages —
// the locality behavior a cost model for disk-resident functional relations
// presumes.
//
//   ./build/bench/ablate_buffer_pool [rows]   (default 200000)

#include <cstdlib>
#include <filesystem>

#include "bench_util.h"
#include "storage/disk_table.h"
#include "util/rng.h"

using namespace mpfdb;
using bench::Clock;
using bench::MsSince;

int main(int argc, char** argv) {
  int64_t rows = argc > 1 ? std::atoll(argv[1]) : 200000;
  std::string path =
      (std::filesystem::temp_directory_path() / "mpfdb_bench_table.mpft")
          .string();

  // Build a 3-variable table of `rows` rows on disk.
  Rng rng(7);
  Table table("bench", Schema({"a", "b", "c"}, "f"));
  table.Reserve(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) {
    table.AppendRow({static_cast<VarValue>(i % 1000),
                     static_cast<VarValue>(i / 1000),
                     static_cast<VarValue>(i % 7)},
                    rng.UniformDouble(0, 1));
  }
  if (!DiskTable::Write(table, path).ok()) return 1;

  std::printf("# Buffer pool behavior over a %lld-row disk table\n",
              static_cast<long long>(rows));
  {
    auto disk = DiskTable::Open(path, 8);
    if (!disk.ok()) return 1;
    std::printf("table: %u pages of %zu bytes\n\n",
                (*disk)->file().page_count(), kPageSize);
  }

  std::printf("%12s %12s | %10s %10s %12s %10s\n", "pool_pages", "workload",
              "hits", "misses", "hit_rate", "ms");
  for (size_t pool : {4, 16, 64, 256, 1024}) {
    // Sequential scan.
    {
      auto disk = DiskTable::Open(path, pool);
      if (!disk.ok()) return 1;
      auto t0 = Clock::now();
      auto loaded = (*disk)->ReadAll("scan");
      double ms = MsSince(t0);
      if (!loaded.ok()) return 1;
      const auto& stats = (*disk)->buffer_pool().stats();
      std::printf("%12zu %12s | %10llu %10llu %11.1f%% %10.2f\n", pool, "scan",
                  static_cast<unsigned long long>(stats.hits),
                  static_cast<unsigned long long>(stats.misses),
                  100.0 * static_cast<double>(stats.hits) /
                      static_cast<double>(stats.hits + stats.misses),
                  ms);
    }
    // Random point reads (uniform).
    {
      auto disk = DiskTable::Open(path, pool);
      if (!disk.ok()) return 1;
      Rng access(99);
      std::vector<VarValue> vars;
      double measure;
      auto t0 = Clock::now();
      for (int i = 0; i < 20000; ++i) {
        uint64_t row = static_cast<uint64_t>(access.UniformInt(0, rows - 1));
        if (!(*disk)->ReadRow(row, &vars, &measure).ok()) return 1;
      }
      double ms = MsSince(t0);
      const auto& stats = (*disk)->buffer_pool().stats();
      std::printf("%12zu %12s | %10llu %10llu %11.1f%% %10.2f\n", pool,
                  "random",
                  static_cast<unsigned long long>(stats.hits),
                  static_cast<unsigned long long>(stats.misses),
                  100.0 * static_cast<double>(stats.hits) /
                      static_cast<double>(stats.hits + stats.misses),
                  ms);
    }
  }
  std::filesystem::remove(path);
  std::printf("\n# Expected shape: scans miss once per page at any pool size; "
              "random hit rate ~ min(1, pool/pages).\n");
  return 0;
}
