#ifndef MPFDB_BENCH_BENCH_UTIL_H_
#define MPFDB_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "core/database.h"
#include "workload/generators.h"

namespace mpfdb::bench {

// Machine-readable bench output. Benches accept a shared `--json <path>`
// flag (see JsonPathFromArgs); when set, they append their measurements to a
// BenchJsonWriter and serialize it on exit, so driver scripts can diff runs
// without scraping stdout.
class BenchJsonWriter {
 public:
  void Add(const std::string& name,
           std::initializer_list<std::pair<const char*, double>> metrics) {
    Entry entry;
    entry.name = name;
    for (const auto& [key, value] : metrics) {
      entry.metrics.emplace_back(key, value);
    }
    entries_.push_back(std::move(entry));
  }

  bool empty() const { return entries_.empty(); }

  // Writes the collected entries as a JSON array of flat objects. Returns
  // false (after complaining on stderr) if the file cannot be written.
  bool WriteTo(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write bench json to '%s'\n", path.c_str());
      return false;
    }
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::fprintf(f, "  {\"name\": \"%s\"", entries_[i].name.c_str());
      for (const auto& [key, value] : entries_[i].metrics) {
        std::fprintf(f, ", \"%s\": %.10g", key.c_str(), value);
      }
      std::fprintf(f, "}%s\n", i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    return true;
  }

 private:
  struct Entry {
    std::string name;
    std::vector<std::pair<std::string, double>> metrics;
  };
  std::vector<Entry> entries_;
};

// Extracts the path from a `--json <path>` or `--json=<path>` argument, or
// returns "" when the flag is absent.
inline std::string JsonPathFromArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) return argv[i + 1];
    if (arg.rfind("--json=", 0) == 0) return arg.substr(7);
  }
  return "";
}

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Runs `query` against `view` with the given optimizer and fills the
// measured numbers; crashes loudly on error so bench output is trustworthy.
struct RunStats {
  double plan_cost = 0;        // optimizer's estimated cost (model units)
  double planning_ms = 0;      // wall time spent in the optimizer
  double execution_ms = 0;     // wall time spent executing the plan
  bool linear = false;         // plan shape
  int groupbys = 0;
};

inline RunStats RunQuery(Database& db, const std::string& view,
                         const MpfQuerySpec& query,
                         const std::string& optimizer,
                         bool execute = true) {
  RunStats stats;
  if (execute) {
    auto result = db.Query(view, query, optimizer);
    if (!result.ok()) {
      std::fprintf(stderr, "bench query failed (%s): %s\n", optimizer.c_str(),
                   result.status().ToString().c_str());
      std::abort();
    }
    stats.plan_cost = result->plan->est_cost;
    stats.planning_ms = result->planning_seconds * 1e3;
    stats.execution_ms = result->execution_seconds * 1e3;
    stats.linear = result->plan->IsLinear();
    stats.groupbys = result->plan->GroupByCount();
  } else {
    // Planning only, through the const catalog: the mutable accessor would
    // bump the structural epoch and sweep the plan cache inside the timed
    // region.
    const uint64_t epoch = db.structural_epoch();
    auto start = Clock::now();
    auto optimizer_obj = MakeOptimizer(optimizer);
    if (!optimizer_obj.ok()) std::abort();
    auto view_def = db.GetView(view);
    if (!view_def.ok()) std::abort();
    auto plan = (*optimizer_obj)
                    ->Optimize(**view_def, query, std::as_const(db).catalog(),
                               db.cost_model());
    if (!plan.ok()) {
      std::fprintf(stderr, "bench plan failed (%s): %s\n", optimizer.c_str(),
                   plan.status().ToString().c_str());
      std::abort();
    }
    stats.planning_ms = MsSince(start);
    if (db.structural_epoch() != epoch) {
      std::fprintf(stderr, "planning-only run changed the structural epoch\n");
      std::abort();
    }
    stats.plan_cost = (*plan)->est_cost;
    stats.linear = (*plan)->IsLinear();
    stats.groupbys = (*plan)->GroupByCount();
  }
  return stats;
}

}  // namespace mpfdb::bench

#endif  // MPFDB_BENCH_BENCH_UTIL_H_
