#ifndef MPFDB_SERVER_PLAN_CACHE_H_
#define MPFDB_SERVER_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/hash_table.h"
#include "plan/plan.h"

namespace mpfdb::server {

// One memoized plan: the optimizer's logical tree, name and variable order
// (so EXPLAIN renders from a hit). The physical pass is a choice-free walk
// (PlanPhysicalTree), so each execution derives its physical tree instead of
// the cache holding a second copy of every node. Immutable once published —
// concurrent hits share the tree read-only and each execution builds its
// own operator state.
struct CachedPlan {
  PlanPtr logical;
  std::string optimizer_name;
  std::vector<std::string> variable_order;
};

// Canonical cache-key fragment for a query spec: group variables in query
// order (order is semantically irrelevant to the result rows, but keeping it
// preserves the plan's output schema exactly), selections sorted by
// (var, value) so syntactic permutations of the WHERE clause share one
// entry, and the HAVING threshold in shortest round-trip digits, so two
// thresholds share a key only when they are the same double.
std::string CanonicalQueryKey(const MpfQuerySpec& spec);

// Shared physical-plan cache for concurrent serving. Keyed on
// (view, canonical query, optimizer spec) with the
// database stats epoch stored per entry: a lookup at a newer epoch treats
// the entry as invalid (counted, evicted), and OnEpochBump sweeps stale
// entries eagerly so counters reflect invalidation at update time. LRU
// bounded by `capacity`. All methods are thread-safe.
class PlanCache {
 public:
  explicit PlanCache(size_t capacity = 256) : capacity_(capacity) {}

  // The entry under `key` if present and built at `epoch`, else nullptr.
  // Counts a hit or a miss; a present-but-stale entry additionally counts an
  // invalidation and is evicted.
  std::shared_ptr<const CachedPlan> Lookup(const std::string& key,
                                           uint64_t epoch);

  // Publishes a plan built at `epoch`. Replaces any existing entry under the
  // key; evicts the least-recently-used entry beyond capacity.
  void Insert(const std::string& key, uint64_t epoch,
              std::shared_ptr<const CachedPlan> plan);

  // Eagerly drops every entry older than `epoch` (a catalog/table/view
  // mutation committed). Each dropped entry counts as an invalidation.
  void OnEpochBump(uint64_t epoch);

  void Clear();

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t invalidations = 0;  // entries dropped by epoch bumps/staleness
    uint64_t evictions = 0;      // entries dropped by the LRU capacity bound
    size_t entries = 0;
    double hit_rate() const {
      uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
  };
  Stats stats() const;

 private:
  struct Entry {
    uint64_t epoch = 0;
    std::shared_ptr<const CachedPlan> plan;
    std::list<std::string>::iterator lru_pos;
  };

  // Callers hold mu_. `entry` must be the live slot for `key`; the slot
  // pointer is dead after this returns (the table may compact its arena).
  void EraseLocked(const std::string& key, Entry* entry);

  const size_t capacity_;
  mutable std::mutex mu_;
  // Swiss bytes table keyed on the composite cache-key string: the arena
  // interns keys contiguously and Erase-triggered compaction bounds churn
  // from epoch sweeps, so lookups stay cache-friendly at any fill.
  exec::SwissBytesTable<Entry> entries_;  // guarded by mu_
  std::list<std::string> lru_;            // guarded by mu_; front = most recent
  Stats stats_;                           // guarded by mu_ (entries_ filled on read)
};

}  // namespace mpfdb::server

#endif  // MPFDB_SERVER_PLAN_CACHE_H_
