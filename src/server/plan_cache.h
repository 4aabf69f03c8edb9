#ifndef MPFDB_SERVER_PLAN_CACHE_H_
#define MPFDB_SERVER_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/hash_table.h"
#include "plan/plan.h"
#include "plan/plan_template.h"

namespace mpfdb::server {

// One memoized plan: a compact template (optimizer name and variable order
// included, so EXPLAIN renders from a hit) plus the view vocabulary it
// indexes into. Every execution, hit or miss, binds its query's values with
// Bind; the physical pass is a choice-free walk (PlanPhysicalTree), so the
// cache holds no physical tree either. Immutable once published —
// concurrent hits share it read-only and each builds its own plan tree.
struct CachedPlan {
  PlanTemplate plan;
  std::shared_ptr<const PlanVocabulary> vocabulary;

  // Inflates the template with `query`'s values.
  StatusOr<BoundPlan> Bind(const MpfQuerySpec& query) const;
};

// A query's selections sorted by (var, value): the order every cache key
// prints them in and that a template's parameter slots index.
std::vector<QuerySelection> CanonicalSelections(const MpfQuerySpec& spec);

// Canonical cache-key fragment for a query spec: group variables in query
// order (order is semantically irrelevant to the result rows, but keeping it
// preserves the plan's output schema exactly), selections sorted by
// (var, value) so syntactic permutations of the WHERE clause share one
// entry, and the HAVING threshold in shortest round-trip digits, so two
// thresholds share a key only when they are the same double.
std::string CanonicalQueryKey(const MpfQuerySpec& spec);

// The plan cache's key fragment: CanonicalQueryKey without the selection
// values, which no plan depends on, so x=0 and x=2 share one template. A
// query that selects one variable twice keeps the values (its two slots
// would otherwise bind in an order the key does not pin down).
std::string TemplateQueryKey(const MpfQuerySpec& spec);

// Shared plan-template cache for concurrent serving. Keyed on
// (view, template query key, optimizer spec) with the structural epoch
// stored per entry: a lookup at a newer epoch treats the entry as invalid
// (counted, evicted), and OnEpochBump sweeps stale entries eagerly so
// counters reflect invalidation at update time. LRU bounded by `capacity`
// entries; the default holds every template of a 64-variable view's
// single-evidence marginals. It also keeps one vocabulary per view, built on
// the view's first plan at each structural epoch. All methods are
// thread-safe.
class PlanCache {
 public:
  explicit PlanCache(size_t capacity = 4096) : capacity_(capacity) {}

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

  // The vocabulary of `view` at `epoch`, built from `catalog` on first use.
  // Concurrent first uses may each build one; the first published wins.
  StatusOr<std::shared_ptr<const PlanVocabulary>> Vocabulary(
      const MpfViewDef& view, const Catalog& catalog,
      const CostModel& cost_model, uint64_t epoch);

  // Drops every template and vocabulary; counters keep running.
  void Clear();

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t invalidations = 0;  // entries dropped by epoch bumps/staleness
    uint64_t evictions = 0;      // entries dropped by the LRU capacity bound
    size_t entries = 0;
    size_t bytes = 0;            // resident template bytes (PlanTemplate::Bytes)
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
    size_t bytes = 0;  // plan->plan.Bytes(), counted in stats_.bytes
  };
  struct VocabularyEntry {
    uint64_t epoch = 0;
    std::shared_ptr<const PlanVocabulary> vocabulary;
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
  std::map<std::string, VocabularyEntry> vocabularies_;  // guarded by mu_
};

}  // namespace mpfdb::server

#endif  // MPFDB_SERVER_PLAN_CACHE_H_
