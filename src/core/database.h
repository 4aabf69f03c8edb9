#ifndef MPFDB_CORE_DATABASE_H_
#define MPFDB_CORE_DATABASE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "exec/executor.h"
#include "opt/optimizer.h"
#include "plan/plan.h"
#include "server/plan_cache.h"
#include "storage/catalog.h"
#include "workload/vecache.h"

namespace mpfdb {

// Result of running one MPF query end to end.
struct QueryResult {
  TablePtr table;
  PlanPtr plan;
  double planning_seconds = 0;
  double execution_seconds = 0;
  // The catalog epoch this query observed: the query saw exactly the state
  // committed by the first `snapshot_epoch` commits and nothing later.
  uint64_t snapshot_epoch = 0;
  // Whether the physical plan came from the shared plan cache.
  bool plan_cache_hit = false;
};

// Knobs for Database::QueryApprox.
struct ApproxOptions {
  // Target relative bound gap / Gibbs round-to-round movement. Sampling
  // stops as soon as either the dissociation gap or the estimate's
  // per-round delta drops to eps.
  double eps = 0.05;
  // Gibbs chain seed; 0 defers to ExecOptions::sampling_seed so a process
  // is bit-reproducible from configuration alone.
  uint64_t seed = 0;
  // Hard cap on Gibbs rounds (each sweeps_per_round full-state sweeps).
  size_t max_rounds = 64;
  size_t sweeps_per_round = 64;
  size_t burn_in_sweeps = 64;
  // When false, stop after the dissociation/conditioning bounds — no
  // sampling even if the gap is above eps.
  bool sampling = true;
};

// Result of one approximate query: guaranteed lower/upper bounds from the
// dissociation pass plus (optionally) a Gibbs point estimate, all over the
// query's group variables.
struct ApproxResult {
  // Semiring-guaranteed bounds: for every group, lower <= exact <= upper
  // (groups missing from a bound table bound at Add's identity). For
  // acyclic views both are the exact answer.
  TablePtr lower;
  TablePtr upper;
  // Point estimate. Selection semirings (max/min/or): the sampler's
  // incumbent — the best full-assignment score found, itself a valid bound.
  // Sum semirings: the normalized visit-frequency estimate of the marginal
  // over the group variables (log-frequency for log_sum_product); null when
  // sampling never completed a round (the bounds still stand).
  TablePtr estimate;
  // False iff the view was acyclic for this query — the result is exact.
  bool approximate = false;
  // The governing deadline expired mid-sampling; lower/upper/estimate are
  // the best published so far (never torn) and the call still returns OK.
  bool deadline_hit = false;
  // The eps target was met (by bound gap or sampler convergence).
  bool converged = false;
  // Largest per-group gap between the bounds: relative for the product
  // semirings, absolute for the additive ones, 0/1 for bool.
  double max_gap = 0;
  uint64_t samples = 0;     // post-burn-in Gibbs samples recorded
  size_t gibbs_rounds = 0;  // completed (published) sampler rounds
  uint64_t snapshot_epoch = 0;
  double seconds = 0;  // end-to-end wall time
  // Variables the dissociation pass split (empty = acyclic = exact).
  std::vector<std::string> split_vars;
};

// Hypothetical ("what-if") updates for the Alternate-measure and
// Alternate-domain query forms of Section 3.1. Applied to copies of the base
// relations for the duration of one query; stored tables are untouched.
struct WhatIf {
  // "What if part p1 was a different price": rows of `table` matching every
  // (var = value) pair get measure `new_measure`.
  struct MeasureUpdate {
    std::string table;
    std::vector<QuerySelection> match;
    double new_measure = 0;
  };
  // "What if c1's deal with t1 were transferred to t2": matching rows get
  // `var` rewritten to `new_value`. Rejected if the rewrite would violate
  // the functional dependency (two rows collapsing onto the same variable
  // values).
  struct DomainUpdate {
    std::string table;
    std::vector<QuerySelection> match;
    std::string var;
    VarValue new_value = 0;
  };

  std::vector<MeasureUpdate> measure_updates;
  std::vector<DomainUpdate> domain_updates;
};

// One base-relation measure update, addressed by the row's full variable
// assignment (all values, in the table's schema order).
struct MeasureUpdateSpec {
  std::string table;
  std::vector<VarValue> row_vars;
  double new_measure = 0;
};

// Tuning knobs for the MVCC commit pipeline.
struct DatabaseOptions {
  // Upper bound on the number of individual row updates one group-commit
  // leader folds into a single version bump.
  size_t commit_batch_max = 64;
  // Microseconds a fresh leader lingers for more writers to enqueue before
  // committing a non-full batch. 0 commits immediately (lowest latency);
  // small values trade update latency for coalescing under bursts.
  uint64_t commit_linger_us = 0;
  // Refresh VE-caches through the exact-replay delta path
  // (VeCache::WithMeasureDelta). When false every measure commit rebuilds
  // affected caches from scratch — the pre-MVCC behavior, kept as an
  // ablation lever for benchmarks.
  bool incremental_cache_refresh = true;
};

// Counters for the MVCC commit/GC machinery. All monotonic except the
// gauges (versions_retained, pinned_snapshots, live_measure_chunks,
// structural_epoch).
struct MvccStats {
  uint64_t commit_batches = 0;     // version bumps from measure commits
  uint64_t updates_applied = 0;    // row updates committed (excl. no-ops)
  uint64_t updates_coalesced = 0;  // writers that rode another leader's bump
  uint64_t delta_refreshes = 0;    // caches refreshed via WithMeasureDelta
  uint64_t full_rebuilds = 0;      // caches rebuilt (fallback or ablation)
  uint64_t versions_retired = 0;   // table versions superseded by a commit
  uint64_t versions_collected = 0; // retired versions freed by GC
  uint64_t versions_retained = 0;  // retired versions still pinned (gauge)
  uint64_t pinned_snapshots = 0;   // live snapshot pins (gauge)
  uint64_t structural_epoch = 0;   // schema-shape epoch (gauge)
  uint64_t live_measure_chunks = 0;  // process-wide chunk gauge
};

// The top-level library facade: owns the catalog, the MPF view definitions,
// the cost model and executor configuration, and any built VE-caches.
// Example:
//   Database db;
//   db.catalog().RegisterVariable("x", 10);
//   db.CreateTable(my_table);
//   db.CreateMpfView({"v", {"t1", "t2"}, Semiring::SumProduct()});
//   auto result = db.Query("v", {{"x"}, {}}, "ve(deg) ext.");
//
// Concurrency model (MVCC over chunked table versions):
//
//  * Readers — Query, QueryWhatIf, QueryApprox, Explain, ExplainAnalyze,
//    QueryCached — pin an immutable Snapshot (epoch + catalog + view
//    definitions, all sharing the underlying table storage) and run entirely
//    against it, so an in-flight query never observes a torn catalog no
//    matter how updates interleave. Every reader but QueryCached resolves its
//    view in the snapshot, then plans and executes through one private
//    pipeline (Plan, Execute): one plan cache, each query on its calling
//    thread. Any number may run concurrently. A pinned snapshot keeps
//    every table version it references alive; versions a commit supersedes
//    are retired into per-table version chains and garbage-collected as the
//    snapshots pinning them are released.
//  * Measure writers — ApplyMeasureUpdate(s) — go through a group-commit
//    pipeline: concurrent callers enqueue, one leader folds up to
//    commit_batch_max row updates into a single new version per touched
//    table (Table::WithMeasureUpdates — new versions share every unchanged
//    measure chunk and the whole variable block with their predecessors),
//    refreshes affected VE-caches through the exact-replay delta path, and
//    publishes everything under one epoch bump. Commit cost scales with the
//    rows changed, not the table size.
//  * Structural writers — CreateTable, DropTable, CreateMpfView,
//    DropMpfView — commit under the exclusive lock and additionally bump
//    the *structural* epoch, which keys the plan cache: cached plans survive
//    measure commits (a plan depends only on schema shape and statistics'
//    order of magnitude) and are invalidated by structural changes.
//  * VE-caches are published as shared immutable version sets per view;
//    measure commits publish fresh versions (delta-refreshed, falling back
//    to a full rebuild when exact replay reports kFailedPrecondition, e.g.
//    an absorbing zero) so QueryCached is never served stale.
//  * The non-const catalog() accessor hands out direct mutable access for
//    single-threaded setup; every call conservatively bumps both epochs. Do
//    not mutate through a retained reference while queries are being served.
//  * The configuration setter (set_exec_options) is setup-time only, not
//    thread-safe against running queries.
class Database {
 public:
  explicit Database(DatabaseOptions options = {});

  const DatabaseOptions& options() const { return options_; }

  // Mutable access (setup): conservatively treated as a structural mutation
  // — both epochs are bumped and cached snapshots/plans are invalidated.
  Catalog& catalog();
  const Catalog& catalog() const { return catalog_; }

  // An immutable view of the database state as of one epoch. Tables are
  // shared with the live catalog (measure commits replace, never mutate, a
  // published table version). Holding the pointer pins every table version
  // it references against garbage collection.
  struct Snapshot {
    uint64_t epoch = 0;
    uint64_t structural_epoch = 0;
    Catalog catalog;
    std::map<std::string, MpfViewDef> views;
  };
  using SnapshotPtr = std::shared_ptr<const Snapshot>;
  // The current snapshot; cached, so repeated calls between commits share
  // one copy (and one GC pin).
  SnapshotPtr snapshot() const;

  // Number of committed mutations (structural + measure commits; one group
  // commit of many coalesced updates bumps this once).
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  // Number of committed *structural* mutations (CreateTable/DropTable/
  // CreateMpfView/DropMpfView/non-const catalog() access).
  uint64_t structural_epoch() const {
    return structural_epoch_.load(std::memory_order_acquire);
  }

  // Registers a base table (its variables must be registered first). The
  // table is converted to chunked measure storage, so the first measure
  // commit already shares every untouched chunk with the versions that
  // readers' snapshots pin.
  Status CreateTable(TablePtr table);
  // Drops a table; refuses while any view references it.
  Status DropTable(const std::string& name);

  // Changes the measure of the base-relation row of `table_name` identified
  // by `row_vars` (all variable values, in schema order) to `new_measure`.
  // Equivalent to ApplyMeasureUpdates with one spec.
  Status ApplyMeasureUpdate(const std::string& table_name,
                            const std::vector<VarValue>& row_vars,
                            double new_measure,
                            uint64_t* commit_epoch = nullptr);

  // Commits a batch of measure updates atomically under one version bump.
  // Concurrent callers are group-committed: one leader drains the queue and
  // commits everyone's updates together (later specs win when two target
  // the same row). The call returns when this batch's updates are durable
  // in the published state; per-call errors (unknown table, no matching
  // row) fail only that call, not the batch it rode in. A non-null
  // `commit_epoch` receives the exact epoch of the commit that applied this
  // batch (a snapshot at or past it sees every update; when every spec was
  // a no-op it is the epoch the batch was validated against).
  Status ApplyMeasureUpdates(const std::vector<MeasureUpdateSpec>& specs,
                             uint64_t* commit_epoch = nullptr);

  // Registers an MPF view over existing tables.
  Status CreateMpfView(MpfViewDef view);
  // Drops a view and any VE-cache built on it.
  Status DropMpfView(const std::string& name);
  StatusOr<const MpfViewDef*> GetView(const std::string& name) const;
  std::vector<std::string> ViewNames() const;

  // Optimizes and executes an MPF query against a view. `optimizer_spec`
  // accepts the MakeOptimizer names; the default is the strongest
  // single-query optimizer. A non-null `ctx` runs the execution governed:
  // memory budget (with spill-based degradation), cancellation, deadline.
  // Runs against the current snapshot; physical plans are memoized in the
  // shared plan cache keyed on (view, canonical query, optimizer, exec
  // fingerprint) at the snapshot's *structural* epoch — measure commits do
  // not invalidate plans.
  StatusOr<QueryResult> Query(const std::string& view_name,
                              const MpfQuerySpec& query,
                              const std::string& optimizer_spec =
                                  "cs+nonlinear",
                              QueryContext* ctx = nullptr);

  // Anytime approximate query. Splits the view's cyclic-core variables
  // (opt::ChooseSplitVars) and runs two rewritten exact queries through the
  // ordinary optimizer/executor stack: the dissociated relaxation (superset
  // of assignments) and the conditioned restriction (subset), which bound
  // the exact answer from opposite sides (opt::DissociatedBoundSide gives
  // the orientation per semiring). If the bound gap exceeds approx.eps and
  // approx.sampling is set, a Gibbs chain (exec::GibbsEstimator) tightens a
  // point estimate round by round until eps, max_rounds, or the deadline.
  //
  // Deadline semantics differ from Query: once the bounds are in hand, an
  // expiring `ctx` deadline *degrades* the answer instead of failing it —
  // the call returns OK with deadline_hit set and the best bounds/estimate
  // published so far. Only a failure before both bounds complete (or a
  // cancellation) surfaces as an error. Acyclic views return the exact
  // answer with approximate=false. kFailedPrecondition when sum_product
  // bounds would need non-negative measures and the view has negative ones.
  StatusOr<ApproxResult> QueryApprox(const std::string& view_name,
                                     const MpfQuerySpec& query,
                                     const ApproxOptions& approx = {},
                                     const std::string& optimizer_spec =
                                         "cs+nonlinear",
                                     QueryContext* ctx = nullptr);

  // Runs an MPF query against a hypothetically modified view: the what-if
  // updates are applied to copies of the affected base relations, the query
  // is optimized and executed against those copies, and the stored tables
  // remain untouched. Plans against the copies bypass the plan cache.
  StatusOr<QueryResult> QueryWhatIf(const std::string& view_name,
                                    const MpfQuerySpec& query,
                                    const WhatIf& what_if,
                                    const std::string& optimizer_spec =
                                        "cs+nonlinear");

  // Plans only and renders the logical and physical plans (EXPLAIN). Shares
  // Query's plan cache, so it shows the plan Query runs.
  StatusOr<std::string> Explain(const std::string& view_name,
                                const MpfQuerySpec& query,
                                const std::string& optimizer_spec =
                                    "cs+nonlinear");

  // Plans and executes exactly as Query does (plan cache) with per-operator
  // instrumentation, and renders the physical plan with estimated vs actual
  // row counts (EXPLAIN ANALYZE). The stats are private to this execution.
  StatusOr<std::string> ExplainAnalyze(const std::string& view_name,
                                       const MpfQuerySpec& query,
                                       const std::string& optimizer_spec =
                                           "cs+nonlinear");

  // EXPLAIN ANALYZE for the approximate path: runs QueryApprox and renders
  // the split set, per-bound result sizes, the bound gap, and the sampler's
  // rounds/samples/samples-per-second alongside the result tables.
  StatusOr<std::string> ExplainAnalyzeApprox(const std::string& view_name,
                                             const MpfQuerySpec& query,
                                             const ApproxOptions& approx = {},
                                             const std::string& optimizer_spec =
                                                 "cs+nonlinear");

  // Builds (or rebuilds) the VE-cache for a view (Section 6) so subsequent
  // QueryCached calls answer from materialized views. A non-null `ctx`
  // bounds the construction: the materialized cache tables charge against
  // its memory budget (cache construction does not spill — a breach fails
  // with kResourceExhausted) and elimination steps honor cancel/deadline.
  // The build runs against a snapshot without blocking readers or writers;
  // if the catalog changes underneath it, the build is retried against the
  // fresh state a few times before giving up with kInternal.
  Status BuildCache(const std::string& view_name, QueryContext* ctx = nullptr);
  bool HasCache(const std::string& view_name) const;
  // Answers from the view's VE-cache; a non-null `ctx` cancels or times out
  // the read between its relational steps.
  StatusOr<TablePtr> QueryCached(const std::string& view_name,
                                 const MpfQuerySpec& query,
                                 QueryContext* ctx = nullptr) const;

  // MVCC commit/GC counters. Cheap; safe to poll concurrently.
  MvccStats mvcc_stats() const;

  const CostModel& cost_model() const { return cost_model_; }
  void set_exec_options(exec::ExecOptions options);

  // The shared physical-plan cache (hit/miss/invalidation counters live on
  // it). Ablations that must re-plan every query Clear() it before each one.
  server::PlanCache& plan_cache() { return plan_cache_; }
  const server::PlanCache& plan_cache() const { return plan_cache_; }

 private:
  struct CacheEntry {
    std::shared_ptr<const workload::VeCache> cache;
    uint64_t epoch = 0;  // epoch the cache is consistent with
  };

  // Version-chain GC state. Owned via shared_ptr so snapshot deleters stay
  // valid even if they outlive the Database. Lock order: state_mu_ before
  // GcState::mu (snapshot release takes only GcState::mu).
  struct GcState {
    struct Retired {
      uint64_t birth = 0;  // epoch the version was published at
      uint64_t death = 0;  // epoch of the commit that superseded it
      TablePtr table;
    };

    std::mutex mu;
    std::multiset<uint64_t> pins;                      // pinned epochs
    std::map<std::string, std::vector<Retired>> chains;
    std::map<std::string, uint64_t> birth_epoch;  // live version's birth
    uint64_t versions_retired = 0;
    uint64_t versions_collected = 0;

    // Drops every retired version no pinned epoch can still see (a pin at
    // epoch p holds versions with birth <= p < death). Caller holds mu.
    void CollectLocked();
  };

  // One writer's enqueued batch in the group-commit pipeline.
  struct PendingCommit {
    std::vector<MeasureUpdateSpec> specs;
    Status status = Status::Ok();
    uint64_t commit_epoch = 0;  // epoch of the commit that applied the batch
    bool done = false;
  };

  // Structural commit: bumps both epochs, drops the cached snapshot, sweeps
  // the plan cache. Caller holds state_mu_ exclusively.
  void BumpStructuralLocked();
  // Measure commit: bumps the data epoch only (plans stay valid). Caller
  // holds state_mu_ exclusively.
  void BumpDataEpochLocked();

  // Stages and publishes one group-commit batch; fills every pending's
  // status and marks it done. Runs on the leader thread, outside commit_mu_.
  void CommitBatch(std::vector<std::shared_ptr<PendingCommit>>& batch);

  // The one query pipeline. Every reader resolves its view in a pinned
  // snapshot, then calls Plan and Execute.
  //
  // Plan optimizes `query` over `view` with the MakeOptimizer spec against
  // `catalog`. No query context takes part:
  // every budget and deadline runs the same plan. The shared plan
  // cache is consulted and filled exactly when `catalog` is the snapshot's
  // own: a scratch catalog (what-if clones, dissociated bounds) always plans
  // fresh. A cacheable plan, hit or miss, is inflated from its template with
  // the query's selection values. A non-null `cache_hit` reports whether
  // the template came from the cache.
  StatusOr<BoundPlan> Plan(const Snapshot& snap, const MpfViewDef& view,
                           const Catalog& catalog, const MpfQuerySpec& query,
                           const std::string& optimizer_spec,
                           bool* cache_hit = nullptr);
  // Maps `plan` to its physical tree and executes it against `catalog` on
  // the calling thread; a null `ctx` runs ungoverned. A non-null `stats`
  // attaches the per-operator stats spine (Executor::ExecutePhysical).
  StatusOr<TablePtr> Execute(
      const PlanNode& plan, const Catalog& catalog, const Semiring& semiring,
      const std::string& result_name, QueryContext* ctx,
      std::map<const PlanNode*, OperatorStats>* stats = nullptr);
  // Plan then Execute, timed into a QueryResult at the snapshot's epoch.
  StatusOr<QueryResult> PlanAndExecute(const Snapshot& snap,
                                       const MpfViewDef& view,
                                       const Catalog& catalog,
                                       const MpfQuerySpec& query,
                                       const std::string& optimizer_spec,
                                       const std::string& result_name,
                                       QueryContext* ctx);

  DatabaseOptions options_;

  Catalog catalog_;                          // guarded by state_mu_
  std::map<std::string, MpfViewDef> views_;  // guarded by state_mu_
  std::map<std::string, CacheEntry> caches_;  // guarded by state_mu_
  mutable std::shared_mutex state_mu_;
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> structural_epoch_{0};
  mutable SnapshotPtr snapshot_cache_;  // guarded by state_mu_

  std::shared_ptr<GcState> gc_ = std::make_shared<GcState>();

  // Group-commit pipeline: writers enqueue under commit_mu_; the first
  // writer to find no active leader becomes one, drains up to
  // commit_batch_max row updates, and commits them outside the lock.
  std::mutex commit_mu_;
  std::condition_variable commit_cv_;
  std::deque<std::shared_ptr<PendingCommit>> commit_queue_;
  bool commit_leader_active_ = false;  // guarded by commit_mu_

  std::atomic<uint64_t> commit_batches_{0};
  std::atomic<uint64_t> updates_applied_{0};
  std::atomic<uint64_t> updates_coalesced_{0};
  std::atomic<uint64_t> delta_refreshes_{0};
  std::atomic<uint64_t> full_rebuilds_{0};

  server::PlanCache plan_cache_;

  const CostModel cost_model_{};
  exec::ExecOptions exec_options_;
};

}  // namespace mpfdb

#endif  // MPFDB_CORE_DATABASE_H_
