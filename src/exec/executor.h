#ifndef MPFDB_EXEC_EXECUTOR_H_
#define MPFDB_EXEC_EXECUTOR_H_

#include <map>
#include <memory>
#include <string>

#include "exec/operator.h"
#include "plan/physical.h"
#include "plan/plan.h"
#include "semiring/semiring.h"
#include "storage/catalog.h"
#include "util/status.h"

namespace mpfdb::exec {

struct ExecOptions {
  // Ignored: every query runs on the calling thread. Kept only for the
  // end-to-end benchmark (e2ebench/), which still sets it; ROADMAP.md item 2
  // deletes it with exec::ThreadPool.
  size_t num_threads = 1;
  // Default seed of the approximate-inference sampling backend (the Gibbs
  // chain behind Database::QueryApprox) when the per-query ApproxOptions
  // leaves its seed at 0. Threaded through so every sampled estimate in a
  // process is bit-reproducible from configuration alone; never consulted
  // by the exact execution paths.
  uint64_t sampling_seed = 1;
};

// Maps an annotated logical plan to a physical plan (one algorithm per node
// kind, see plan/physical.h) and on to a physical operator tree, then runs
// it. Stateless apart from the bound catalog and semiring, so one Executor
// can run many plans.
class Executor {
 public:
  // ExecOptions configure the Database around the executor (the sampling
  // seed); the executor itself reads none of them.
  Executor(const Catalog& catalog, Semiring semiring,
           const ExecOptions& /*options*/ = {})
      : catalog_(catalog), semiring_(semiring) {}

  // Runs the logical->physical pass (PlanPhysicalTree over this executor's
  // catalog). `ctx` no longer affects the plan: every budget and deadline
  // runs the same physical tree, so callers may pass any context.
  StatusOr<std::unique_ptr<PhysicalPlanNode>> PlanPhysical(
      const PlanNode& plan, QueryContext* ctx = nullptr) const;

  // Builds, runs to completion, and returns the materialized result sorted
  // canonically on its variable columns. When `ctx` is non-null the whole
  // operator tree runs governed: memory charges against its budget,
  // cooperative cancellation/deadline polls, and spill-based degradation. A
  // null `ctx` runs under a local context with no budget or deadline: pure
  // accounting, so results are the same either way.
  StatusOr<TablePtr> Execute(const PlanNode& plan,
                             const std::string& result_name,
                             QueryContext* ctx = nullptr) const;

  // Runs an already-planned physical tree (the plan-cache hit path of
  // concurrent serving: the physical plan is memoized across queries, while
  // the operator tree is rebuilt per execution so scans resolve against this
  // executor's catalog and no runtime state is shared between concurrent
  // executions of the same cached plan). Same result contract as Execute.
  // A non-null `stats` attaches the per-operator runtime stats spine: output
  // rows/batches, wall nanos (inclusive of the subtree), peak bytes charged
  // and spill partitions, keyed by the *logical* node each physical operator
  // implements (a fused IndexScan is keyed by the Select node it absorbed).
  StatusOr<TablePtr> ExecutePhysical(
      const PhysicalPlanNode& plan, const std::string& result_name,
      QueryContext* ctx = nullptr,
      std::map<const PlanNode*, OperatorStats>* stats = nullptr) const;

  // Execute with the stats spine attached (ExecutePhysical's `stats`). The
  // returned physical plan is the one that ran.
  struct AnalyzedResult {
    TablePtr table;
    std::unique_ptr<PhysicalPlanNode> physical;
    std::map<const PlanNode*, OperatorStats> stats;
  };
  StatusOr<AnalyzedResult> ExecuteAnalyze(const PlanNode& plan,
                                          const std::string& result_name,
                                          QueryContext* ctx = nullptr) const;

 private:
  StatusOr<OperatorPtr> BuildNode(
      const PhysicalPlanNode& phys,
      std::map<const PlanNode*, OperatorStats>* stats) const;

  const Catalog& catalog_;
  Semiring semiring_;
};

// Renders the physical plan annotated with estimates vs runtime actuals:
// per node `est=` / `actual=` / `q=` (cardinality q-error, max(est/actual,
// actual/est)) plus rows/batches/peak bytes/spill partitions/wall time from
// the stats spine.
std::string ExplainAnalyzePlan(
    const PhysicalPlanNode& root,
    const std::map<const PlanNode*, OperatorStats>& stats);

}  // namespace mpfdb::exec

#endif  // MPFDB_EXEC_EXECUTOR_H_
