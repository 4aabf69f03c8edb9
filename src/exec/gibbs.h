#ifndef MPFDB_EXEC_GIBBS_H_
#define MPFDB_EXEC_GIBBS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "plan/plan.h"
#include "storage/catalog.h"
#include "util/query_context.h"
#include "util/rng.h"
#include "util/status.h"

namespace mpfdb::exec {

// Knobs of one Gibbs chain. The seed fully determines the sample stream
// (util::SplitMix64), so a fixed (seed, options, workload) triple is
// bit-reproducible — the determinism-audit CI leg depends on it.
struct GibbsOptions {
  uint64_t seed = 1;
  // Full-state sweeps per RunRound call; the estimate is only published at
  // round boundaries, so this is the anytime iterator's granularity.
  size_t sweeps_per_round = 64;
  // Sweeps discarded before visit counting starts (chain warm-up).
  size_t burn_in_sweeps = 64;
};

// Gibbs sampling over factor-graph state (Wick et al.'s MCMC-over-possible-
// worlds, specialized to one MPF view): the state is a full assignment of
// the view's variables (query selections pin theirs), and each sweep
// resamples every free variable from its conditional under the view's
// semiring — measures act as potentials (multiplicative for the product
// semirings, exponentiated for the additive ones, negated for kMinSum).
//
// Exposed as an *anytime iterator*: RunRound() advances the chain by a fixed
// number of sweeps and publishes a fresh estimate; a failed round (deadline,
// cancellation, via QueryContext::Poll once per sweep) leaves the previous
// round's published estimate fully intact, so callers never observe a torn
// estimate. What the estimate means depends on the semiring:
//
//  * kSumProduct / kLogSumProduct: the visit-frequency estimate of the
//    normalized marginal over the group variables (log-frequency for
//    kLogSumProduct). Bounds stay with the dissociation pass; the sampler
//    contributes the distribution's shape.
//  * kMaxProduct / kMaxSum / kMinSum / kBoolOrAnd: the per-group incumbent —
//    the semiring-Add fold of every valid full assignment's score seen so
//    far. Since Add only tightens (max/or upward, min downward), the
//    incumbent is a monotone non-widening bound on the exact answer
//    (IncumbentSide says which side).
class GibbsEstimator {
 public:
  // Validates the query, builds per-factor lookup tables (charged against
  // `ctx`'s memory budget when non-null), and constructs a deterministic
  // initial assignment. Fails kFailedPrecondition on negative measures under
  // kSumProduct (no probability reading) and kInvalidArgument on malformed
  // queries.
  static StatusOr<std::unique_ptr<GibbsEstimator>> Create(
      const MpfViewDef& view, const MpfQuerySpec& query, const Catalog& catalog,
      const GibbsOptions& options, QueryContext* ctx = nullptr);

  // Advances the chain by sweeps_per_round sweeps and publishes the updated
  // estimate. On a Poll failure (cancel / deadline / sticky doom) the round
  // is abandoned: the chain state is wherever the failure caught it, but
  // nothing published moves.
  Status RunRound();

  // The last published estimate as a result-style table (group variables +
  // measure column "f"), canonically sorted. Empty table before the first
  // completed post-burn-in round.
  TablePtr EstimateTable(const std::string& name) const;

  // The incumbent bound table (valid for every semiring; for the sum kinds
  // it is a lower bound on each group's unnormalized total — the fold runs
  // over *distinct* visited assignments, each of which contributes one term
  // of the exact sum). Groups without a valid visited assignment are absent.
  TablePtr IncumbentTable(const std::string& name) const;
  // Side of the exact answer IncumbentTable bounds: lower for every kind
  // except kMinSum (where a best-so-far cost only bounds from above).
  bool IncumbentIsLowerBound() const;

  // Completed (published) rounds.
  size_t rounds() const { return rounds_; }
  // Post-burn-in states recorded into the estimate.
  uint64_t samples() const { return samples_; }
  // Max absolute per-group movement of the published estimate in the most
  // recent completed round — the anytime convergence signal.
  double last_round_delta() const { return last_delta_; }

 private:
  struct FactorTable {
    std::vector<size_t> var_idx;       // global variable indices, schema order
    std::vector<uint64_t> stride;      // mixed-radix strides, same order
    std::unordered_map<uint64_t, double> rows;
  };

  GibbsEstimator(Semiring semiring, GibbsOptions options, QueryContext* ctx)
      : semiring_(semiring), options_(options), ctx_(ctx), rng_(options.seed) {}

  // Measure of factor `f` at the current state with variable `var` set to
  // `value`; false when the factor has no such row.
  bool FactorMeasureAt(const FactorTable& f, size_t var, VarValue value,
                       double* measure) const;
  void ResampleVariable(size_t var);
  // Multiply-fold of every factor at the current state; false when some
  // factor has no matching row (the state is outside the joint support).
  bool StateScore(double* score) const;
  void RecordState();
  std::map<std::vector<VarValue>, double> ComputeEstimate() const;
  TablePtr RenderTable(
      const std::string& name,
      const std::map<std::vector<VarValue>, double>& groups) const;

  Semiring semiring_;
  GibbsOptions options_;
  QueryContext* ctx_;
  SplitMix64 rng_;
  MemoryGuard guard_;

  std::vector<std::string> var_names_;
  std::vector<int64_t> domains_;
  std::vector<bool> fixed_;
  std::vector<VarValue> state_;
  std::vector<size_t> group_idx_;  // group variables, query order
  std::vector<FactorTable> factors_;
  std::vector<std::vector<size_t>> factors_of_var_;

  // Chain statistics (live; mutated mid-round).
  uint64_t total_sweeps_ = 0;
  uint64_t samples_ = 0;
  std::map<std::vector<VarValue>, uint64_t> visits_;
  std::map<std::vector<VarValue>, double> incumbent_;
  // Sum kinds only: distinct full assignments already folded into the
  // incumbent (Add is not idempotent there, so revisits must not re-fold).
  // When the set hits the memory budget the incumbent freezes, staying a
  // valid — just no longer tightening — bound.
  std::set<std::vector<VarValue>> seen_states_;
  bool seen_states_saturated_ = false;
  // Scratch for ResampleVariable (avoids per-step allocation).
  std::vector<double> weight_scratch_;

  // Published at round boundaries only.
  size_t rounds_ = 0;
  double last_delta_ = 0;
  std::map<std::vector<VarValue>, double> published_estimate_;
  std::map<std::vector<VarValue>, double> published_incumbent_;
};

}  // namespace mpfdb::exec

#endif  // MPFDB_EXEC_GIBBS_H_
