#include "core/database.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "exec/gibbs.h"
#include "fr/algebra.h"
#include "opt/dissociate.h"
#include "storage/mvcc.h"
#include "util/strings.h"

namespace mpfdb {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// Resolves a view name in a pinned snapshot.
StatusOr<const MpfViewDef*> FindView(const Database::Snapshot& snap,
                                     const std::string& view_name) {
  auto it = snap.views.find(view_name);
  if (it == snap.views.end()) {
    return Status::NotFound("view '" + view_name + "' does not exist");
  }
  return &it->second;
}

// EXPLAIN's header lines: optimizer, query, variable order.
std::string ExplainHeader(const BoundPlan& plan,
                          const MpfQuerySpec& query, const MpfViewDef& view) {
  return "-- optimizer: " + plan.optimizer_name + "\n-- query: " +
         query.ToString(view) + "\n-- variable order: (" +
         FormatVarList(plan.variable_order) + ")\n";
}

}  // namespace

Database::Database(DatabaseOptions options)
    : options_(options),
      exec_options_{} {}

Catalog& Database::catalog() {
  // Mutable access is indistinguishable from a mutation: invalidate
  // conservatively so snapshots and cached plans can never go stale through
  // this escape hatch.
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  BumpStructuralLocked();
  return catalog_;
}

void Database::BumpStructuralLocked() {
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  uint64_t next = structural_epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  snapshot_cache_.reset();
  plan_cache_.OnEpochBump(next);
}

void Database::BumpDataEpochLocked() {
  // Measure commits leave the schema shape untouched, so cached plans stay
  // valid — only snapshots go stale.
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  snapshot_cache_.reset();
}

void Database::GcState::CollectLocked() {
  for (auto it = chains.begin(); it != chains.end();) {
    auto& chain = it->second;
    chain.erase(std::remove_if(chain.begin(), chain.end(),
                               [&](const Retired& r) {
                                 // A pin at epoch p sees the version live in
                                 // [birth, death).
                                 auto p = pins.lower_bound(r.birth);
                                 bool pinned = p != pins.end() && *p < r.death;
                                 if (!pinned) ++versions_collected;
                                 return !pinned;
                               }),
                chain.end());
    if (chain.empty()) {
      it = chains.erase(it);
    } else {
      ++it;
    }
  }
}

Database::SnapshotPtr Database::snapshot() const {
  {
    std::shared_lock<std::shared_mutex> lock(state_mu_);
    if (snapshot_cache_ != nullptr &&
        snapshot_cache_->epoch == epoch_.load(std::memory_order_relaxed)) {
      return snapshot_cache_;
    }
  }
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  if (snapshot_cache_ == nullptr || snapshot_cache_->epoch != epoch) {
    auto snap = new Snapshot();
    snap->epoch = epoch;
    snap->structural_epoch = structural_epoch_.load(std::memory_order_relaxed);
    snap->catalog = catalog_;  // shares the (immutable) table storage
    snap->views = views_;
    {
      std::lock_guard<std::mutex> gc_lock(gc_->mu);
      gc_->pins.insert(epoch);
    }
    // The deleter captures the GC state by shared_ptr, so a snapshot that
    // outlives the Database still releases its pin safely.
    snapshot_cache_ = SnapshotPtr(snap, [gc = gc_, epoch](const Snapshot* s) {
      {
        std::lock_guard<std::mutex> gc_lock(gc->mu);
        auto it = gc->pins.find(epoch);
        if (it != gc->pins.end()) gc->pins.erase(it);
        gc->CollectLocked();
      }
      delete s;
    });
  }
  return snapshot_cache_;
}

void Database::set_exec_options(exec::ExecOptions options) {
  exec_options_ = options;
}

Status Database::CreateTable(TablePtr table) {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  if (table != nullptr) table->SealChunked();
  std::string name = table == nullptr ? std::string() : table->name();
  MPFDB_RETURN_IF_ERROR(catalog_.RegisterTable(std::move(table)));
  BumpStructuralLocked();
  std::lock_guard<std::mutex> gc_lock(gc_->mu);
  gc_->birth_epoch[name] = epoch_.load(std::memory_order_relaxed);
  return Status::Ok();
}

Status Database::DropTable(const std::string& name) {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  for (const auto& [view_name, view] : views_) {
    for (const auto& rel : view.relations) {
      if (rel == name) {
        return Status::FailedPrecondition("table '" + name +
                                          "' is referenced by view '" +
                                          view_name + "'; drop the view first");
      }
    }
  }
  MPFDB_RETURN_IF_ERROR(catalog_.DropTable(name));
  BumpStructuralLocked();
  std::lock_guard<std::mutex> gc_lock(gc_->mu);
  gc_->birth_epoch.erase(name);
  return Status::Ok();
}

Status Database::DropMpfView(const std::string& name) {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  if (views_.erase(name) == 0) {
    return Status::NotFound("view '" + name + "' does not exist");
  }
  caches_.erase(name);
  BumpStructuralLocked();
  return Status::Ok();
}

Status Database::CreateMpfView(MpfViewDef view) {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  if (views_.count(view.name) > 0) {
    return Status::AlreadyExists("view '" + view.name + "' already exists");
  }
  for (const auto& rel : view.relations) {
    if (!catalog_.HasTable(rel)) {
      return Status::NotFound("view '" + view.name +
                              "' references missing table '" + rel + "'");
    }
  }
  if (view.relations.empty()) {
    return Status::InvalidArgument("view '" + view.name + "' has no relations");
  }
  std::string name = view.name;
  views_.emplace(std::move(name), std::move(view));
  BumpStructuralLocked();
  return Status::Ok();
}

StatusOr<const MpfViewDef*> Database::GetView(const std::string& name) const {
  // std::map nodes are stable, so the pointer survives until the view is
  // dropped. Concurrent readers should prefer snapshot().
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::NotFound("view '" + name + "' does not exist");
  }
  return &it->second;
}

std::vector<std::string> Database::ViewNames() const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  std::vector<std::string> names;
  for (const auto& [name, view] : views_) names.push_back(name);
  return names;
}

StatusOr<BoundPlan> Database::Plan(const Snapshot& snap,
                                   const MpfViewDef& view,
                                   const Catalog& catalog,
                                   const MpfQuerySpec& query,
                                   const std::string& optimizer_spec,
                                   bool* cache_hit) {
  // Plans are shareable only against the snapshot's own catalog; scratch
  // catalogs hold tables no other query sees. The key is everything that
  // picks the plan — view, selected variables, query, optimizer, but no
  // selection value; the physical pass makes no choices, so every context
  // (budget, deadline) shares one entry. Entries are keyed on the
  // structural epoch: measure commits don't invalidate plans.
  const bool cacheable = &catalog == &snap.catalog;
  if (cache_hit != nullptr) *cache_hit = false;
  std::string cache_key;
  if (cacheable) {
    cache_key = view.name + "|" + server::TemplateQueryKey(query) + "|o:" +
                optimizer_spec;
    auto cached = plan_cache_.Lookup(cache_key, snap.structural_epoch);
    if (cached != nullptr) {
      if (cache_hit != nullptr) *cache_hit = true;
      return cached->Bind(query);
    }
  }
  MPFDB_ASSIGN_OR_RETURN(std::unique_ptr<opt::Optimizer> optimizer,
                         MakeOptimizer(optimizer_spec));
  BoundPlan fresh;
  MPFDB_ASSIGN_OR_RETURN(
      fresh.logical, optimizer->Optimize(view, query, catalog, cost_model_));
  fresh.optimizer_name = optimizer->name();
  fresh.variable_order = optimizer->last_variable_order();
  if (!cacheable) return fresh;

  // A miss runs the hit path too: compact, then inflate with this query's
  // values. A plan the template format cannot hold, or whose template does
  // not rebuild it exactly, is served uncached.
  auto vocabulary = plan_cache_.Vocabulary(view, catalog, cost_model_,
                                           snap.structural_epoch);
  if (!vocabulary.ok()) return fresh;
  auto compacted = PlanTemplate::Compact(
      *fresh.logical, fresh.optimizer_name, fresh.variable_order,
      **vocabulary, server::CanonicalSelections(query));
  if (!compacted.ok()) return fresh;
  auto entry = std::make_shared<server::CachedPlan>(
      server::CachedPlan{std::move(*compacted), std::move(*vocabulary)});
  auto bound = entry->Bind(query);
  if (!bound.ok() || !SamePlan(*bound->logical, *fresh.logical) ||
      bound->variable_order != fresh.variable_order) {
    return fresh;
  }
  plan_cache_.Insert(cache_key, snap.structural_epoch, std::move(entry));
  return bound;
}

StatusOr<TablePtr> Database::Execute(
    const PlanNode& plan, const Catalog& catalog, const Semiring& semiring,
    const std::string& result_name, QueryContext* ctx,
    std::map<const PlanNode*, OperatorStats>* stats) {
  exec::Executor executor(catalog, semiring, exec_options_);
  return executor.ExecutePhysical(*PlanPhysicalTree(plan, catalog),
                                  result_name, ctx, stats);
}

StatusOr<QueryResult> Database::PlanAndExecute(
    const Snapshot& snap, const MpfViewDef& view, const Catalog& catalog,
    const MpfQuerySpec& query, const std::string& optimizer_spec,
    const std::string& result_name, QueryContext* ctx) {
  QueryResult result;
  result.snapshot_epoch = snap.epoch;
  auto plan_start = std::chrono::steady_clock::now();
  MPFDB_ASSIGN_OR_RETURN(BoundPlan plan,
                         Plan(snap, view, catalog, query, optimizer_spec,
                              &result.plan_cache_hit));
  result.plan = plan.logical;
  result.planning_seconds = SecondsSince(plan_start);
  auto exec_start = std::chrono::steady_clock::now();
  MPFDB_ASSIGN_OR_RETURN(result.table,
                         Execute(*plan.logical, catalog, view.semiring,
                                 result_name, ctx));
  result.execution_seconds = SecondsSince(exec_start);
  return result;
}

StatusOr<QueryResult> Database::Query(const std::string& view_name,
                                      const MpfQuerySpec& query,
                                      const std::string& optimizer_spec,
                                      QueryContext* ctx) {
  SnapshotPtr snap = snapshot();
  MPFDB_ASSIGN_OR_RETURN(const MpfViewDef* view, FindView(*snap, view_name));
  return PlanAndExecute(*snap, *view, snap->catalog, query, optimizer_spec,
                        view_name + "_result", ctx);
}

namespace {

// A what-if match list resolved to (column, value) pairs of `table`.
using RowMatch = std::vector<std::pair<size_t, VarValue>>;

StatusOr<RowMatch> ResolveMatch(const Table& table,
                                const std::vector<QuerySelection>& match) {
  RowMatch resolved;
  for (const auto& m : match) {
    auto idx = table.schema().IndexOf(m.var);
    if (!idx) {
      return Status::InvalidArgument("what-if match variable '" + m.var +
                                     "' not in table " + table.name());
    }
    resolved.emplace_back(*idx, m.value);
  }
  return resolved;
}

bool Matches(RowView row, const RowMatch& match) {
  for (const auto& [idx, value] : match) {
    if (row.var(idx) != value) return false;
  }
  return true;
}

// A new version of `table` with one what-if measure update applied.
StatusOr<TablePtr> ApplyWhatIfMeasureUpdate(
    const Table& table, const WhatIf::MeasureUpdate& update) {
  MPFDB_ASSIGN_OR_RETURN(RowMatch match, ResolveMatch(table, update.match));
  std::vector<std::pair<size_t, double>> updates;
  for (size_t i = 0; i < table.NumRows(); ++i) {
    if (Matches(table.Row(i), match)) {
      updates.emplace_back(i, update.new_measure);
    }
  }
  if (updates.empty()) {
    return Status::NotFound("what-if measure update matched no rows of " +
                            table.name());
  }
  return TablePtr(table.WithMeasureUpdates(updates, table.name()));
}

// A rebuilt copy of `table` with one what-if domain update applied, so the
// functional dependency can be verified.
StatusOr<TablePtr> ApplyDomainUpdate(const Table& table,
                                     const WhatIf::DomainUpdate& update) {
  auto var_idx = table.schema().IndexOf(update.var);
  if (!var_idx) {
    return Status::InvalidArgument("what-if variable '" + update.var +
                                   "' not in table " + table.name());
  }
  MPFDB_ASSIGN_OR_RETURN(RowMatch match, ResolveMatch(table, update.match));
  auto rebuilt = std::make_shared<Table>(table.name(), table.schema());
  rebuilt->Reserve(table.NumRows());
  std::vector<VarValue> vars(table.schema().arity());
  size_t touched = 0;
  for (size_t i = 0; i < table.NumRows(); ++i) {
    RowView row = table.Row(i);
    vars.assign(row.vars, row.vars + row.arity);
    if (Matches(row, match)) {
      vars[*var_idx] = update.new_value;
      ++touched;
    }
    rebuilt->AppendRow(vars, row.measure);
  }
  if (touched == 0) {
    return Status::NotFound("what-if domain update matched no rows of " +
                            table.name());
  }
  MPFDB_RETURN_IF_ERROR(fr::CheckFunctionalDependency(*rebuilt));
  return rebuilt;
}

}  // namespace

StatusOr<QueryResult> Database::QueryWhatIf(const std::string& view_name,
                                            const MpfQuerySpec& query,
                                            const WhatIf& what_if,
                                            const std::string& optimizer_spec) {
  SnapshotPtr snap = snapshot();
  MPFDB_ASSIGN_OR_RETURN(const MpfViewDef* view, FindView(*snap, view_name));

  // Scratch catalog: shares unmodified tables, swaps in modified versions.
  Catalog scratch = snap->catalog;
  for (const auto& update : what_if.measure_updates) {
    MPFDB_ASSIGN_OR_RETURN(TablePtr table, scratch.GetTable(update.table));
    MPFDB_ASSIGN_OR_RETURN(TablePtr updated,
                           ApplyWhatIfMeasureUpdate(*table, update));
    MPFDB_RETURN_IF_ERROR(scratch.ReplaceTable(std::move(updated)));
  }
  for (const auto& update : what_if.domain_updates) {
    MPFDB_ASSIGN_OR_RETURN(TablePtr table, scratch.GetTable(update.table));
    MPFDB_ASSIGN_OR_RETURN(TablePtr rebuilt, ApplyDomainUpdate(*table, update));
    MPFDB_RETURN_IF_ERROR(scratch.ReplaceTable(std::move(rebuilt)));
  }
  return PlanAndExecute(*snap, *view, scratch, query, optimizer_spec,
                        view_name + "_whatif", nullptr);
}

namespace {

// A result table folded down to (group values in `group_vars` order) ->
// measure. Executor results are already grouped, so the Add fold is a
// no-op defensive merge.
StatusOr<std::map<std::vector<VarValue>, double>> GroupMap(
    const Table& table, const std::vector<std::string>& group_vars,
    const Semiring& sr) {
  std::vector<size_t> idx;
  idx.reserve(group_vars.size());
  for (const auto& g : group_vars) {
    auto i = table.schema().IndexOf(g);
    if (!i) {
      return Status::Internal("bound result '" + table.name() +
                              "' is missing group variable '" + g + "'");
    }
    idx.push_back(*i);
  }
  std::map<std::vector<VarValue>, double> out;
  std::vector<VarValue> key(idx.size());
  for (size_t r = 0; r < table.NumRows(); ++r) {
    RowView row = table.Row(r);
    for (size_t k = 0; k < idx.size(); ++k) key[k] = row.var(idx[k]);
    auto [it, fresh] = out.emplace(key, row.measure);
    if (!fresh) it->second = sr.Add(it->second, row.measure);
  }
  return out;
}

// Pads both bound maps to the union of their groups. A group absent from a
// bound result is bounded at Add's identity: the conditioned (subset) query
// legitimately drops groups its pinned values can't reach, and the identity
// is the Add-fold of that empty subset.
void AlignGroups(const Semiring& sr,
                 std::map<std::vector<VarValue>, double>* lower,
                 std::map<std::vector<VarValue>, double>* upper) {
  for (const auto& [group, value] : *lower) {
    upper->emplace(group, sr.AddIdentity());
  }
  for (const auto& [group, value] : *upper) {
    lower->emplace(group, sr.AddIdentity());
  }
}

// Per-group bound gap: relative for the product semirings (measures are
// magnitudes), absolute for the additive ones (measures are costs/logs,
// where an absolute difference *is* the relative error of the underlying
// quantity), exact-match for bool.
double GroupGap(const Semiring& sr, double lower, double upper) {
  if (std::isnan(lower) || std::isnan(upper)) {
    return std::numeric_limits<double>::infinity();
  }
  switch (sr.kind()) {
    case SemiringKind::kBoolOrAnd:
      return lower == upper ? 0.0 : 1.0;
    case SemiringKind::kSumProduct:
    case SemiringKind::kMaxProduct: {
      double denom = std::max(std::fabs(lower), std::fabs(upper));
      if (denom == 0) return 0.0;
      return std::fabs(upper - lower) / denom;
    }
    default:  // kMinSum, kMaxSum, kLogSumProduct
      if (std::isinf(lower) || std::isinf(upper)) {
        return lower == upper ? 0.0
                              : std::numeric_limits<double>::infinity();
      }
      return std::fabs(upper - lower);
  }
}

double MaxGroupGap(const Semiring& sr,
                   const std::map<std::vector<VarValue>, double>& lower,
                   const std::map<std::vector<VarValue>, double>& upper) {
  double max_gap = 0;
  auto hi = upper.begin();
  for (const auto& [group, lo] : lower) {
    max_gap = std::max(max_gap, GroupGap(sr, lo, hi->second));
    ++hi;
  }
  return max_gap;
}

TablePtr RenderGroups(const std::string& name,
                      const std::vector<std::string>& group_vars,
                      const std::map<std::vector<VarValue>, double>& groups) {
  auto table = std::make_shared<Table>(name, Schema(group_vars, "f"));
  table->Reserve(groups.size());
  for (const auto& [group, value] : groups) table->AppendRow(group, value);
  return table;
}

}  // namespace

StatusOr<ApproxResult> Database::QueryApprox(const std::string& view_name,
                                             const MpfQuerySpec& query,
                                             const ApproxOptions& approx,
                                             const std::string& optimizer_spec,
                                             QueryContext* ctx) {
  auto start = std::chrono::steady_clock::now();
  SnapshotPtr snap = snapshot();
  MPFDB_ASSIGN_OR_RETURN(const MpfViewDef* view_def,
                         FindView(*snap, view_name));
  const MpfViewDef& view = *view_def;
  const Semiring& sr = view.semiring;

  ApproxResult result;
  result.snapshot_epoch = snap->epoch;
  MPFDB_ASSIGN_OR_RETURN(result.split_vars,
                         opt::ChooseSplitVars(view, query, snap->catalog));

  if (result.split_vars.empty()) {
    // Acyclic (after GYO reduction): the exact query, answered at the
    // snapshot split_vars was computed on, is its own bound pair.
    MPFDB_ASSIGN_OR_RETURN(
        QueryResult exact,
        PlanAndExecute(*snap, view, snap->catalog, query, optimizer_spec,
                       view_name + "_result", ctx));
    result.lower = exact.table;
    result.upper = exact.table;
    result.estimate = std::move(exact.table);
    result.converged = true;
    result.seconds = SecondsSince(start);
    return result;
  }
  result.approximate = true;

  // Both bounds are plain exact queries the ordinary stack runs: the
  // dissociated relaxation against its scratch catalog of column-renamed
  // clones, the conditioned restriction against the snapshot itself. A
  // failure here (including a deadline that fires this early) is an honest
  // error — there is nothing valid to degrade to yet.
  MPFDB_ASSIGN_OR_RETURN(
      opt::DissociatedQuery dissoc,
      opt::DissociateView(view, query, snap->catalog, result.split_vars));
  MPFDB_ASSIGN_OR_RETURN(
      MpfQuerySpec conditioned,
      opt::ConditionQuery(view, query, snap->catalog, result.split_vars));
  MPFDB_ASSIGN_OR_RETURN(
      QueryResult dissoc_bound,
      PlanAndExecute(*snap, dissoc.view, dissoc.catalog, dissoc.query,
                     optimizer_spec, view_name + "_dissoc", ctx));
  MPFDB_ASSIGN_OR_RETURN(
      QueryResult cond_bound,
      PlanAndExecute(*snap, view, snap->catalog, conditioned, optimizer_spec,
                     view_name + "_cond", ctx));

  const bool dissoc_is_upper =
      opt::DissociatedBoundSide(sr) == opt::BoundSide::kUpper;
  MPFDB_ASSIGN_OR_RETURN(auto dissoc_map,
                         GroupMap(*dissoc_bound.table, query.group_vars, sr));
  MPFDB_ASSIGN_OR_RETURN(auto cond_map,
                         GroupMap(*cond_bound.table, query.group_vars, sr));
  auto& lower_map = dissoc_is_upper ? cond_map : dissoc_map;
  auto& upper_map = dissoc_is_upper ? dissoc_map : cond_map;
  AlignGroups(sr, &lower_map, &upper_map);
  result.max_gap = MaxGroupGap(sr, lower_map, upper_map);
  result.converged = result.max_gap <= approx.eps;

  if (!result.converged && approx.sampling && approx.max_rounds > 0) {
    exec::GibbsOptions gibbs_options;
    gibbs_options.seed =
        approx.seed != 0 ? approx.seed : exec_options_.sampling_seed;
    gibbs_options.sweeps_per_round = approx.sweeps_per_round;
    gibbs_options.burn_in_sweeps = approx.burn_in_sweeps;
    auto estimator = exec::GibbsEstimator::Create(view, query, snap->catalog,
                                                  gibbs_options, ctx);
    if (estimator.ok()) {
      exec::GibbsEstimator& gibbs = **estimator;
      for (size_t round = 0; round < approx.max_rounds; ++round) {
        Status st = gibbs.RunRound();
        if (!st.ok()) {
          // The anytime contract: an expiring deadline degrades the answer
          // to the bounds plus whatever the sampler last published instead
          // of failing the query. Cancellation stays an error — the caller
          // asked for no answer at all.
          if (st.code() == StatusCode::kDeadlineExceeded) {
            result.deadline_hit = true;
            break;
          }
          return st;
        }
        if (gibbs.samples() > 0 && gibbs.last_round_delta() <= approx.eps) {
          result.converged = true;
          break;
        }
      }
      result.gibbs_rounds = gibbs.rounds();
      result.samples = gibbs.samples();
      if (gibbs.rounds() > 0) {
        result.estimate = gibbs.EstimateTable(view_name + "_estimate");
        // The incumbent — the Add-fold of every valid assignment the chain
        // visited — is itself a bound (lower everywhere but kMinSum), so it
        // can only tighten the dissociation bounds. max/min, not semiring
        // Add: under plain sum, Add-ing two partial lower bounds could
        // overshoot the exact total.
        MPFDB_ASSIGN_OR_RETURN(
            auto incumbent_map,
            GroupMap(*gibbs.IncumbentTable(view_name + "_incumbent"),
                     query.group_vars, sr));
        auto& tightened =
            gibbs.IncumbentIsLowerBound() ? lower_map : upper_map;
        auto& partner = gibbs.IncumbentIsLowerBound() ? upper_map : lower_map;
        for (const auto& [group, value] : incumbent_map) {
          auto [it, fresh] = tightened.emplace(group, value);
          if (!fresh) {
            it->second = gibbs.IncumbentIsLowerBound()
                             ? std::max(it->second, value)
                             : std::min(it->second, value);
          }
          partner.emplace(group, sr.AddIdentity());
        }
        result.max_gap = MaxGroupGap(sr, lower_map, upper_map);
        if (result.max_gap <= approx.eps) result.converged = true;
      }
    } else {
      Status st = estimator.status();
      if (st.code() == StatusCode::kDeadlineExceeded) {
        result.deadline_hit = true;
      } else if (st.code() == StatusCode::kCancelled) {
        return st;
      }
      // Any other construction failure (packed-key overflow, negative
      // measures under a kind whose *bounds* don't need them, memory
      // pressure) quietly degrades to bounds-only: the bounds stand.
    }
  }

  result.lower = RenderGroups(view_name + "_lower", query.group_vars,
                              lower_map);
  result.upper = RenderGroups(view_name + "_upper", query.group_vars,
                              upper_map);
  if (result.estimate == nullptr) {
    // Bounds-only outcome: hand back the bound that is exact-tending for
    // this semiring's Add direction as the point estimate stand-in.
    result.estimate = sr.AddMonotoneNondecreasing() ? result.lower
                                                    : result.upper;
  }
  result.seconds = SecondsSince(start);
  return result;
}

StatusOr<std::string> Database::ExplainAnalyzeApprox(
    const std::string& view_name, const MpfQuerySpec& query,
    const ApproxOptions& approx, const std::string& optimizer_spec) {
  SnapshotPtr snap = snapshot();
  MPFDB_ASSIGN_OR_RETURN(const MpfViewDef* view, FindView(*snap, view_name));
  MPFDB_ASSIGN_OR_RETURN(ApproxResult result,
                         QueryApprox(view_name, query, approx,
                                     optimizer_spec));
  std::ostringstream os;
  os << "-- approx query: " << query.ToString(*view) << "\n";
  os << "-- split vars: (" << FormatVarList(result.split_vars) << ")\n";
  os << "-- approximate: " << (result.approximate ? "yes" : "no")
     << ", converged: " << (result.converged ? "yes" : "no")
     << ", deadline_hit: " << (result.deadline_hit ? "yes" : "no") << "\n";
  os << "-- bound gap: max " << result.max_gap << " (eps " << approx.eps
     << ")\n";
  double samples_per_sec =
      result.seconds > 0 ? static_cast<double>(result.samples) / result.seconds
                         : 0;
  os << "-- gibbs: rounds=" << result.gibbs_rounds
     << " samples=" << result.samples << " samples/sec=" << samples_per_sec
     << "\n";
  os << "-- lower bound (" << result.lower->NumRows() << " groups):\n"
     << result.lower->ToString();
  os << "-- upper bound (" << result.upper->NumRows() << " groups):\n"
     << result.upper->ToString();
  os << "-- estimate (" << result.estimate->NumRows() << " groups):\n"
     << result.estimate->ToString();
  return os.str();
}

Status Database::ApplyMeasureUpdate(const std::string& table_name,
                                    const std::vector<VarValue>& row_vars,
                                    double new_measure,
                                    uint64_t* commit_epoch) {
  return ApplyMeasureUpdates({{table_name, row_vars, new_measure}},
                             commit_epoch);
}

Status Database::ApplyMeasureUpdates(
    const std::vector<MeasureUpdateSpec>& specs, uint64_t* commit_epoch) {
  if (specs.empty()) {
    if (commit_epoch != nullptr) *commit_epoch = epoch();
    return Status::Ok();
  }
  auto pending = std::make_shared<PendingCommit>();
  pending->specs = specs;

  std::unique_lock<std::mutex> lock(commit_mu_);
  commit_queue_.push_back(pending);
  while (!pending->done) {
    if (commit_leader_active_) {
      commit_cv_.wait(lock);
      continue;
    }
    // Become the group-commit leader: drain a batch, commit it outside the
    // queue lock, wake everyone whose updates rode along.
    commit_leader_active_ = true;
    if (options_.commit_linger_us > 0) {
      commit_cv_.wait_for(
          lock, std::chrono::microseconds(options_.commit_linger_us), [&] {
            size_t queued = 0;
            for (const auto& p : commit_queue_) queued += p->specs.size();
            return queued >= options_.commit_batch_max;
          });
    }
    std::vector<std::shared_ptr<PendingCommit>> batch;
    size_t queued_updates = 0;
    while (!commit_queue_.empty() &&
           (batch.empty() || queued_updates < options_.commit_batch_max)) {
      queued_updates += commit_queue_.front()->specs.size();
      batch.push_back(std::move(commit_queue_.front()));
      commit_queue_.pop_front();
    }
    lock.unlock();
    CommitBatch(batch);
    lock.lock();
    // `done` is published under commit_mu_, so each waiter reads its status
    // with a happens-before edge from the leader's writes.
    for (auto& p : batch) p->done = true;
    commit_leader_active_ = false;
    commit_cv_.notify_all();
  }
  if (commit_epoch != nullptr) *commit_epoch = pending->commit_epoch;
  return pending->status;
}

void Database::CommitBatch(std::vector<std::shared_ptr<PendingCommit>>& batch) {
  struct ResolvedOp {
    std::string table;
    size_t row = 0;
    double new_measure = 0;
  };
  auto fail_batch = [&](const Status& status) {
    for (auto& p : batch) {
      if (p->status.ok()) p->status = status;
    }
  };

  for (int attempt = 0; attempt < 5; ++attempt) {
    for (auto& p : batch) p->status = Status::Ok();

    // Stage off a consistent copy of the state; no locks held while the new
    // table versions and cache refreshes are computed.
    uint64_t staged_structural_epoch;
    Catalog cat;
    std::map<std::string, MpfViewDef> views;
    std::map<std::string, std::shared_ptr<const workload::VeCache>> cache_ptrs;
    {
      std::shared_lock<std::shared_mutex> lock(state_mu_);
      staged_structural_epoch =
          structural_epoch_.load(std::memory_order_relaxed);
      cat = catalog_;
      views = views_;
      for (const auto& [name, entry] : caches_) cache_ptrs[name] = entry.cache;
    }

    // A published cache can locate a base row with one hash probe; fall back
    // to a table scan when no cache covers the table.
    std::map<std::string, std::pair<const workload::VeCache*, size_t>>
        locators;
    for (const auto& [view_name, cache] : cache_ptrs) {
      for (size_t b = 0; b < cache->base_tables().size(); ++b) {
        locators.emplace(cache->base_tables()[b]->name(),
                         std::make_pair(cache.get(), b));
      }
    }
    auto locate_row = [&](const TablePtr& table,
                          const std::vector<VarValue>& row_vars)
        -> StatusOr<size_t> {
      auto it = locators.find(table->name());
      if (it != locators.end() &&
          it->second.first->base_tables()[it->second.second] == table) {
        return it->second.first->LocateBaseRow(it->second.second, row_vars);
      }
      for (size_t i = 0; i < table->NumRows(); ++i) {
        RowView r = table->Row(i);
        bool all = true;
        for (size_t j = 0; j < r.arity; ++j) {
          if (r.var(j) != row_vars[j]) {
            all = false;
            break;
          }
        }
        if (all) return i;
      }
      return Status::NotFound("ApplyMeasureUpdate matched no row of '" +
                              table->name() + "'");
    };

    // Resolve each caller's specs independently: a bad spec fails only the
    // call that issued it, and drops that call's updates from the batch.
    std::vector<std::vector<ResolvedOp>> resolved(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      for (const MeasureUpdateSpec& spec : batch[i]->specs) {
        auto table_or = cat.GetTable(spec.table);
        if (!table_or.ok()) {
          batch[i]->status = table_or.status();
          break;
        }
        const TablePtr& table = *table_or;
        if (spec.row_vars.size() != table->schema().arity()) {
          batch[i]->status = Status::InvalidArgument(
              "ApplyMeasureUpdate: row has " +
              std::to_string(spec.row_vars.size()) + " values but table '" +
              spec.table + "' has arity " +
              std::to_string(table->schema().arity()));
          break;
        }
        auto row_or = locate_row(table, spec.row_vars);
        if (!row_or.ok()) {
          batch[i]->status = row_or.status();
          break;
        }
        if (table->measure(*row_or) == spec.new_measure) continue;  // no-op
        resolved[i].push_back({spec.table, *row_or, spec.new_measure});
      }
      if (!batch[i]->status.ok()) resolved[i].clear();
    }

    // Merge into one update list per table; later callers win on row ties.
    std::map<std::string, std::map<size_t, double>> merged;
    for (const auto& ops : resolved) {
      for (const ResolvedOp& op : ops) merged[op.table][op.row] =
          op.new_measure;
    }
    if (merged.empty()) {  // all no-ops or per-call failures
      uint64_t at = epoch_.load(std::memory_order_acquire);
      for (auto& p : batch) p->commit_epoch = at;
      return;
    }

    // New table versions: share the variable block and every measure chunk
    // the batch did not touch.
    std::map<std::string, TablePtr> old_tables;
    std::map<std::string, TablePtr> new_tables;
    size_t rows_updated = 0;
    for (const auto& [name, rows] : merged) {
      TablePtr base = *cat.GetTable(name);
      std::vector<std::pair<size_t, double>> updates(rows.begin(), rows.end());
      rows_updated += updates.size();
      old_tables[name] = base;
      new_tables[name] = base->WithMeasureUpdates(updates, name);
    }

    // Refresh every published cache whose view references an updated table:
    // exact-replay delta when possible, full rebuild on kFailedPrecondition
    // (absorbing zero, no delta plan) or when the ablation knob disables the
    // incremental path.
    uint64_t batch_delta_refreshes = 0;
    uint64_t batch_full_rebuilds = 0;
    std::map<std::string, std::shared_ptr<const workload::VeCache>> refreshed;
    for (const auto& [view_name, cache] : cache_ptrs) {
      auto view_it = views.find(view_name);
      if (view_it == views.end()) continue;
      std::vector<workload::VeCacheDeltaOp> delta_ops;
      for (const auto& rel : view_it->second.relations) {
        auto nt = new_tables.find(rel);
        if (nt == new_tables.end()) continue;
        workload::VeCacheDeltaOp op;
        op.table = rel;
        op.new_table = nt->second;
        for (const auto& [row, m] : merged[rel]) op.rows.emplace_back(row, m);
        delta_ops.push_back(std::move(op));
      }
      if (delta_ops.empty()) continue;
      bool delta_done = false;
      if (options_.incremental_cache_refresh && cache->SupportsDelta()) {
        StatusOr<workload::VeCache> next = cache->WithMeasureDelta(delta_ops);
        if (next.ok()) {
          refreshed[view_name] =
              std::make_shared<const workload::VeCache>(std::move(*next));
          ++batch_delta_refreshes;
          delta_done = true;
        } else if (next.status().code() != StatusCode::kFailedPrecondition) {
          fail_batch(next.status());
          return;
        }
      }
      if (!delta_done) {
        Catalog staged = cat;
        for (const auto& [name, table] : new_tables) {
          Status s = staged.ReplaceTable(table);
          if (!s.ok()) {
            fail_batch(s);
            return;
          }
        }
        StatusOr<workload::VeCache> rebuilt =
            workload::VeCache::Build(view_it->second, staged);
        if (!rebuilt.ok()) {
          fail_batch(rebuilt.status());
          return;
        }
        refreshed[view_name] =
            std::make_shared<const workload::VeCache>(std::move(*rebuilt));
        ++batch_full_rebuilds;
      }
    }

    // Publish under the exclusive lock, revalidating that no structural
    // change or concurrent BuildCache invalidated the staging; retry fresh
    // if one did. Exactly one epoch bump covers the whole batch.
    {
      std::unique_lock<std::shared_mutex> lock(state_mu_);
      if (structural_epoch_.load(std::memory_order_relaxed) !=
          staged_structural_epoch) {
        continue;
      }
      bool raced = false;
      for (const auto& [view_name, entry] : caches_) {
        auto view_it = views_.find(view_name);
        if (view_it == views_.end()) continue;
        bool references = false;
        for (const auto& rel : view_it->second.relations) {
          if (new_tables.count(rel) > 0) {
            references = true;
            break;
          }
        }
        if (!references) continue;
        auto staged_it = cache_ptrs.find(view_name);
        if (staged_it == cache_ptrs.end() || staged_it->second != entry.cache) {
          raced = true;  // a BuildCache published a cache we did not refresh
          break;
        }
      }
      if (raced) continue;

      for (const auto& [name, table] : new_tables) {
        Status s = catalog_.ReplaceTable(table);
        if (!s.ok()) {
          fail_batch(s);
          return;
        }
      }
      BumpDataEpochLocked();
      uint64_t new_epoch = epoch_.load(std::memory_order_relaxed);
      for (auto& p : batch) p->commit_epoch = new_epoch;
      for (auto& [view_name, cache] : refreshed) {
        auto it = caches_.find(view_name);
        if (it != caches_.end()) {
          it->second = CacheEntry{std::move(cache), new_epoch};
        }
      }
      // Caches over unrelated tables stay valid across this commit.
      for (auto& [view_name, entry] : caches_) entry.epoch = new_epoch;

      // Retire the superseded versions into the per-table chains; GC frees
      // every version no pinned snapshot can still see.
      std::lock_guard<std::mutex> gc_lock(gc_->mu);
      for (const auto& [name, old_table] : old_tables) {
        uint64_t birth = 0;
        auto b = gc_->birth_epoch.find(name);
        if (b != gc_->birth_epoch.end()) birth = b->second;
        gc_->chains[name].push_back(
            GcState::Retired{birth, new_epoch, old_table});
        gc_->birth_epoch[name] = new_epoch;
        ++gc_->versions_retired;
      }
      gc_->CollectLocked();
    }

    commit_batches_.fetch_add(1, std::memory_order_relaxed);
    updates_applied_.fetch_add(rows_updated, std::memory_order_relaxed);
    if (batch.size() > 1) {
      updates_coalesced_.fetch_add(batch.size() - 1,
                                   std::memory_order_relaxed);
    }
    delta_refreshes_.fetch_add(batch_delta_refreshes,
                               std::memory_order_relaxed);
    full_rebuilds_.fetch_add(batch_full_rebuilds, std::memory_order_relaxed);
    return;
  }
  fail_batch(Status::Internal(
      "measure commit kept racing structural changes; retry later"));
}

MvccStats Database::mvcc_stats() const {
  MvccStats stats;
  stats.commit_batches = commit_batches_.load(std::memory_order_relaxed);
  stats.updates_applied = updates_applied_.load(std::memory_order_relaxed);
  stats.updates_coalesced = updates_coalesced_.load(std::memory_order_relaxed);
  stats.delta_refreshes = delta_refreshes_.load(std::memory_order_relaxed);
  stats.full_rebuilds = full_rebuilds_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> gc_lock(gc_->mu);
    stats.versions_retired = gc_->versions_retired;
    stats.versions_collected = gc_->versions_collected;
    for (const auto& [name, chain] : gc_->chains) {
      stats.versions_retained += chain.size();
    }
    stats.pinned_snapshots = gc_->pins.size();
  }
  stats.structural_epoch = structural_epoch_.load(std::memory_order_acquire);
  stats.live_measure_chunks = mvcc::MeasureChunk::LiveCount();
  return stats;
}

StatusOr<std::string> Database::Explain(const std::string& view_name,
                                        const MpfQuerySpec& query,
                                        const std::string& optimizer_spec) {
  SnapshotPtr snap = snapshot();
  MPFDB_ASSIGN_OR_RETURN(const MpfViewDef* view, FindView(*snap, view_name));
  MPFDB_ASSIGN_OR_RETURN(BoundPlan plan, Plan(*snap, *view, snap->catalog,
                                               query, optimizer_spec));
  // The logical plan (the optimizer's output) followed by the physical plan
  // (each node's algorithm and the fused index scans).
  return ExplainHeader(plan, query, *view) + ExplainPlan(*plan.logical) +
         "-- physical plan:\n" +
         ExplainPhysicalPlan(*PlanPhysicalTree(*plan.logical, snap->catalog));
}

StatusOr<std::string> Database::ExplainAnalyze(
    const std::string& view_name, const MpfQuerySpec& query,
    const std::string& optimizer_spec) {
  SnapshotPtr snap = snapshot();
  MPFDB_ASSIGN_OR_RETURN(const MpfViewDef* view, FindView(*snap, view_name));
  MPFDB_ASSIGN_OR_RETURN(BoundPlan plan, Plan(*snap, *view, snap->catalog,
                                               query, optimizer_spec));
  std::map<const PlanNode*, OperatorStats> stats;
  MPFDB_RETURN_IF_ERROR(Execute(*plan.logical, snap->catalog, view->semiring,
                                view_name + "_result", nullptr, &stats)
                            .status());
  return ExplainHeader(plan, query, *view) +
         exec::ExplainAnalyzePlan(
             *PlanPhysicalTree(*plan.logical, snap->catalog), stats);
}

Status Database::BuildCache(const std::string& view_name, QueryContext* ctx) {
  // Build against a snapshot so readers and writers keep running; publish
  // only if the state the build saw is still current, else retry fresh.
  for (int attempt = 0; attempt < 5; ++attempt) {
    SnapshotPtr snap = snapshot();
    auto view_it = snap->views.find(view_name);
    if (view_it == snap->views.end()) {
      return Status::NotFound("view '" + view_name + "' does not exist");
    }
    workload::VeCacheOptions cache_options;
    cache_options.context = ctx;
    MPFDB_ASSIGN_OR_RETURN(workload::VeCache cache,
                           workload::VeCache::Build(view_it->second,
                                                    snap->catalog,
                                                    cache_options));
    std::unique_lock<std::shared_mutex> lock(state_mu_);
    if (epoch_.load(std::memory_order_relaxed) != snap->epoch) continue;
    caches_[view_name] = CacheEntry{
        std::make_shared<const workload::VeCache>(std::move(cache)),
        snap->epoch};
    return Status::Ok();
  }
  return Status::Internal("BuildCache('" + view_name +
                          "') kept racing concurrent updates; retry later");
}

bool Database::HasCache(const std::string& view_name) const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  return caches_.count(view_name) > 0;
}

StatusOr<TablePtr> Database::QueryCached(const std::string& view_name,
                                         const MpfQuerySpec& query,
                                         QueryContext* ctx) const {
  std::shared_ptr<const workload::VeCache> cache;
  {
    std::shared_lock<std::shared_mutex> lock(state_mu_);
    auto it = caches_.find(view_name);
    if (it == caches_.end()) {
      return Status::FailedPrecondition("no cache built for view '" +
                                        view_name + "'; call BuildCache first");
    }
    cache = it->second.cache;
  }
  // Answer off the pinned shared cache: a concurrent ApplyMeasureUpdate
  // publishes a fresh clone rather than mutating this one.
  return cache->Answer(query, ctx);
}

}  // namespace mpfdb
