#include "exec/gibbs.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

namespace mpfdb::exec {

namespace {

// Converts a factor's additive potential total into a sampling weight:
// exp-normalization against the per-candidate best keeps the weights finite
// (the normalizer cancels in the categorical draw).
double AdditiveWeight(SemiringKind kind, double total, double best) {
  if (kind == SemiringKind::kMinSum) return std::exp(best - total);
  return std::exp(total - best);
}

}  // namespace

StatusOr<std::unique_ptr<GibbsEstimator>> GibbsEstimator::Create(
    const MpfViewDef& view, const MpfQuerySpec& query, const Catalog& catalog,
    const GibbsOptions& options, QueryContext* ctx) {
  if (options.sweeps_per_round == 0) {
    return Status::InvalidArgument("gibbs: sweeps_per_round must be > 0");
  }
  MPFDB_ASSIGN_OR_RETURN(std::vector<std::string> all_vars,
                         view.AllVariables(catalog));
  std::unique_ptr<GibbsEstimator> g(
      new GibbsEstimator(view.semiring, options, ctx));
  g->guard_.Bind(ctx);
  g->var_names_ = all_vars;
  std::map<std::string, size_t> var_index;
  for (size_t i = 0; i < all_vars.size(); ++i) {
    var_index[all_vars[i]] = i;
    MPFDB_ASSIGN_OR_RETURN(int64_t domain, catalog.DomainSize(all_vars[i]));
    g->domains_.push_back(domain);
  }
  g->fixed_.assign(all_vars.size(), false);
  g->state_.assign(all_vars.size(), 0);
  for (const auto& sel : query.selections) {
    auto it = var_index.find(sel.var);
    if (it == var_index.end()) {
      return Status::InvalidArgument("gibbs: selection variable '" + sel.var +
                                     "' not in view");
    }
    if (sel.value < 0 || sel.value >= g->domains_[it->second]) {
      return Status::InvalidArgument(
          "gibbs: selection value out of domain for '" + sel.var + "'");
    }
    g->fixed_[it->second] = true;
    g->state_[it->second] = sel.value;
  }
  for (const auto& gv : query.group_vars) {
    auto it = var_index.find(gv);
    if (it == var_index.end()) {
      return Status::InvalidArgument("gibbs: group variable '" + gv +
                                     "' not in view");
    }
    g->group_idx_.push_back(it->second);
  }

  const bool needs_nonneg =
      view.semiring.kind() == SemiringKind::kSumProduct ||
      view.semiring.kind() == SemiringKind::kMaxProduct ||
      view.semiring.kind() == SemiringKind::kBoolOrAnd;
  g->factors_of_var_.assign(all_vars.size(), {});
  for (const auto& rel : view.relations) {
    MPFDB_ASSIGN_OR_RETURN(TablePtr table, catalog.GetTable(rel));
    FactorTable f;
    uint64_t stride = 1;
    for (const auto& v : table->schema().variables()) {
      size_t idx = var_index.at(v);
      f.var_idx.push_back(idx);
      f.stride.push_back(stride);
      uint64_t domain = static_cast<uint64_t>(g->domains_[idx]);
      if (domain == 0 ||
          stride > std::numeric_limits<uint64_t>::max() / domain) {
        return Status::Unimplemented(
            "gibbs: factor '" + rel + "' domain product overflows packed keys");
      }
      stride *= domain;
    }
    MPFDB_RETURN_IF_ERROR(g->guard_.Charge(
        table->NumRows() * (sizeof(uint64_t) + sizeof(double)) * 2,
        "GibbsEstimator"));
    f.rows.reserve(table->NumRows() * 2);
    for (size_t i = 0; i < table->NumRows(); ++i) {
      RowView row = table->Row(i);
      if (needs_nonneg && row.measure < 0) {
        return Status::FailedPrecondition(
            "gibbs sampling under " + view.semiring.name() +
            " requires non-negative measures; table '" + rel +
            "' has a negative measure");
      }
      uint64_t key = 0;
      for (size_t c = 0; c < row.arity; ++c) {
        key += static_cast<uint64_t>(row.var(c)) * f.stride[c];
      }
      f.rows[key] = row.measure;
    }
    size_t fi = g->factors_.size();
    for (size_t idx : f.var_idx) g->factors_of_var_[idx].push_back(fi);
    g->factors_.push_back(std::move(f));
  }

  // Deterministic initial assignment: walk the factors in view order and,
  // per factor, adopt the first stored row consistent with everything
  // already pinned (selections first, earlier factors after). Variables no
  // factor could seed stay at 0. The chain repairs any remaining
  // inconsistency during burn-in.
  std::vector<bool> assigned = g->fixed_;
  for (const auto& rel : view.relations) {
    MPFDB_ASSIGN_OR_RETURN(TablePtr table, catalog.GetTable(rel));
    const auto& vars = table->schema().variables();
    std::vector<size_t> idx;
    for (const auto& v : vars) idx.push_back(var_index.at(v));
    for (size_t i = 0; i < table->NumRows(); ++i) {
      RowView row = table->Row(i);
      bool consistent = true;
      for (size_t c = 0; c < row.arity; ++c) {
        if (assigned[idx[c]] && g->state_[idx[c]] != row.var(c)) {
          consistent = false;
          break;
        }
      }
      if (!consistent) continue;
      for (size_t c = 0; c < row.arity; ++c) {
        g->state_[idx[c]] = row.var(c);
        assigned[idx[c]] = true;
      }
      break;
    }
  }
  if (!g->domains_.empty()) {
    g->weight_scratch_.reserve(static_cast<size_t>(
        *std::max_element(g->domains_.begin(), g->domains_.end())));
  }
  return g;
}

bool GibbsEstimator::FactorMeasureAt(const FactorTable& f, size_t var,
                                     VarValue value, double* measure) const {
  uint64_t key = 0;
  for (size_t c = 0; c < f.var_idx.size(); ++c) {
    VarValue v = f.var_idx[c] == var ? value : state_[f.var_idx[c]];
    key += static_cast<uint64_t>(v) * f.stride[c];
  }
  auto it = f.rows.find(key);
  if (it == f.rows.end()) return false;
  *measure = it->second;
  return true;
}

void GibbsEstimator::ResampleVariable(size_t var) {
  const auto& touching = factors_of_var_[var];
  const size_t domain = static_cast<size_t>(domains_[var]);
  std::vector<double>& w = weight_scratch_;
  w.assign(domain, 0.0);
  const SemiringKind kind = semiring_.kind();
  const bool multiplicative = kind == SemiringKind::kSumProduct ||
                              kind == SemiringKind::kMaxProduct ||
                              kind == SemiringKind::kBoolOrAnd;
  if (multiplicative) {
    for (size_t v = 0; v < domain; ++v) {
      double prod = 1.0;
      bool ok = true;
      for (size_t fi : touching) {
        double m;
        if (!FactorMeasureAt(factors_[fi], var, static_cast<VarValue>(v), &m)) {
          ok = false;
          break;
        }
        prod *= m;
      }
      w[v] = ok ? prod : 0.0;
    }
  } else {
    // Additive potentials (min_sum / max_sum / log_sum_product): collect the
    // per-candidate totals, then exp-normalize against the best so the
    // categorical weights stay finite.
    std::vector<double> total(domain, 0.0);
    std::vector<bool> valid(domain, false);
    double best = 0.0;
    bool have_best = false;
    for (size_t v = 0; v < domain; ++v) {
      double sum = 0.0;
      bool ok = true;
      for (size_t fi : touching) {
        double m;
        if (!FactorMeasureAt(factors_[fi], var, static_cast<VarValue>(v), &m)) {
          ok = false;
          break;
        }
        sum += m;
      }
      if (!ok) continue;
      total[v] = sum;
      valid[v] = true;
      bool better = kind == SemiringKind::kMinSum ? (!have_best || sum < best)
                                                  : (!have_best || sum > best);
      if (better) {
        best = sum;
        have_best = true;
      }
    }
    if (!have_best) return;  // no candidate has support; keep current value
    for (size_t v = 0; v < domain; ++v) {
      if (valid[v]) w[v] = AdditiveWeight(kind, total[v], best);
    }
  }
  size_t pick = rng_.Categorical(w);
  if (pick < domain) state_[var] = static_cast<VarValue>(pick);
}

bool GibbsEstimator::StateScore(double* score) const {
  double acc = semiring_.MultiplyIdentity();
  for (const auto& f : factors_) {
    uint64_t key = 0;
    for (size_t c = 0; c < f.var_idx.size(); ++c) {
      key += static_cast<uint64_t>(state_[f.var_idx[c]]) * f.stride[c];
    }
    auto it = f.rows.find(key);
    if (it == f.rows.end()) return false;
    acc = semiring_.Multiply(acc, it->second);
    if (semiring_.kind() == SemiringKind::kBoolOrAnd && acc == 0.0) {
      return false;  // an explicit false row: state outside the support
    }
  }
  *score = acc;
  return true;
}

void GibbsEstimator::RecordState() {
  std::vector<VarValue> group;
  group.reserve(group_idx_.size());
  for (size_t idx : group_idx_) group.push_back(state_[idx]);
  ++visits_[group];
  ++samples_;
  double score;
  if (StateScore(&score)) {
    // Under the sum kinds Add is not idempotent, so folding a revisited
    // assignment would double-count its term and push the incumbent past
    // the exact total — no longer a bound. Fold each distinct assignment
    // once; when the dedup set hits the memory budget the incumbent simply
    // stops tightening (it stays a valid bound).
    const bool idempotent_add =
        semiring_.kind() != SemiringKind::kSumProduct &&
        semiring_.kind() != SemiringKind::kLogSumProduct;
    if (!idempotent_add) {
      if (seen_states_saturated_) return;
      auto [state_it, fresh] = seen_states_.insert(state_);
      if (!fresh) return;
      if (!guard_
               .Charge(state_.size() * sizeof(VarValue) + 48,
                       "GibbsEstimator")
               .ok()) {
        seen_states_.erase(state_it);
        seen_states_saturated_ = true;
        return;
      }
    }
    auto it = incumbent_.find(group);
    if (it == incumbent_.end()) {
      incumbent_.emplace(std::move(group), score);
    } else {
      it->second = semiring_.Add(it->second, score);
    }
  }
}

Status GibbsEstimator::RunRound() {
  size_t free_vars = 0;
  for (bool f : fixed_) free_vars += f ? 0 : 1;
  if (ctx_ != nullptr) {
    // Rounds are the anytime granularity, so force a real clock check at
    // every round boundary: on small models the per-sweep polls below may
    // never accumulate enough row-units to observe the deadline at all.
    MPFDB_RETURN_IF_ERROR(ctx_->Poll(QueryContext::kPollIntervalRows));
  }
  for (size_t sweep = 0; sweep < options_.sweeps_per_round; ++sweep) {
    if (ctx_ != nullptr) {
      MPFDB_RETURN_IF_ERROR(ctx_->Poll(std::max<size_t>(free_vars, 1)));
    }
    for (size_t var = 0; var < state_.size(); ++var) {
      if (!fixed_[var]) ResampleVariable(var);
    }
    ++total_sweeps_;
    if (total_sweeps_ > options_.burn_in_sweeps) RecordState();
  }
  // Publish: the estimate moves only here, so a failed round can never tear
  // what callers read.
  std::map<std::vector<VarValue>, double> fresh = ComputeEstimate();
  double delta = 0;
  for (const auto& [group, value] : fresh) {
    auto it = published_estimate_.find(group);
    double prev = it == published_estimate_.end()
                      ? semiring_.AddIdentity()
                      : it->second;
    double d = std::abs(value - prev);
    if (std::isnan(d) || std::isinf(d)) d = std::numeric_limits<double>::max();
    delta = std::max(delta, d);
  }
  last_delta_ = delta;
  published_estimate_ = std::move(fresh);
  published_incumbent_ = incumbent_;
  ++rounds_;
  return Status::Ok();
}

std::map<std::vector<VarValue>, double> GibbsEstimator::ComputeEstimate()
    const {
  std::map<std::vector<VarValue>, double> out;
  switch (semiring_.kind()) {
    case SemiringKind::kSumProduct:
    case SemiringKind::kLogSumProduct: {
      if (samples_ == 0) return out;
      double total = static_cast<double>(samples_);
      for (const auto& [group, count] : visits_) {
        double freq = static_cast<double>(count) / total;
        out[group] = semiring_.kind() == SemiringKind::kLogSumProduct
                         ? std::log(freq)
                         : freq;
      }
      return out;
    }
    case SemiringKind::kMinSum:
    case SemiringKind::kMaxSum:
    case SemiringKind::kMaxProduct:
    case SemiringKind::kBoolOrAnd:
      return incumbent_;
  }
  return out;
}

TablePtr GibbsEstimator::RenderTable(
    const std::string& name,
    const std::map<std::vector<VarValue>, double>& groups) const {
  std::vector<std::string> vars;
  for (size_t idx : group_idx_) vars.push_back(var_names_[idx]);
  auto table = std::make_shared<Table>(name, Schema(std::move(vars), "f"));
  for (const auto& [group, value] : groups) table->AppendRow(group, value);
  return table;
}

TablePtr GibbsEstimator::EstimateTable(const std::string& name) const {
  return RenderTable(name, published_estimate_);
}

TablePtr GibbsEstimator::IncumbentTable(const std::string& name) const {
  return RenderTable(name, published_incumbent_);
}

bool GibbsEstimator::IncumbentIsLowerBound() const {
  // Add-folding visited assignments tightens toward the exact answer from
  // below for every kind except kMinSum: a subset of assignments can only
  // under-shoot a sum/max/or, and over-shoot a min.
  return semiring_.kind() != SemiringKind::kMinSum;
}

}  // namespace mpfdb::exec
