#include "opt/joinplan.h"

#include <algorithm>
#include <optional>

namespace mpfdb::opt {
namespace {

// A DP entry, or one operand of a join candidate: the entry at `mask`,
// under the pushdown GroupBy onto its safe variables when `grouped`. Entries
// hold estimates only — bit for bit the est_card/est_cost PlanBuilder gives
// the node — so the thousands of candidates the search compares are never
// built; Build makes the winning tree. DP inputs carry their plans.
struct Node {
  uint64_t mask = 0;
  bool grouped = false;
  uint64_t covered = 0;
  VarSet vars;
  double card = 0, cost = 0;
  PlanPtr plan;
  uint64_t left = 0, right = 0;  // a join's operand masks
  bool group_left = false, group_right = false;
};

// The exhaustive dynamic-programming join search over subsets of factors.
struct JoinDp {
  const QueryContext& ctx;
  const JoinPlanOptions& opts;
  uint64_t full;
  std::vector<Node> dp;  // dp[mask]; mask == 0 marks an empty entry

  // Candidates for the full set are compared including the root
  // marginalization they will receive (see JoinPlanOptions).
  double EffectiveCost(const Node& n, uint64_t mask) const {
    if (!opts.charge_root_groupby || mask != full) return n.cost;
    return n.cost + ctx.builder.cost_model().GroupByCost(n.card);
  }

  StatusOr<PlanPtr> Build(uint64_t mask, bool grouped) {
    Node& e = dp[mask];
    if (e.plan == nullptr) {
      MPFDB_ASSIGN_OR_RETURN(PlanPtr l, Build(e.left, e.group_left));
      MPFDB_ASSIGN_OR_RETURN(PlanPtr r, Build(e.right, e.group_right));
      MPFDB_ASSIGN_OR_RETURN(e.plan, ctx.builder.Join(l, r));
    }
    if (!grouped) return e.plan;
    return ctx.builder.GroupBy(
        e.plan, ctx.Names(e.plan->output_vars,
                          SafeRetainVars(ctx, e.covered, e.vars)));
  }

  // PlanBuilder::GroupBy's estimates for the pushdown of entry `mask`, or
  // nothing when its safe set drops no variable.
  StatusOr<std::optional<Node>> Grouped(uint64_t mask) {
    const Node& e = dp[mask];
    Node g{mask, true, e.covered, SafeRetainVars(ctx, e.covered, e.vars)};
    if (g.vars == e.vars) return std::optional<Node>();
    if (auto domain = ctx.ExactDomainProduct(g.vars)) {
      g.card = std::max(1.0, std::min(e.card, *domain));
    } else {  // order-sensitive product: PlanBuilder multiplies in list order
      MPFDB_ASSIGN_OR_RETURN(PlanPtr plan, Build(mask, true));
      g.card = plan->est_card;
    }
    g.cost = e.cost + ctx.builder.cost_model().GroupByCost(e.card);
    return std::optional<Node>(std::move(g));
  }

  // PlanBuilder::Join's estimates for joining two operands.
  StatusOr<Node> Join(const Node& l, const Node& r) {
    Node j{0, false, l.covered | r.covered, l.vars | r.vars};
    j.left = l.mask, j.right = r.mask;
    j.group_left = l.grouped, j.group_right = r.grouped;
    j.cost =
        l.cost + r.cost + ctx.builder.cost_model().JoinCost(l.card, r.card);
    std::optional<double> shared = ctx.ExactDomainProduct(l.vars & r.vars);
    std::optional<double> out = ctx.ExactDomainProduct(j.vars);
    if (shared && out) {
      j.card = std::max(1.0, std::min(l.card * r.card / *shared, *out));
      return j;
    }
    // Order-sensitive products: PlanBuilder multiplies in list order.
    MPFDB_ASSIGN_OR_RETURN(PlanPtr lp, Build(l.mask, l.grouped));
    MPFDB_ASSIGN_OR_RETURN(PlanPtr rp, Build(r.mask, r.grouped));
    MPFDB_ASSIGN_OR_RETURN(PlanPtr plan, ctx.builder.Join(lp, rp));
    j.card = plan->est_card;
    return j;
  }

  // Keeps in dp[mask] the cheapest of the (up to four) join candidates of
  // the split (s1, s2) — with the greedy-conservative GroupBy pushdown when
  // enabled — if it beats the incumbent. Ties keep the earlier candidate.
  Status TryPair(uint64_t mask, uint64_t s1, uint64_t s2,
                 bool require_connection) {
    if (dp[s1].mask == 0 || dp[s2].mask == 0) return Status::Ok();
    if (require_connection && !dp[s1].vars.Intersects(dp[s2].vars)) {
      return Status::Ok();
    }
    std::pair<const Node*, const Node*> pairs[4] = {{&dp[s1], &dp[s2]}};
    int count = 1;
    std::optional<Node> left_gb, right_gb;
    if (opts.groupby_pushdown) {
      MPFDB_ASSIGN_OR_RETURN(left_gb, Grouped(s1));
      MPFDB_ASSIGN_OR_RETURN(right_gb, Grouped(s2));
      if (left_gb) pairs[count++] = {&*left_gb, &dp[s2]};
      if (right_gb) pairs[count++] = {&dp[s1], &*right_gb};
      if (left_gb && right_gb) pairs[count++] = {&*left_gb, &*right_gb};
    }
    for (int i = 0; i < count; ++i) {
      MPFDB_ASSIGN_OR_RETURN(Node candidate,
                             Join(*pairs[i].first, *pairs[i].second));
      if (dp[mask].mask == 0 ||
          EffectiveCost(candidate, mask) < EffectiveCost(dp[mask], mask)) {
        candidate.mask = mask;
        dp[mask] = std::move(candidate);
      }
    }
    return Status::Ok();
  }

  StatusOr<PlanPtr> Run(size_t n) {
    // Process masks in increasing popcount via plain increasing order:
    // every proper submask of m is < m.
    for (uint64_t mask = 1; mask <= full; ++mask) {
      if (__builtin_popcountll(mask) < 2) continue;
      // Two passes: first connected decompositions only, then (if none
      // produced a plan) cross products.
      for (int pass = 0; pass < 2; ++pass) {
        if (pass == 1 && (dp[mask].mask != 0 || !opts.avoid_cross_products)) {
          break;
        }
        const bool require_connection = opts.avoid_cross_products && pass == 0;
        if (opts.bushy) {
          // All partitions (s1, s2); anchor the lowest bit in s1 to halve
          // work.
          const uint64_t low = mask & (~mask + 1);
          for (uint64_t s1 = mask; s1 != 0; s1 = (s1 - 1) & mask) {
            if (!(s1 & low) || s1 == mask) continue;
            MPFDB_RETURN_IF_ERROR(
                TryPair(mask, s1, mask ^ s1, require_connection));
          }
        } else {
          // Left-linear: peel off one factor at a time.
          for (size_t j = 0; j < n; ++j) {
            const uint64_t bit = uint64_t{1} << j;
            if (!(mask & bit)) continue;
            MPFDB_RETURN_IF_ERROR(
                TryPair(mask, mask ^ bit, bit, require_connection));
          }
        }
        if (!opts.avoid_cross_products) break;
      }
    }
    if (dp[full].mask == 0) {
      return Status::Internal("join planning produced no plan for full set");
    }
    return Build(full, false);
  }
};

}  // namespace

StatusOr<PlanPtr> BestJoinPlan(const QueryContext& ctx,
                               const std::vector<Factor>& factors,
                               const JoinPlanOptions& opts) {
  const size_t n = factors.size();
  if (n == 0) return Status::InvalidArgument("no factors to join");
  if (n == 1) return factors[0].plan;
  if (opts.bushy && n > 16) {
    return Status::InvalidArgument("bushy join planning limited to 16 factors");
  }
  if (n > 20) {
    return Status::InvalidArgument("join planning limited to 20 factors");
  }
  JoinDp dp{ctx, opts, (uint64_t{1} << n) - 1, {}};
  dp.dp.resize(dp.full + 1);
  for (size_t i = 0; i < n; ++i) {
    const Factor& f = factors[i];
    dp.dp[uint64_t{1} << i] = Node{uint64_t{1} << i, false, f.covered, f.vars,
                                   f.plan->est_card, f.plan->est_cost, f.plan};
  }
  return dp.Run(n);
}

StatusOr<PlanPtr> FixedOrderJoinPlan(const QueryContext& ctx,
                                     std::vector<Factor> factors) {
  if (factors.empty()) return Status::InvalidArgument("no factors to join");
  std::stable_sort(factors.begin(), factors.end(),
                   [](const Factor& a, const Factor& b) {
                     return a.plan->est_card < b.plan->est_card;
                   });
  PlanPtr plan = factors[0].plan;
  for (size_t i = 1; i < factors.size(); ++i) {
    MPFDB_ASSIGN_OR_RETURN(plan, ctx.builder.Join(plan, factors[i].plan));
  }
  return plan;
}

}  // namespace mpfdb::opt
