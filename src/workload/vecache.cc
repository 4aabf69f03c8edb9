#include "workload/vecache.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>

#include "exec/table_ops.h"
#include "fr/algebra.h"

namespace mpfdb::workload {
namespace {

// Polls a read's context, if it has one, after a step over `rows` rows.
Status PollStep(QueryContext* ctx, size_t rows) {
  return ctx == nullptr ? Status::Ok() : ctx->Poll(rows);
}

// Bitwise double equality: the change-pruning predicate. Conservative in the
// right direction (distinguishes -0.0 from 0.0 and NaN payloads), so a row
// is only ever pruned when a rebuild would reproduce its bits exactly.
bool BitsEq(double a, double b) {
  uint64_t x, y;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

// group_of (row -> group, kSkip entries dropped) -> group -> rows CSR with
// members in ascending row order (= the Marginalize fold order).
DeltaCsr MakeCsr(size_t num_groups, const std::vector<uint32_t>& group_of,
                 uint32_t skip = 0xffffffffu) {
  DeltaCsr csr;
  csr.offsets.assign(num_groups + 1, 0);
  for (uint32_t g : group_of) {
    if (g != skip) ++csr.offsets[g + 1];
  }
  for (size_t g = 1; g <= num_groups; ++g) csr.offsets[g] += csr.offsets[g - 1];
  csr.members.resize(csr.offsets[num_groups]);
  std::vector<uint32_t> cursor(csr.offsets.begin(), csr.offsets.end() - 1);
  for (uint32_t r = 0; r < group_of.size(); ++r) {
    if (group_of[r] != skip) csr.members[cursor[group_of[r]]++] = r;
  }
  return csr;
}

void SortUnique(std::vector<uint32_t>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

// A factor during the no-query-variable VE pass: the current table plus the
// cache it was reduced from (-1 for base relations) and, for base relations,
// the index of the base table it is (-1 otherwise).
struct CacheFactor {
  TablePtr table;
  int cache_origin;
  int base_index;
};

StatusOr<double> DomainProduct(const Catalog& catalog,
                               const std::vector<std::string>& vars) {
  double product = 1.0;
  for (const auto& v : vars) {
    MPFDB_ASSIGN_OR_RETURN(int64_t size, catalog.DomainSize(v));
    product *= static_cast<double>(size);
  }
  return product;
}

}  // namespace

StatusOr<VeCache> VeCache::Build(const MpfViewDef& view, const Catalog& catalog,
                                 const VeCacheOptions& options) {
  if (view.relations.empty()) {
    return Status::InvalidArgument("view has no relations");
  }
  if (!view.semiring.HasDivision()) {
    return Status::FailedPrecondition(
        "VE-cache requires a semiring with division (backward pass uses the "
        "update semijoin)");
  }
  VeCache cache(view.semiring);
  QueryContext* ctx = options.context;
  MemoryGuard memory(ctx);

  std::vector<CacheFactor> factors;
  std::vector<std::string> all_vars;
  for (const auto& rel : view.relations) {
    MPFDB_ASSIGN_OR_RETURN(TablePtr table, catalog.GetTable(rel));
    factors.push_back(
        CacheFactor{table, -1, static_cast<int>(cache.base_tables_.size())});
    cache.base_tables_.push_back(table);
    all_vars = varset::Union(all_vars, table->schema().variables());
  }
  cache.base_to_cache_.assign(cache.base_tables_.size(), 0);

  // No-query-variable VE (Algorithm 3 line 1): every variable is eliminated.
  // Alongside the tables, the kernels report the row-level dataflow the
  // delta plan replays.
  std::vector<std::string> to_eliminate = all_vars;
  auto plan = std::make_shared<DeltaPlan>();
  while (!to_eliminate.empty()) {
    // Heuristic choice: degree (post-elimination domain product) or width
    // (pre-elimination domain product); the earliest candidate wins a tie.
    std::vector<std::vector<size_t>> cliques(to_eliminate.size());
    size_t pick = 0;
    double best_score = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < to_eliminate.size(); ++c) {
      std::vector<std::string> clique_vars;
      for (size_t f = 0; f < factors.size(); ++f) {
        if (factors[f].table->schema().HasVariable(to_eliminate[c])) {
          cliques[c].push_back(f);
          clique_vars = varset::Union(clique_vars,
                                      factors[f].table->schema().variables());
        }
      }
      if (cliques[c].empty()) continue;
      std::vector<std::string> scored_vars =
          options.use_width_heuristic
              ? clique_vars
              : varset::Difference(clique_vars, {to_eliminate[c]});
      MPFDB_ASSIGN_OR_RETURN(double score, DomainProduct(catalog, scored_vars));
      if (score < best_score) {
        best_score = score;
        pick = c;
      }
    }
    if (cliques[pick].empty()) {
      // Variable appears in no factor (empty base table edge case): drop it.
      to_eliminate.erase(to_eliminate.begin() + pick);
      continue;
    }
    const std::string var = to_eliminate[pick];
    cache.order_.push_back(var);

    // Record which earlier caches feed this one (Algorithm 3 line 4), which
    // base relations it absorbs, and the factor composition in fold order
    // (for exact-replay incremental maintenance).
    const std::vector<size_t>& clique = cliques[pick];
    const size_t cache_index = cache.caches_.size();
    DeltaCliquePlan& cp = plan->cliques.emplace_back();
    cp.alias = clique.size() == 1;
    for (size_t f : clique) {
      if (factors[f].cache_origin >= 0) {
        cache.edges_.emplace_back(
            static_cast<size_t>(factors[f].cache_origin), cache_index);
      }
      if (factors[f].base_index >= 0) {
        cache.base_to_cache_[static_cast<size_t>(factors[f].base_index)] =
            cache_index;
      }
      DeltaFactorSlot& slot = cp.slots.emplace_back();
      slot.is_base = factors[f].base_index >= 0;
      slot.index = static_cast<uint32_t>(
          slot.is_base ? factors[f].base_index : factors[f].cache_origin);
    }

    // Join the clique; the join result is cached (it precedes a GroupBy).
    // Each step's row maps extend every earlier factor's map to the new
    // joined rows.
    TablePtr joined = factors[clique[0]].table;
    for (size_t k = 1; k < clique.size(); ++k) {
      exec::JoinRows rows;
      MPFDB_ASSIGN_OR_RETURN(
          joined, exec::JoinTables(*joined, *factors[clique[k]].table,
                                   view.semiring, "tmp", /*divide=*/false,
                                   &rows));
      if (k == 1) {
        cp.slots[0].row_map = std::move(rows.left);
      } else {
        for (size_t m = 0; m < k; ++m) {
          std::vector<uint32_t>& map = cp.slots[m].row_map;
          std::vector<uint32_t> composed(rows.left.size());
          for (size_t o = 0; o < composed.size(); ++o) {
            composed[o] = map[rows.left[o]];
          }
          map = std::move(composed);
        }
      }
      cp.slots[k].row_map = std::move(rows.right);
    }
    if (ctx != nullptr) {
      MPFDB_RETURN_IF_ERROR(ctx->Poll(joined->NumRows()));
      MPFDB_RETURN_IF_ERROR(memory.Charge(
          joined->NumRows() * (joined->schema().arity() * sizeof(VarValue) +
                               sizeof(double)),
          "VeCache::Build"));
    }
    // A fresh multi-factor join is uniquely owned: seal its measures so the
    // retained joined table, the cache clone below, and every later delta
    // version share chunks. Single-factor cliques alias the factor table
    // (possibly a live catalog table), which must not be resealed here.
    if (clique.size() > 1) joined->SealChunked();
    TablePtr cached(joined->Clone("cache" + std::to_string(cache_index)));
    cache.caches_.push_back(cached);
    cache.joined_.push_back(joined);

    // Reduce: GroupBy on everything but `var`.
    std::vector<std::string> keep =
        varset::Difference(joined->schema().variables(), {var});
    MPFDB_ASSIGN_OR_RETURN(
        TablePtr reduced,
        exec::MarginalizeTable(*joined, keep, view.semiring,
                               "msg" + std::to_string(cache_index),
                               &cp.msg_group_of));
    reduced->SealChunked();
    cache.msgs_.push_back(reduced);

    // Replace the clique by the reduced factor.
    std::vector<CacheFactor> next;
    for (size_t f = 0; f < factors.size(); ++f) {
      if (std::find(clique.begin(), clique.end(), f) == clique.end()) {
        next.push_back(factors[f]);
      }
    }
    next.push_back(CacheFactor{reduced, static_cast<int>(cache_index), -1});
    factors = std::move(next);
    to_eliminate.erase(to_eliminate.begin() + pick);
  }

  // Backward pass (Algorithm 3 lines 3-7), BP's distribute pass: propagate
  // later caches' reductions into the caches that fed them. Edge (i, j)
  // refreshes cache i exactly once, while it still equals its clique join
  // t = joined_i. Every edge carries a message: cache i's message holds the
  // variable cache j eliminates.
  std::vector<exec::SemijoinRows> edge_rows;
  MPFDB_RETURN_IF_ERROR(DistributePass(&cache.caches_, cache.edges_,
                                       view.semiring, ctx, &edge_rows));
  plan->edges.resize(cache.edges_.size());
  for (size_t e = 0; e < cache.edges_.size(); ++e) {
    const auto& [i, j] = cache.edges_[e];
    exec::SemijoinRows& rows = edge_rows[e];
    DeltaEdgePlan& ep = plan->edges[e];
    ep.t_clique = static_cast<uint32_t>(i);
    ep.s_clique = static_cast<uint32_t>(j);
    ep.t_group_of = std::move(rows.t_group_of);
    ep.s_group_of = std::move(rows.s_group_of);
    ep.final_to_t = std::move(rows.out_to_t);
    ep.t_members = MakeCsr(rows.num_groups, ep.t_group_of);
    ep.s_members =
        MakeCsr(rows.num_groups, ep.s_group_of, DeltaEdgePlan::kNoGroup);
    std::vector<uint32_t> final_group_of(ep.final_to_t.size());
    for (size_t r = 0; r < final_group_of.size(); ++r) {
      final_group_of[r] = ep.t_group_of[ep.final_to_t[r]];
    }
    ep.group_final = MakeCsr(rows.num_groups, final_group_of);
  }
  MPFDB_ASSIGN_OR_RETURN(
      cache.components_,
      TotalComponents(cache.caches_, cache.edges_, view.semiring));
  // Seal every cache table: non-root caches are fresh UpdateSemijoin
  // results, root caches are the (already chunk-sharing) clique clones.
  // From here on all tables are immutable; updates mint new versions.
  for (TablePtr& t : cache.caches_) t->SealChunked();
  MPFDB_RETURN_IF_ERROR(cache.FinishDeltaPlan(std::move(plan)));
  cache.BuildBaseRowOrders();
  return cache;
}

Status VeCache::FinishDeltaPlan(std::shared_ptr<DeltaPlan> plan) {
  const size_t num_cliques = caches_.size();
  plan->base_absorbed.assign(base_tables_.size(), 0);
  plan->out_edge.assign(num_cliques, -1);
  for (size_t e = 0; e < edges_.size(); ++e) {
    const size_t i = edges_[e].first;
    if (plan->out_edge[i] != -1) {
      // Each message is consumed exactly once, so a cache feeds at most one
      // later clique; replay depends on this.
      return Status::Internal("cache " + std::to_string(i) +
                              " feeds multiple cliques");
    }
    plan->out_edge[i] = static_cast<int32_t>(e);
  }
  for (DeltaCliquePlan& cp : plan->cliques) {
    for (DeltaFactorSlot& slot : cp.slots) {
      if (slot.is_base) {
        plan->base_absorbed[slot.index] = 1;
      } else {
        plan->cliques[slot.index].msg_consumed = true;
      }
      if (cp.alias) continue;  // joined aliases the factor: identity map
      const Table& factor =
          slot.is_base ? *base_tables_[slot.index] : *msgs_[slot.index];
      slot.rev = MakeCsr(factor.NumRows(), slot.row_map);
    }
  }
  // Message fold maps, kept only for messages a later clique consumes.
  for (size_t i = 0; i < num_cliques; ++i) {
    DeltaCliquePlan& cp = plan->cliques[i];
    if (cp.msg_consumed) {
      cp.msg_members = MakeCsr(msgs_[i]->NumRows(), cp.msg_group_of);
    } else {
      cp.msg_group_of = {};
    }
  }
  for (size_t i = 0; i < num_cliques; ++i) {
    // emplace keeps the lowest i per component.
    plan->component_rep.emplace(components_.component[i], i);
  }
  delta_plan_ = std::move(plan);
  return Status::Ok();
}

void VeCache::BuildBaseRowOrders() {
  auto orders = std::make_shared<std::vector<std::vector<uint32_t>>>();
  orders->reserve(base_tables_.size());
  for (const TablePtr& base : base_tables_) {
    orders->push_back(exec::CanonicalRowOrder(*base));
  }
  base_row_orders_ = std::move(orders);
}

StatusOr<TablePtr> VeCache::Answer(const MpfQuerySpec& query,
                                   QueryContext* ctx) const {
  MPFDB_RETURN_IF_ERROR(PollStep(ctx, 0));
  const VeCache* source = this;
  VeCache restricted(semiring_);
  if (!query.selections.empty()) {
    MPFDB_ASSIGN_OR_RETURN(restricted,
                           WithSelection(query.selections[0].var,
                                         query.selections[0].value, ctx));
    for (size_t s = 1; s < query.selections.size(); ++s) {
      MPFDB_ASSIGN_OR_RETURN(
          restricted,
          restricted.WithSelection(query.selections[s].var,
                                   query.selections[s].value, ctx));
    }
    source = &restricted;
  }
  MPFDB_ASSIGN_OR_RETURN(TablePtr combined,
                         source->CombineForVars(query.group_vars, ctx));
  MPFDB_ASSIGN_OR_RETURN(
      TablePtr answer,
      exec::MarginalizeTable(*combined, query.group_vars, semiring_, "answer"));
  MPFDB_RETURN_IF_ERROR(PollStep(ctx, combined->NumRows()));
  if (query.having.has_value()) {
    return exec::FilterMeasureTable(*answer, *query.having, "answer");
  }
  return answer;
}

StatusOr<TablePtr> VeCache::CombineForVars(
    const std::vector<std::string>& needed_vars, QueryContext* ctx) const {
  // Pick, for each needed variable, the smallest cache containing it.
  std::vector<size_t> anchors;
  for (const auto& var : needed_vars) {
    size_t best = caches_.size();
    for (size_t i = 0; i < caches_.size(); ++i) {
      if (!caches_[i]->schema().HasVariable(var)) continue;
      if (best == caches_.size() ||
          caches_[i]->NumRows() < caches_[best]->NumRows()) {
        best = i;
      }
    }
    if (best == caches_.size()) {
      return Status::NotFound("no cached table contains variable '" + var +
                              "'");
    }
    if (std::find(anchors.begin(), anchors.end(), best) == anchors.end()) {
      anchors.push_back(best);
    }
  }
  // Adjacency of the cache tree.
  std::vector<std::vector<size_t>> adjacency(caches_.size());
  for (const auto& [i, j] : edges_) {
    adjacency[i].push_back(j);
    adjacency[j].push_back(i);
  }

  // One combined relation per component that holds anchors: join the minimal
  // subtree spanning the component's anchors, dividing out each tree edge's
  // separator marginal (valid because the tree is calibrated: a separator's
  // marginal is identical on both sides).
  std::vector<bool> anchor_done(caches_.size(), false);
  TablePtr result;
  std::set<size_t> covered_components;
  for (size_t a : anchors) {
    if (anchor_done[a]) continue;
    // Anchors in the same component as `a`.
    std::vector<size_t> same_component;
    for (size_t b : anchors) {
      if (components_.component[b] == components_.component[a]) {
        same_component.push_back(b);
        anchor_done[b] = true;
      }
    }
    covered_components.insert(components_.component[a]);
    // BFS from `a`; keep parent pointers to extract paths.
    std::vector<int> parent(caches_.size(), -1);
    parent[a] = static_cast<int>(a);
    std::vector<size_t> queue = {a};
    for (size_t qi = 0; qi < queue.size(); ++qi) {
      for (size_t nbr : adjacency[queue[qi]]) {
        if (parent[nbr] == -1) {
          parent[nbr] = static_cast<int>(queue[qi]);
          queue.push_back(nbr);
        }
      }
    }
    // The Steiner subtree: union of path nodes from each anchor to `a`.
    std::set<size_t> subtree = {a};
    for (size_t b : same_component) {
      for (size_t node = b; node != a;
           node = static_cast<size_t>(parent[node])) {
        subtree.insert(node);
      }
    }
    // Combine the subtree in BFS order: each node beyond the first joins as
    // (table ÷ its separator marginal with its subtree parent).
    TablePtr component_result = caches_[a];
    for (size_t node : queue) {
      if (node == a || subtree.count(node) == 0) continue;
      size_t up = static_cast<size_t>(parent[node]);
      std::vector<std::string> separator =
          varset::Intersect(caches_[node]->schema().variables(),
                            caches_[up]->schema().variables());
      TablePtr attachment = caches_[node];
      if (!separator.empty()) {
        MPFDB_ASSIGN_OR_RETURN(TablePtr sep_marginal,
                               exec::MarginalizeTable(*caches_[node], separator,
                                                      semiring_, "sep"));
        MPFDB_ASSIGN_OR_RETURN(
            attachment, exec::JoinTables(*caches_[node], *sep_marginal,
                                         semiring_, "att", /*divide=*/true));
        MPFDB_RETURN_IF_ERROR(PollStep(ctx, 2 * caches_[node]->NumRows()));
      }
      MPFDB_ASSIGN_OR_RETURN(
          component_result,
          exec::JoinTables(*component_result, *attachment, semiring_,
                           "combined", /*divide=*/false));
      MPFDB_RETURN_IF_ERROR(PollStep(ctx, component_result->NumRows()));
    }
    if (result == nullptr) {
      result = component_result;
    } else {
      // Var-disjoint components: cross product.
      MPFDB_ASSIGN_OR_RETURN(
          result, exec::JoinTables(*result, *component_result, semiring_,
                                   "combined", /*divide=*/false));
      MPFDB_RETURN_IF_ERROR(PollStep(ctx, result->NumRows()));
    }
  }
  if (result == nullptr) {
    return Status::InvalidArgument("no variables requested");
  }
  // Totals of components not represented at all; an empty one empties the
  // answer.
  return ScaleTable(
      result, components_.OthersProduct(covered_components, semiring_),
      semiring_);
}

StatusOr<VeCache> VeCache::WithSelection(const std::string& var,
                                         VarValue value,
                                         QueryContext* ctx) const {
  // Locate a cache containing the variable.
  size_t start = caches_.size();
  for (size_t i = 0; i < caches_.size(); ++i) {
    if (caches_[i]->schema().HasVariable(var)) {
      start = i;
      break;
    }
  }
  if (start == caches_.size()) {
    return Status::NotFound("no cached table contains variable '" + var + "'");
  }
  VeCache updated(semiring_);
  updated.edges_ = edges_;
  updated.order_ = order_;
  updated.base_tables_ = base_tables_;
  updated.base_to_cache_ = base_to_cache_;
  updated.base_row_orders_ = base_row_orders_;
  // Cached tables are immutable (Select and the distribute pass below mint
  // new tables), so the restricted cache shares them rather than cloning.
  // The restriction changes cache structure, so it retains no delta plan:
  // measure updates on a restricted cache report FailedPrecondition.
  updated.caches_ = caches_;
  // Apply the selection (protocol step 1), then propagate (step 2).
  MPFDB_ASSIGN_OR_RETURN(
      updated.caches_[start],
      fr::Select(*updated.caches_[start], var, value,
                 updated.caches_[start]->name()));
  MPFDB_RETURN_IF_ERROR(PollStep(ctx, caches_[start]->NumRows()));
  MPFDB_RETURN_IF_ERROR(updated.DistributeFrom(start, ctx));
  return updated;
}

Status VeCache::DistributeFrom(size_t start, QueryContext* ctx) {
  // BFS outward over the cache tree, reducing each table with respect to its
  // already-updated neighbor (a BP semijoin program over the acyclic cache
  // schema — Theorems 5 and 10).
  std::vector<std::vector<size_t>> adjacency(caches_.size());
  for (const auto& [i, j] : edges_) {
    adjacency[i].push_back(j);
    adjacency[j].push_back(i);
  }
  std::vector<bool> visited(caches_.size(), false);
  visited[start] = true;
  std::vector<size_t> queue = {start};
  for (size_t qi = 0; qi < queue.size(); ++qi) {
    size_t u = queue[qi];
    for (size_t w : adjacency[u]) {
      if (visited[w]) continue;
      visited[w] = true;
      if (!varset::Intersect(caches_[w]->schema().variables(),
                             caches_[u]->schema().variables())
               .empty()) {
        MPFDB_ASSIGN_OR_RETURN(
            caches_[w], fr::UpdateSemijoin(*caches_[w], *caches_[u], semiring_,
                                           caches_[w]->name()));
        MPFDB_RETURN_IF_ERROR(
            PollStep(ctx, caches_[w]->NumRows() + caches_[u]->NumRows()));
      }
      queue.push_back(w);
    }
  }
  MPFDB_ASSIGN_OR_RETURN(components_,
                         TotalComponents(caches_, edges_, semiring_, ctx));
  return Status::Ok();
}

StatusOr<size_t> VeCache::BaseIndexOf(const std::string& table_name) const {
  for (size_t b = 0; b < base_tables_.size(); ++b) {
    if (base_tables_[b]->name() == table_name) return b;
  }
  return Status::NotFound("'" + table_name + "' is not a base table of this "
                          "cache's view");
}

StatusOr<size_t> VeCache::LocateBaseRow(
    size_t base_index, const std::vector<VarValue>& row_vars) const {
  if (base_index >= base_tables_.size()) {
    return Status::InvalidArgument(
        "base index " + std::to_string(base_index) + " out of range (" +
        std::to_string(base_tables_.size()) + " base tables)");
  }
  const Table& base = *base_tables_[base_index];
  if (row_vars.size() != base.schema().arity()) {
    return Status::InvalidArgument(
        "row must provide all " + std::to_string(base.schema().arity()) +
        " variable values of " + base.name());
  }
  // Binary search over the rows in canonical order; among equal rows the
  // order keeps the lowest row index first.
  const std::vector<uint32_t>& order = (*base_row_orders_)[base_index];
  auto it = std::lower_bound(
      order.begin(), order.end(), row_vars,
      [&](uint32_t r, const std::vector<VarValue>& key) {
        RowView row = base.Row(r);
        return std::lexicographical_compare(row.vars, row.vars + row.arity,
                                            key.begin(), key.end());
      });
  if (it != order.end()) {
    RowView row = base.Row(*it);
    if (std::equal(row.vars, row.vars + row.arity, row_vars.begin())) {
      return static_cast<size_t>(*it);
    }
  }
  return Status::NotFound("no row of " + base.name() +
                          " matches the given variable values");
}

Status VeCache::ApplyBaseMeasureUpdate(const std::string& table_name,
                                       const std::vector<VarValue>& row_vars,
                                       double new_measure) {
  MPFDB_ASSIGN_OR_RETURN(size_t base_index, BaseIndexOf(table_name));
  MPFDB_ASSIGN_OR_RETURN(size_t row_index,
                         LocateBaseRow(base_index, row_vars));
  if (base_tables_[base_index]->measure(row_index) == new_measure) {
    return Status::Ok();
  }
  VeCacheDeltaOp op;
  op.table = table_name;
  op.rows.emplace_back(row_index, new_measure);
  MPFDB_ASSIGN_OR_RETURN(VeCache next, WithMeasureDelta({op}));
  *this = std::move(next);
  return Status::Ok();
}

StatusOr<VeCache> VeCache::WithMeasureDelta(
    const std::vector<VeCacheDeltaOp>& ops) const {
  if (delta_plan_ == nullptr) {
    return Status::FailedPrecondition(
        "cache retains no delta plan; rebuild required");
  }
  const DeltaPlan& plan = *delta_plan_;
  const size_t num_cliques = caches_.size();

  // Stage the base-table changes: validate, drop bitwise no-ops, last write
  // wins per row, and adopt (or mint) the new base-table versions.
  std::vector<std::vector<std::pair<size_t, double>>> base_changed(
      base_tables_.size());
  std::vector<TablePtr> new_bases = base_tables_;
  for (const auto& op : ops) {
    MPFDB_ASSIGN_OR_RETURN(size_t b, BaseIndexOf(op.table));
    if (!plan.base_absorbed[b]) {
      return Status::FailedPrecondition("base table '" + op.table +
                                        "' feeds no clique; rebuild required");
    }
    const Table& base = *base_tables_[b];
    for (const auto& [row, value] : op.rows) {
      if (row >= base.NumRows()) {
        return Status::InvalidArgument("row " + std::to_string(row) +
                                       " out of range for " + op.table);
      }
      const double old_value = base.measure(row);
      if (BitsEq(old_value, value)) continue;
      // A zero old measure under a product semiring is absorbing: the
      // downstream products carry no trace of the row. Exact replay could
      // still recompute them, but the established contract is to reject and
      // let the caller rebuild.
      if ((semiring_.kind() == SemiringKind::kSumProduct ||
           semiring_.kind() == SemiringKind::kMaxProduct) &&
          old_value == 0.0) {
        return Status::FailedPrecondition(
            "cannot incrementally rescale from measure 0.000000; rebuild the "
            "cache");
      }
      base_changed[b].emplace_back(row, value);
    }
    if (op.new_table != nullptr) new_bases[b] = op.new_table;
  }
  for (size_t b = 0; b < base_changed.size(); ++b) {
    auto& changed = base_changed[b];
    if (changed.empty()) continue;
    // Stable last-write-wins dedupe, then ascending row order.
    std::stable_sort(changed.begin(), changed.end(),
                     [](const auto& x, const auto& y) {
                       return x.first < y.first;
                     });
    auto out = changed.begin();
    for (auto it = changed.begin(); it != changed.end(); ++it) {
      auto next = it + 1;
      if (next == changed.end() || next->first != it->first) *out++ = *it;
    }
    changed.erase(out, changed.end());
    if (new_bases[b] == base_tables_[b]) {
      new_bases[b] =
          base_tables_[b]->WithMeasureUpdates(changed, base_tables_[b]->name());
    }
  }

  // Forward replay, cliques in creation order: recompute affected joined
  // rows with the Build fold (left-associated product over the factor rows),
  // then refold the messages whose groups contain a changed row. Bitwise-
  // unchanged results are pruned, so untouched subtrees see no work.
  std::vector<std::vector<std::pair<size_t, double>>> changed_joined(
      num_cliques);
  std::vector<std::vector<std::pair<size_t, double>>> changed_msg(num_cliques);
  std::vector<TablePtr> new_joined = joined_;
  std::vector<TablePtr> new_msgs = msgs_;
  for (size_t i = 0; i < num_cliques; ++i) {
    const DeltaCliquePlan& cp = plan.cliques[i];
    auto changes_of = [&](const DeltaFactorSlot& slot)
        -> const std::vector<std::pair<size_t, double>>& {
      return slot.is_base ? base_changed[slot.index] : changed_msg[slot.index];
    };
    bool touched = false;
    for (const DeltaFactorSlot& slot : cp.slots) {
      if (!changes_of(slot).empty()) touched = true;
    }
    if (!touched) continue;
    if (cp.alias) {
      // joined *is* the factor table: adopt its new version and changes.
      const DeltaFactorSlot& slot = cp.slots[0];
      changed_joined[i] = changes_of(slot);
      new_joined[i] =
          slot.is_base ? new_bases[slot.index] : new_msgs[slot.index];
    } else {
      std::vector<uint32_t> affected;
      for (const DeltaFactorSlot& slot : cp.slots) {
        for (const auto& [fr, value] : changes_of(slot)) {
          affected.insert(affected.end(), slot.rev.begin(fr),
                          slot.rev.end(fr));
        }
      }
      SortUnique(&affected);
      for (uint32_t r : affected) {
        double value = 0.0;
        bool first = true;
        for (const DeltaFactorSlot& slot : cp.slots) {
          const Table& factor =
              slot.is_base ? *new_bases[slot.index] : *new_msgs[slot.index];
          const double fv = factor.measure(slot.row_map[r]);
          value = first ? fv : semiring_.Multiply(value, fv);
          first = false;
        }
        if (!BitsEq(value, joined_[i]->measure(r))) {
          changed_joined[i].emplace_back(r, value);
        }
      }
      if (!changed_joined[i].empty()) {
        new_joined[i] = joined_[i]->WithMeasureUpdates(changed_joined[i],
                                                       joined_[i]->name());
      }
    }
    if (changed_joined[i].empty() || !cp.msg_consumed) continue;
    std::vector<uint32_t> groups;
    groups.reserve(changed_joined[i].size());
    for (const auto& [r, value] : changed_joined[i]) {
      groups.push_back(cp.msg_group_of[r]);
    }
    SortUnique(&groups);
    for (uint32_t g : groups) {
      double acc = 0.0;
      bool first = true;
      for (const uint32_t* m = cp.msg_members.begin(g);
           m != cp.msg_members.end(g); ++m) {
        const double v = new_joined[i]->measure(*m);
        acc = first ? v : semiring_.Add(acc, v);
        first = false;
      }
      if (!BitsEq(acc, msgs_[i]->measure(g))) {
        changed_msg[i].emplace_back(g, acc);
      }
    }
    if (!changed_msg[i].empty()) {
      new_msgs[i] =
          msgs_[i]->WithMeasureUpdates(changed_msg[i], msgs_[i]->name());
    }
  }

  // Backward replay. Roots first: their final cache equals their join.
  std::vector<std::vector<std::pair<size_t, double>>> changed_final(
      num_cliques);
  std::vector<TablePtr> new_final = caches_;
  for (size_t i = 0; i < num_cliques; ++i) {
    if (plan.out_edge[i] < 0 && !changed_joined[i].empty()) {
      changed_final[i] = changed_joined[i];
      new_final[i] = caches_[i]->WithMeasureUpdates(changed_final[i],
                                                    caches_[i]->name());
    }
  }
  // Then edges in reverse creation order (as in Build): when edge (i, j) is
  // processed, final_j is already settled — j's own outgoing edge, if any,
  // was created later and therefore already replayed.
  for (size_t e = edges_.size(); e-- > 0;) {
    const DeltaEdgePlan& ep = plan.edges[e];
    const size_t i = ep.t_clique;
    const size_t j = ep.s_clique;
    std::vector<uint32_t> groups;
    for (const auto& [r, value] : changed_joined[i]) {
      groups.push_back(ep.t_group_of[r]);
    }
    for (const auto& [r, value] : changed_final[j]) {
      const uint32_t g = ep.s_group_of[r];
      if (g != DeltaEdgePlan::kNoGroup) groups.push_back(g);
    }
    SortUnique(&groups);
    if (groups.empty()) continue;
    const Table& t_new = *new_joined[i];
    const Table& s_new = *new_final[j];
    for (uint32_t g : groups) {
      if (ep.group_final.begin(g) == ep.group_final.end(g)) continue;
      double gt = 0.0;
      bool first = true;
      for (const uint32_t* m = ep.t_members.begin(g); m != ep.t_members.end(g);
           ++m) {
        const double v = t_new.measure(*m);
        gt = first ? v : semiring_.Add(gt, v);
        first = false;
      }
      // An absorbing separator marginal (zero divisor in a product semiring,
      // or a non-finite one) would spread infinities/NaNs through the
      // division; fall back to the full rebuild instead.
      if (((semiring_.kind() == SemiringKind::kSumProduct ||
            semiring_.kind() == SemiringKind::kMaxProduct) &&
           gt == 0.0) ||
          !std::isfinite(gt)) {
        return Status::FailedPrecondition(
            "absorbing separator marginal on cache edge; rebuild the cache");
      }
      double gs = 0.0;
      first = true;
      for (const uint32_t* m = ep.s_members.begin(g); m != ep.s_members.end(g);
           ++m) {
        const double v = s_new.measure(*m);
        gs = first ? v : semiring_.Add(gs, v);
        first = false;
      }
      const double ratio = semiring_.Divide(gs, gt);
      for (const uint32_t* fr = ep.group_final.begin(g);
           fr != ep.group_final.end(g); ++fr) {
        const double value =
            semiring_.Multiply(t_new.measure(ep.final_to_t[*fr]), ratio);
        if (!BitsEq(value, caches_[i]->measure(*fr))) {
          changed_final[i].emplace_back(*fr, value);
        }
      }
    }
    if (!changed_final[i].empty()) {
      new_final[i] = caches_[i]->WithMeasureUpdates(changed_final[i],
                                                    caches_[i]->name());
    }
  }

  // Component totals. A single-component cache never reads its total (every
  // answer covers the component), so skip the refold entirely; otherwise
  // refold exactly the components whose representative cache changed, with
  // the same Marginalize call Build uses.
  ComponentTotals new_components = components_;
  std::map<size_t, std::optional<double>>& new_totals = new_components.totals;
  if (new_totals.size() > 1) {
    for (const auto& [root, rep] : plan.component_rep) {
      if (changed_final[rep].empty()) continue;
      MPFDB_ASSIGN_OR_RETURN(
          TablePtr scalar,
          exec::MarginalizeTable(*new_final[rep], {}, semiring_, "total"));
      new_totals[root] = scalar->Empty()
                             ? std::nullopt
                             : std::optional<double>(scalar->measure(0));
    }
  }

  VeCache next = *this;
  next.base_tables_ = std::move(new_bases);
  next.caches_ = std::move(new_final);
  next.joined_ = std::move(new_joined);
  next.msgs_ = std::move(new_msgs);
  next.components_ = std::move(new_components);
  return next;
}

int64_t VeCache::TotalCacheRows() const {
  int64_t total = 0;
  for (const TablePtr& t : caches_) {
    total += static_cast<int64_t>(t->NumRows());
  }
  return total;
}

}  // namespace mpfdb::workload
