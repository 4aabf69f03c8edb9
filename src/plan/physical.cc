#include "plan/physical.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "storage/schema.h"

namespace mpfdb {

namespace {

// Data sorted by the `have` sequence is also sorted by `needed` exactly when
// `needed` is a prefix of `have` (an empty `needed` is trivially satisfied).
bool IsOrderPrefix(const std::vector<std::string>& needed,
                   const std::vector<std::string>& have) {
  if (needed.size() > have.size()) return false;
  for (size_t i = 0; i < needed.size(); ++i) {
    if (needed[i] != have[i]) return false;
  }
  return true;
}

// Longest prefix of `order` whose variables all survive a projection to
// `kept`. Projection drops columns, not rows, so sortedness by the
// surviving prefix is preserved.
std::vector<std::string> TruncateOrder(const std::vector<std::string>& order,
                                       const std::vector<std::string>& kept) {
  std::vector<std::string> out;
  for (const auto& var : order) {
    if (!varset::Contains(kept, var)) break;
    out.push_back(var);
  }
  return out;
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::unique_ptr<PhysicalPlanNode> MakeNode(PlanNodeKind kind,
                                           const PlanNode* logical) {
  auto node = std::make_unique<PhysicalPlanNode>();
  node->kind = kind;
  node->logical = logical;
  return node;
}

}  // namespace

const char* JoinAlgorithmName(JoinAlgorithm algorithm) {
  switch (algorithm) {
    case JoinAlgorithm::kAuto:
      return "auto";
    case JoinAlgorithm::kHash:
      return "hash";
    case JoinAlgorithm::kSortMerge:
      return "sort_merge";
    case JoinAlgorithm::kNestedLoop:
      return "nested_loop";
    case JoinAlgorithm::kLeapfrog:
      return "leapfrog";
  }
  return "?";
}

const char* AggAlgorithmName(AggAlgorithm algorithm) {
  switch (algorithm) {
    case AggAlgorithm::kAuto:
      return "auto";
    case AggAlgorithm::kHash:
      return "hash";
    case AggAlgorithm::kSort:
      return "sort";
  }
  return "?";
}

std::unique_ptr<PhysicalPlanNode> PhysicalPlanNode::Clone() const {
  auto copy = std::make_unique<PhysicalPlanNode>();
  copy->kind = kind;
  copy->logical = logical;
  if (left != nullptr) copy->left = left->Clone();
  if (right != nullptr) copy->right = right->Clone();
  copy->children.reserve(children.size());
  for (const auto& child : children) copy->children.push_back(child->Clone());
  copy->join = join;
  copy->agg = agg;
  copy->index_fused = index_fused;
  copy->output_order = output_order;
  copy->skip_sort_left = skip_sort_left;
  copy->skip_sort_right = skip_sort_right;
  copy->skip_sort_input = skip_sort_input;
  copy->node_cost = node_cost;
  copy->total_cost = total_cost;
  return copy;
}

// A candidate is one fully-formed physical subtree; its cumulative cost and
// claimed output order live on the root node.
struct PhysicalPlanner::Candidate {
  std::unique_ptr<PhysicalPlanNode> node;
};

// Selinger pruning: keep the cheapest candidate overall plus the cheapest
// per distinct non-empty output order (a pricier-but-sorted subtree can
// still win at the parent by skipping a sort). Strict `<` with
// generation-order iteration makes ties deterministic: the first-generated
// candidate wins, and generation order always lists hash first.
void PhysicalPlanner::Prune(std::vector<PhysicalPlanner::Candidate>* candidates) {
  if (candidates->size() <= 1) return;
  size_t best = 0;
  std::map<std::vector<std::string>, size_t> best_per_order;
  for (size_t i = 0; i < candidates->size(); ++i) {
    const PhysicalPlanNode& node = *(*candidates)[i].node;
    if (node.total_cost < (*candidates)[best].node->total_cost) best = i;
    if (!node.output_order.empty()) {
      auto it = best_per_order.find(node.output_order);
      if (it == best_per_order.end()) {
        best_per_order.emplace(node.output_order, i);
      } else if (node.total_cost <
                 (*candidates)[it->second].node->total_cost) {
        it->second = i;
      }
    }
  }
  std::vector<bool> keep(candidates->size(), false);
  keep[best] = true;
  for (const auto& [order, idx] : best_per_order) keep[idx] = true;
  std::vector<PhysicalPlanner::Candidate> out;
  for (size_t i = 0; i < candidates->size(); ++i) {
    if (keep[i]) out.push_back(std::move((*candidates)[i]));
  }
  *candidates = std::move(out);
}

PhysicalPlanner::PhysicalPlanner(const Catalog& catalog,
                                 const CostModel& cost_model,
                                 Semiring semiring,
                                 PhysicalPlannerOptions options)
    : catalog_(catalog),
      cost_model_(cost_model),
      semiring_(semiring),
      options_(options) {}

StatusOr<std::unique_ptr<PhysicalPlanNode>> PhysicalPlanner::PlanTree(
    const PlanNode& root) const {
  MPFDB_ASSIGN_OR_RETURN(std::vector<Candidate> candidates,
                         Enumerate(root, nullptr));
  if (candidates.empty()) {
    return Status::Internal("physical planner produced no candidates");
  }
  size_t best = 0;
  for (size_t i = 1; i < candidates.size(); ++i) {
    if (candidates[i].node->total_cost < candidates[best].node->total_cost) {
      best = i;
    }
  }
  return std::move(candidates[best].node);
}

StatusOr<std::vector<PhysicalPlanner::Candidate>> PhysicalPlanner::Enumerate(
    const PlanNode& node, const std::vector<std::string>* fold_vars) const {
  std::vector<Candidate> out;
  switch (node.kind) {
    case PlanNodeKind::kScan: {
      auto phys = MakeNode(PlanNodeKind::kScan, &node);
      phys->node_cost = cost_model_.ScanCost(node.est_card);
      phys->total_cost = phys->node_cost;
      out.push_back(Candidate{std::move(phys)});
      break;
    }

    case PlanNodeKind::kIndexScan: {
      auto phys = MakeNode(PlanNodeKind::kIndexScan, &node);
      phys->node_cost = cost_model_.IndexScanCost(node.est_card);
      phys->total_cost = phys->node_cost;
      out.push_back(Candidate{std::move(phys)});
      break;
    }

    case PlanNodeKind::kSelect: {
      // Physical access-path choice: when the selection sits directly on a
      // scan of an indexed variable, a fused IndexScan competes with
      // Scan+Filter. The HashIndex stores row ids in table order, so the
      // fused leaf emits the exact row sequence Select(Scan) would.
      if (options_.allow_index_fusion && node.left != nullptr &&
          node.left->kind == PlanNodeKind::kScan &&
          catalog_.GetIndex(node.left->table_name, node.select_var) !=
              nullptr) {
        auto fused = MakeNode(PlanNodeKind::kIndexScan, &node);
        fused->index_fused = true;
        fused->node_cost = cost_model_.IndexScanCost(node.est_card);
        fused->total_cost = fused->node_cost;
        out.push_back(Candidate{std::move(fused)});
      }
      MPFDB_ASSIGN_OR_RETURN(std::vector<Candidate> children,
                             Enumerate(*node.left, fold_vars));
      for (auto& child : children) {
        auto phys = MakeNode(PlanNodeKind::kSelect, &node);
        phys->node_cost = cost_model_.SelectCost(node.left->est_card);
        phys->total_cost = child.node->total_cost + phys->node_cost;
        phys->output_order = child.node->output_order;  // filter keeps order
        phys->left = std::move(child.node);
        out.push_back(Candidate{std::move(phys)});
      }
      break;
    }

    case PlanNodeKind::kMeasureFilter: {
      MPFDB_ASSIGN_OR_RETURN(std::vector<Candidate> children,
                             Enumerate(*node.left, fold_vars));
      for (auto& child : children) {
        auto phys = MakeNode(PlanNodeKind::kMeasureFilter, &node);
        phys->node_cost = cost_model_.SelectCost(node.left->est_card);
        phys->total_cost = child.node->total_cost + phys->node_cost;
        phys->output_order = child.node->output_order;
        phys->left = std::move(child.node);
        out.push_back(Candidate{std::move(phys)});
      }
      break;
    }

    case PlanNodeKind::kProject: {
      MPFDB_ASSIGN_OR_RETURN(std::vector<Candidate> children,
                             Enumerate(*node.left, fold_vars));
      for (auto& child : children) {
        auto phys = MakeNode(PlanNodeKind::kProject, &node);
        phys->node_cost = cost_model_.SelectCost(node.left->est_card);
        phys->total_cost = child.node->total_cost + phys->node_cost;
        phys->output_order =
            TruncateOrder(child.node->output_order, node.output_vars);
        phys->left = std::move(child.node);
        out.push_back(Candidate{std::move(phys)});
      }
      break;
    }

    case PlanNodeKind::kGroupBy: {
      // The GroupBy establishes the fold context for its subtree: emission
      // reorderings below it are confluent iff each fold group still sees
      // its contributions in the same relative order.
      MPFDB_ASSIGN_OR_RETURN(std::vector<Candidate> children,
                             Enumerate(*node.left, &node.group_vars));
      const bool allow_hash = options_.force_agg != AggAlgorithm::kSort;
      // Sort-marginalize cannot spill; under a finite budget auto mode
      // stays on the spill-capable hash path.
      const bool allow_sort =
          options_.force_agg == AggAlgorithm::kSort ||
          (options_.force_agg == AggAlgorithm::kAuto &&
           options_.memory_limit == 0);
      for (auto& child : children) {
        if (allow_hash) {
          auto phys = MakeNode(PlanNodeKind::kGroupBy, &node);
          phys->agg = AggAlgorithm::kHash;
          phys->node_cost =
              cost_model_.HashGroupByCost(node.left->est_card, node.est_card);
          phys->total_cost = child.node->total_cost + phys->node_cost;
          // Both marginalize algorithms emit groups sorted by the group
          // variables, so either one produces this order.
          phys->output_order = node.group_vars;
          phys->left = child.node->Clone();
          out.push_back(Candidate{std::move(phys)});
        }
        if (allow_sort) {
          const bool presorted =
              IsOrderPrefix(node.group_vars, child.node->output_order);
          auto phys = MakeNode(PlanNodeKind::kGroupBy, &node);
          phys->agg = AggAlgorithm::kSort;
          phys->skip_sort_input = presorted;
          phys->node_cost =
              cost_model_.SortGroupByCost(node.left->est_card, presorted);
          phys->total_cost = child.node->total_cost + phys->node_cost;
          phys->output_order = node.group_vars;
          phys->left = std::move(child.node);
          out.push_back(Candidate{std::move(phys)});
        }
      }
      break;
    }

    case PlanNodeKind::kJoin: {
      // Joins reset the fold context: contributions from below a join reach
      // any enclosing fold only through this join's own emission order.
      MPFDB_ASSIGN_OR_RETURN(std::vector<Candidate> lefts,
                             Enumerate(*node.left, nullptr));
      MPFDB_ASSIGN_OR_RETURN(std::vector<Candidate> rights,
                             Enumerate(*node.right, nullptr));
      const std::vector<std::string> shared =
          varset::Intersect(node.left->output_vars, node.right->output_vars);
      // kLeapfrog never applies to binary joins (it is the multiway node's
      // only algorithm), so forcing it leaves binary nodes in auto mode.
      const bool forced = options_.force_join != JoinAlgorithm::kAuto &&
                          options_.force_join != JoinAlgorithm::kLeapfrog;
      const bool allow_hash =
          !forced || options_.force_join == JoinAlgorithm::kHash;
      const bool allow_nl =
          !forced || options_.force_join == JoinAlgorithm::kNestedLoop;
      // Sort-merge reorders emission relative to hash. Admissible when
      // forced (caller accepts the reordering, as the old global knob did),
      // or in auto mode when (a) there is no finite budget (sorts cannot
      // spill) and (b) the reordering is provably bit-invisible: Add is
      // order-invariant, or every fold group of the nearest enclosing
      // GroupBy is contained in a single merge run (group vars ⊇ shared
      // vars), in which case the per-group contribution order matches hash
      // exactly (stable sorts keep equal-key rows in arrival order).
      const bool allow_sm =
          forced ? options_.force_join == JoinAlgorithm::kSortMerge
                 : (!shared.empty() && options_.memory_limit == 0 &&
                    (semiring_.AddIsOrderInvariant() ||
                     (fold_vars != nullptr &&
                      varset::IsSubset(shared, *fold_vars))));
      const double l_card = node.left->est_card;
      const double r_card = node.right->est_card;
      for (auto& lc : lefts) {
        for (auto& rc : rights) {
          double child_cost = lc.node->total_cost + rc.node->total_cost;
          if (allow_hash) {
            auto phys = MakeNode(PlanNodeKind::kJoin, &node);
            phys->join = JoinAlgorithm::kHash;
            phys->node_cost = cost_model_.HashJoinCost(l_card, r_card);
            phys->total_cost = child_cost + phys->node_cost;
            // Hash join probes the left stream in order and emits each left
            // row's matches contiguously, so the left order survives.
            phys->output_order = lc.node->output_order;
            phys->left = lc.node->Clone();
            phys->right = rc.node->Clone();
            out.push_back(Candidate{std::move(phys)});
          }
          if (allow_sm) {
            const bool lp = IsOrderPrefix(shared, lc.node->output_order);
            const bool rp = IsOrderPrefix(shared, rc.node->output_order);
            auto phys = MakeNode(PlanNodeKind::kJoin, &node);
            phys->join = JoinAlgorithm::kSortMerge;
            phys->skip_sort_left = lp;
            phys->skip_sort_right = rp;
            phys->node_cost =
                cost_model_.SortMergeJoinCost(l_card, r_card, lp, rp);
            phys->total_cost = child_cost + phys->node_cost;
            phys->output_order = shared;
            phys->left = lc.node->Clone();
            phys->right = rc.node->Clone();
            out.push_back(Candidate{std::move(phys)});
          }
          if (allow_nl) {
            auto phys = MakeNode(PlanNodeKind::kJoin, &node);
            phys->join = JoinAlgorithm::kNestedLoop;
            phys->node_cost = cost_model_.NestedLoopJoinCost(l_card, r_card);
            phys->total_cost = child_cost + phys->node_cost;
            // Same left-major emission as hash join.
            phys->output_order = lc.node->output_order;
            phys->left = lc.node->Clone();
            phys->right = rc.node->Clone();
            out.push_back(Candidate{std::move(phys)});
          }
        }
      }
      break;
    }

    case PlanNodeKind::kMultiwayJoin: {
      // The n-ary worst-case-optimal join has exactly one physical
      // implementation (LeapFrog TrieJoin), so no algorithm enumeration
      // happens here: each child contributes its cheapest subtree and the
      // node claims the logical variable order as its output order (LFTJ
      // emits tuples lexicographically in that order). Binary force_join
      // overrides deliberately do not decompose the node — the FAQ planner
      // only emits it for cyclic cores, where no binary equivalent exists.
      std::vector<double> input_cards;
      input_cards.reserve(node.children.size());
      auto phys = MakeNode(PlanNodeKind::kMultiwayJoin, &node);
      phys->join = JoinAlgorithm::kLeapfrog;
      double child_cost = 0.0;
      for (const auto& logical_child : node.children) {
        MPFDB_ASSIGN_OR_RETURN(std::vector<Candidate> subs,
                               Enumerate(*logical_child, nullptr));
        size_t best = 0;
        for (size_t i = 1; i < subs.size(); ++i) {
          if (subs[i].node->total_cost < subs[best].node->total_cost) {
            best = i;
          }
        }
        input_cards.push_back(logical_child->est_card);
        child_cost += subs[best].node->total_cost;
        phys->children.push_back(std::move(subs[best].node));
      }
      phys->node_cost =
          cost_model_.MultiwayJoinCost(input_cards, node.est_card);
      phys->total_cost = child_cost + phys->node_cost;
      phys->output_order = node.output_vars;
      out.push_back(Candidate{std::move(phys)});
      break;
    }
  }
  if (out.empty()) {
    return Status::Internal("no physical candidate for plan node");
  }
  Prune(&out);
  return out;
}

namespace {

void ExplainPhysRec(const PhysicalPlanNode& phys, int depth,
                    std::ostringstream& os) {
  os << std::string(static_cast<size_t>(depth) * 2, ' ');
  const PlanNode& logical = *phys.logical;
  switch (phys.kind) {
    case PlanNodeKind::kScan:
      os << "Scan(" << logical.table_name << ")";
      break;
    case PlanNodeKind::kIndexScan: {
      // A fused leaf's logical node is the kSelect whose scan it absorbed.
      const std::string& table = phys.index_fused
                                     ? logical.left->table_name
                                     : logical.table_name;
      os << "IndexScan(" << table << ", " << logical.select_var << "="
         << logical.select_value << ")";
      break;
    }
    case PlanNodeKind::kSelect:
      os << "Select(" << logical.select_var << "=" << logical.select_value
         << ")";
      break;
    case PlanNodeKind::kJoin:
      os << "ProductJoin";
      break;
    case PlanNodeKind::kMultiwayJoin:
      os << "MultiwayJoin[" << phys.children.size() << "]";
      break;
    case PlanNodeKind::kGroupBy:
      os << "GroupBy{" << FormatVarList(logical.group_vars) << "}";
      break;
    case PlanNodeKind::kProject:
      os << "Project{" << FormatVarList(logical.group_vars) << "}";
      break;
    case PlanNodeKind::kMeasureFilter:
      os << "MeasureFilter(f " << CompareOpSymbol(logical.having.op) << " "
         << logical.having.threshold << ")";
      break;
  }
  std::vector<std::string> notes;
  if (phys.kind == PlanNodeKind::kJoin ||
      phys.kind == PlanNodeKind::kMultiwayJoin) {
    notes.push_back(std::string("join=") + JoinAlgorithmName(phys.join));
    if (phys.skip_sort_left) notes.push_back("presorted_left");
    if (phys.skip_sort_right) notes.push_back("presorted_right");
  }
  if (phys.kind == PlanNodeKind::kGroupBy) {
    notes.push_back(std::string("agg=") + AggAlgorithmName(phys.agg));
    if (phys.skip_sort_input) notes.push_back("presorted");
  }
  if (phys.index_fused) notes.push_back("fused");
  if (!phys.output_order.empty()) {
    notes.push_back("order=(" + FormatVarList(phys.output_order) + ")");
  }
  {
    std::ostringstream note;
    note << "est=" << logical.est_card << " cost=" << phys.total_cost;
    notes.push_back(note.str());
  }
  os << "  [" << JoinStrings(notes, " ") << "]\n";
  if (phys.left != nullptr) ExplainPhysRec(*phys.left, depth + 1, os);
  if (phys.right != nullptr) ExplainPhysRec(*phys.right, depth + 1, os);
  for (const auto& child : phys.children) {
    ExplainPhysRec(*child, depth + 1, os);
  }
}

}  // namespace

std::string ExplainPhysicalPlan(const PhysicalPlanNode& root) {
  std::ostringstream os;
  ExplainPhysRec(root, 0, os);
  return os.str();
}

}  // namespace mpfdb
