#include "plan/plan_template.h"

#include <bit>
#include <span>

namespace mpfdb {

StatusOr<std::shared_ptr<const PlanVocabulary>> PlanVocabulary::Build(
    const MpfViewDef& view, const Catalog& catalog,
    const CostModel& cost_model) {
  auto vocab = std::make_shared<PlanVocabulary>();
  PlanBuilder builder(catalog, cost_model);
  for (const auto& rel : view.relations) {
    MPFDB_ASSIGN_OR_RETURN(PlanPtr scan, builder.Scan(rel));
    std::vector<uint16_t> ids;
    ids.reserve(scan->output_vars.size());
    for (const auto& var : scan->output_vars) {
      auto it = vocab->ids.find(var);
      if (it == vocab->ids.end()) {
        if (vocab->vars.size() > 0xFFFF) {
          return Status::InvalidArgument("view '" + view.name +
                                         "' has too many variables for a "
                                         "plan template");
        }
        it = vocab->ids.emplace(var, uint16_t(vocab->vars.size())).first;
        vocab->vars.push_back(var);
      }
      ids.push_back(it->second);
    }
    vocab->scans.push_back(std::move(scan));
    vocab->scan_vars.push_back(std::move(ids));
  }
  return std::shared_ptr<const PlanVocabulary>(std::move(vocab));
}

// Appends one plan's nodes to a template, children before parents.
class PlanTemplate::Compactor {
 public:
  Compactor(PlanTemplate& out, const PlanVocabulary& vocab,
            const std::vector<QuerySelection>& selections)
      : out_(out),
        vocab_(vocab),
        selections_(selections),
        used_(vocab.scans.size(), false) {}

  StatusOr<Ref> Add(const PlanNode& node) {
    Node n{node.est_card, node.est_cost, static_cast<uint8_t>(node.kind)};
    switch (node.kind) {
      case PlanNodeKind::kScan: {
        MPFDB_ASSIGN_OR_RETURN(uint16_t rel, Relation(node.table_name));
        return Ref(kScanRef | rel);
      }
      case PlanNodeKind::kIndexScan: {
        MPFDB_ASSIGN_OR_RETURN(n.a, Relation(node.table_name));
        MPFDB_ASSIGN_OR_RETURN(n.b, Slot(node));
        break;
      }
      case PlanNodeKind::kSelect: {
        MPFDB_ASSIGN_OR_RETURN(n.a, AddChild(node.left));
        MPFDB_ASSIGN_OR_RETURN(n.b, Slot(node));
        break;
      }
      case PlanNodeKind::kJoin: {
        MPFDB_ASSIGN_OR_RETURN(n.a, AddChild(node.left));
        MPFDB_ASSIGN_OR_RETURN(n.b, AddChild(node.right));
        break;
      }
      case PlanNodeKind::kMultiwayJoin: {
        std::vector<Ref> children;
        for (const PlanPtr& child : node.children) {
          MPFDB_ASSIGN_OR_RETURN(Ref ref, AddChild(child));
          children.push_back(ref);
        }
        MPFDB_ASSIGN_OR_RETURN(n.a, Index(out_.ids_.size()));
        MPFDB_ASSIGN_OR_RETURN(n.b, Index(children.size()));
        out_.ids_.insert(out_.ids_.end(), children.begin(), children.end());
        MPFDB_ASSIGN_OR_RETURN(n.c, AppendVars(node.output_vars));
        break;
      }
      case PlanNodeKind::kGroupBy:
      case PlanNodeKind::kProject: {
        MPFDB_ASSIGN_OR_RETURN(n.a, AddChild(node.left));
        MPFDB_ASSIGN_OR_RETURN(n.b, Index(out_.ids_.size()));
        MPFDB_ASSIGN_OR_RETURN(n.c, AppendVars(node.output_vars));
        break;
      }
      case PlanNodeKind::kMeasureFilter: {
        MPFDB_ASSIGN_OR_RETURN(n.a, AddChild(node.left));
        break;
      }
    }
    if (out_.nodes_.size() >= kScanRef) return TooLarge();
    out_.nodes_.push_back(n);
    return Ref(out_.nodes_.size() - 1);
  }

  // Appends the ids of `names` to ids_ and returns how many there were.
  StatusOr<uint16_t> AppendVars(const std::vector<std::string>& names) {
    for (const auto& name : names) {
      auto it = vocab_.ids.find(name);
      if (it == vocab_.ids.end()) {
        return Status::InvalidArgument("plan variable '" + name +
                                       "' is not in the view");
      }
      out_.ids_.push_back(it->second);
    }
    if (out_.ids_.size() > 0xFFFF) return TooLarge();
    return uint16_t(names.size());
  }

 private:
  static Status TooLarge() {
    return Status::InvalidArgument("plan too large for a template");
  }
  static StatusOr<uint16_t> Index(size_t value) {
    if (value > 0xFFFF) return TooLarge();
    return uint16_t(value);
  }

  StatusOr<Ref> AddChild(const PlanPtr& child) {
    if (child == nullptr) return Status::InvalidArgument("null child");
    return Add(*child);
  }

  // The first view position of `table` not yet scanned, so a relation the
  // view lists twice keeps two distinct shared scans.
  StatusOr<uint16_t> Relation(const std::string& table) {
    for (size_t r = 0; r < vocab_.scans.size(); ++r) {
      if (!used_[r] && vocab_.scans[r]->table_name == table) {
        used_[r] = true;
        return uint16_t(r);
      }
    }
    return Status::InvalidArgument("plan scans '" + table +
                                   "' outside the view");
  }

  StatusOr<uint16_t> Slot(const PlanNode& node) {
    for (size_t k = 0; k < selections_.size(); ++k) {
      if (selections_[k].var == node.select_var &&
          selections_[k].value == node.select_value) {
        return Index(k);
      }
    }
    return Status::InvalidArgument("plan selects on '" + node.select_var +
                                   "', which the query does not");
  }

  PlanTemplate& out_;
  const PlanVocabulary& vocab_;
  const std::vector<QuerySelection>& selections_;
  std::vector<bool> used_;
};

StatusOr<PlanTemplate> PlanTemplate::Compact(
    const PlanNode& plan, const std::string& optimizer_name,
    const std::vector<std::string>& variable_order,
    const PlanVocabulary& vocab,
    const std::vector<QuerySelection>& selections) {
  PlanTemplate t;
  t.optimizer_name_ = optimizer_name;
  Compactor compactor(t, vocab, selections);
  MPFDB_ASSIGN_OR_RETURN(t.order_len_, compactor.AppendVars(variable_order));
  MPFDB_ASSIGN_OR_RETURN(t.root_, compactor.Add(plan));
  t.nodes_.shrink_to_fit();
  t.ids_.shrink_to_fit();
  return t;
}

StatusOr<BoundPlan> PlanTemplate::Inflate(
    const PlanVocabulary& vocab, const std::vector<QuerySelection>& selections,
    const std::optional<HavingClause>& having) const {
  // Each node's output variable ids. Stored lists point into ids_ or the
  // vocabulary; join unions go to `unions`, reserved up front so the spans
  // stay valid.
  using Span = std::span<const uint16_t>;
  size_t joins = 0;
  for (const Node& n : nodes_) {
    joins += n.kind == static_cast<uint8_t>(PlanNodeKind::kJoin);
  }
  std::vector<uint16_t> unions;
  unions.reserve(joins * vocab.vars.size());
  std::vector<uint32_t> stamp(vocab.vars.size(), 0);
  std::vector<PlanPtr> built(nodes_.size());
  std::vector<Span> spans(nodes_.size());

  auto plan_of = [&](Ref ref) -> const PlanPtr& {
    return (ref & kScanRef) ? vocab.scans[ref & ~kScanRef] : built[ref];
  };
  auto vars_of = [&](Ref ref) -> Span {
    if (ref & kScanRef) return vocab.scan_vars[ref & ~kScanRef];
    return spans[ref];
  };
  auto names_of = [&](Span span) {
    std::vector<std::string> names;
    names.reserve(span.size());
    for (uint16_t id : span) names.push_back(vocab.vars[id]);
    return names;
  };
  auto bind = [&](PlanNode& node, uint16_t slot) -> Status {
    if (slot >= selections.size()) {
      return Status::Internal("query binds fewer selections than the plan "
                              "template has slots");
    }
    node.select_var = selections[slot].var;
    node.select_value = selections[slot].value;
    return Status::Ok();
  };

  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    auto node = std::make_shared<PlanNode>();
    node->kind = static_cast<PlanNodeKind>(n.kind);
    node->est_card = n.est_card;
    node->est_cost = n.est_cost;
    Span vars;
    switch (node->kind) {
      case PlanNodeKind::kScan:
        return Status::Internal("plan template stores a scan node");
      case PlanNodeKind::kIndexScan:
        node->table_name = vocab.scans[n.a]->table_name;
        MPFDB_RETURN_IF_ERROR(bind(*node, n.b));
        vars = vars_of(Ref(kScanRef | n.a));
        break;
      case PlanNodeKind::kSelect:
        node->left = plan_of(n.a);
        MPFDB_RETURN_IF_ERROR(bind(*node, n.b));
        vars = vars_of(n.a);
        break;
      case PlanNodeKind::kJoin: {
        // PlanBuilder::Join's order: the left's variables, then the
        // right's new ones.
        node->left = plan_of(n.a);
        node->right = plan_of(n.b);
        // Each id enters once, so a union never outgrows the reservation.
        const size_t begin = unions.size();
        for (const Span side : {vars_of(n.a), vars_of(n.b)}) {
          for (uint16_t id : side) {
            if (stamp[id] == i + 1) continue;
            stamp[id] = uint32_t(i + 1);
            unions.push_back(id);
          }
        }
        vars = Span(unions).subspan(begin);
        break;
      }
      case PlanNodeKind::kMultiwayJoin:
        node->children.reserve(n.b);
        for (uint16_t k = 0; k < n.b; ++k) {
          node->children.push_back(plan_of(ids_[n.a + k]));
        }
        vars = Span(ids_).subspan(n.a + n.b, n.c);
        break;
      case PlanNodeKind::kGroupBy:
      case PlanNodeKind::kProject:
        node->left = plan_of(n.a);
        vars = Span(ids_).subspan(n.b, n.c);
        break;
      case PlanNodeKind::kMeasureFilter:
        if (!having.has_value()) {
          return Status::Internal("plan template filters on a HAVING clause "
                                  "the query lacks");
        }
        node->left = plan_of(n.a);
        node->having = *having;
        vars = vars_of(n.a);
        break;
    }
    node->output_vars = names_of(vars);
    spans[i] = vars;
    built[i] = std::move(node);
  }
  BoundPlan bound;
  bound.logical = plan_of(root_);
  bound.optimizer_name = optimizer_name_;
  bound.variable_order = names_of(Span(ids_).first(order_len_));
  return bound;
}

size_t PlanTemplate::Bytes() const {
  size_t bytes = sizeof(*this) + nodes_.capacity() * sizeof(Node) +
                 ids_.capacity() * sizeof(uint16_t);
  if (optimizer_name_.capacity() > std::string().capacity()) {
    bytes += optimizer_name_.capacity() + 1;
  }
  return bytes;
}

bool SamePlan(const PlanNode& a, const PlanNode& b) {
  auto same_bits = [](double x, double y) {
    return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
  };
  auto same_child = [](const PlanPtr& x, const PlanPtr& y) {
    if (x == nullptr || y == nullptr) return x == y;
    return SamePlan(*x, *y);
  };
  if (a.kind != b.kind || a.select_value != b.select_value ||
      a.table_name != b.table_name || a.select_var != b.select_var ||
      a.having.op != b.having.op ||
      !same_bits(a.having.threshold, b.having.threshold) ||
      a.output_vars != b.output_vars || !same_bits(a.est_card, b.est_card) ||
      !same_bits(a.est_cost, b.est_cost) ||
      a.children.size() != b.children.size() ||
      !same_child(a.left, b.left) || !same_child(a.right, b.right)) {
    return false;
  }
  for (size_t i = 0; i < a.children.size(); ++i) {
    if (!same_child(a.children[i], b.children[i])) return false;
  }
  return true;
}

}  // namespace mpfdb
