#include "plan/plan.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <sstream>

#include "cost/agm.h"
#include "util/strings.h"

namespace mpfdb {

const char* CompareOpSymbol(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
  }
  return "?";
}

std::string FormatThreshold(double threshold) {
  char buf[32];
  const auto printed = std::to_chars(buf, buf + sizeof(buf), threshold);
  return std::string(buf, printed.ptr);
}

bool EvalCompare(CompareOp op, double lhs, double rhs) {
  switch (op) {
    case CompareOp::kLt:
      return lhs < rhs;
    case CompareOp::kLe:
      return lhs <= rhs;
    case CompareOp::kGt:
      return lhs > rhs;
    case CompareOp::kGe:
      return lhs >= rhs;
    case CompareOp::kEq:
      return lhs == rhs;
    case CompareOp::kNe:
      return lhs != rhs;
  }
  return false;
}

StatusOr<std::vector<std::string>> MpfViewDef::AllVariables(
    const Catalog& catalog) const {
  std::vector<std::string> vars;
  for (const auto& rel : relations) {
    MPFDB_ASSIGN_OR_RETURN(TablePtr table, catalog.GetTable(rel));
    vars = varset::Union(vars, table->schema().variables());
  }
  return vars;
}

std::string MpfQuerySpec::ToString(const MpfViewDef& view) const {
  std::ostringstream os;
  os << "select " << Join(group_vars, ", ") << ", "
     << view.semiring.aggregate_name() << "(f) from " << view.name;
  if (!selections.empty()) {
    os << " where ";
    for (size_t i = 0; i < selections.size(); ++i) {
      if (i > 0) os << " and ";
      os << selections[i].var << "=" << selections[i].value;
    }
  }
  os << " group by " << Join(group_vars, ", ");
  if (having.has_value()) {
    os << " having f " << CompareOpSymbol(having->op) << " "
       << FormatThreshold(having->threshold);
  }
  return os.str();
}

int PlanNode::JoinCount() const {
  int count =
      (kind == PlanNodeKind::kJoin || kind == PlanNodeKind::kMultiwayJoin) ? 1
                                                                           : 0;
  if (left) count += left->JoinCount();
  if (right) count += right->JoinCount();
  for (const auto& child : children) count += child->JoinCount();
  return count;
}

int PlanNode::GroupByCount() const {
  int count = kind == PlanNodeKind::kGroupBy ? 1 : 0;
  if (left) count += left->GroupByCount();
  if (right) count += right->GroupByCount();
  for (const auto& child : children) count += child->GroupByCount();
  return count;
}

namespace {

// True if the subtree contains a join node.
bool HasJoin(const PlanNode& node) { return node.JoinCount() > 0; }

}  // namespace

bool PlanNode::IsLinear() const {
  // A plan is (left-)linear if no join's right operand contains a join. A
  // multiway join is inherently nonlinear (every operand is a peer).
  if (kind == PlanNodeKind::kMultiwayJoin) return false;
  if (kind == PlanNodeKind::kJoin) {
    if (right && HasJoin(*right)) return false;
  }
  if (left && !left->IsLinear()) return false;
  if (right && !right->IsLinear()) return false;
  return true;
}

std::vector<std::string> PlanNode::BaseTables() const {
  std::vector<std::string> tables;
  if (kind == PlanNodeKind::kScan || kind == PlanNodeKind::kIndexScan) {
    tables.push_back(table_name);
    return tables;
  }
  if (left) {
    auto l = left->BaseTables();
    tables.insert(tables.end(), l.begin(), l.end());
  }
  if (right) {
    auto r = right->BaseTables();
    tables.insert(tables.end(), r.begin(), r.end());
  }
  for (const auto& child : children) {
    auto c = child->BaseTables();
    tables.insert(tables.end(), c.begin(), c.end());
  }
  return tables;
}

namespace {

// Fails unless `child` exists and outputs every variable of `vars`.
Status CheckProduced(const PlanPtr& child, const std::vector<std::string>& vars,
                     const std::string& role) {
  if (child == nullptr) return Status::InvalidArgument("null child");
  for (const auto& var : vars) {
    if (!varset::Contains(child->output_vars, var)) {
      return Status::InvalidArgument(role + " variable '" + var +
                                     "' not produced by child plan");
    }
  }
  return Status::Ok();
}

}  // namespace

StatusOr<double> PlanBuilder::DomainProduct(
    const std::vector<std::string>& vars) const {
  double product = 1.0;
  for (const auto& var : vars) {
    MPFDB_ASSIGN_OR_RETURN(int64_t size, catalog_.DomainSize(var));
    product *= static_cast<double>(size);
  }
  return product;
}

StatusOr<PlanPtr> PlanBuilder::Scan(const std::string& table_name) const {
  MPFDB_ASSIGN_OR_RETURN(TablePtr table, catalog_.GetTable(table_name));
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanNodeKind::kScan;
  node->table_name = table_name;
  node->output_vars = table->schema().variables();
  node->est_card = static_cast<double>(table->NumRows());
  node->est_cost = cost_model_.ScanCost(node->est_card);
  return PlanPtr(node);
}

StatusOr<PlanPtr> PlanBuilder::IndexScan(const std::string& table_name,
                                         const std::string& var,
                                         VarValue value) const {
  MPFDB_ASSIGN_OR_RETURN(TablePtr table, catalog_.GetTable(table_name));
  if (catalog_.GetIndex(table_name, var) == nullptr) {
    return Status::FailedPrecondition("no index on " + table_name + "(" + var +
                                      ")");
  }
  MPFDB_ASSIGN_OR_RETURN(int64_t domain, catalog_.DomainSize(var));
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanNodeKind::kIndexScan;
  node->table_name = table_name;
  node->select_var = var;
  node->select_value = value;
  node->output_vars = table->schema().variables();
  node->est_card = std::max(
      1.0, static_cast<double>(table->NumRows()) / static_cast<double>(domain));
  node->est_cost = cost_model_.IndexScanCost(node->est_card);
  return PlanPtr(node);
}

StatusOr<PlanPtr> PlanBuilder::Select(PlanPtr child, const std::string& var,
                                      VarValue value) const {
  MPFDB_RETURN_IF_ERROR(CheckProduced(child, {var}, "selection"));
  MPFDB_ASSIGN_OR_RETURN(int64_t domain, catalog_.DomainSize(var));
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanNodeKind::kSelect;
  node->left = child;
  node->select_var = var;
  node->select_value = value;
  node->output_vars = child->output_vars;
  node->est_card =
      std::max(1.0, child->est_card / static_cast<double>(domain));
  node->est_cost = child->est_cost + cost_model_.SelectCost(child->est_card);
  return PlanPtr(node);
}

StatusOr<PlanPtr> PlanBuilder::Join(PlanPtr left, PlanPtr right) const {
  if (left == nullptr || right == nullptr) {
    return Status::InvalidArgument("null join operand");
  }
  std::vector<std::string> shared =
      varset::Intersect(left->output_vars, right->output_vars);
  std::vector<std::string> out =
      varset::Union(left->output_vars, right->output_vars);
  MPFDB_ASSIGN_OR_RETURN(double shared_domain, DomainProduct(shared));
  MPFDB_ASSIGN_OR_RETURN(double out_domain, DomainProduct(out));

  auto node = std::make_shared<PlanNode>();
  node->kind = PlanNodeKind::kJoin;
  node->left = left;
  node->right = right;
  node->output_vars = std::move(out);
  // Independence estimate capped by the output domain product: a product
  // join can never produce more rows than the cross product of the output
  // variables' domains (the result is a functional relation).
  double independence = left->est_card * right->est_card / shared_domain;
  node->est_card = std::max(1.0, std::min(independence, out_domain));
  node->est_cost = left->est_cost + right->est_cost +
                   cost_model_.JoinCost(left->est_card, right->est_card);
  return PlanPtr(node);
}

StatusOr<PlanPtr> PlanBuilder::MultiwayJoin(
    std::vector<PlanPtr> children, std::vector<std::string> var_order) const {
  if (children.size() < 2) {
    return Status::InvalidArgument("multiway join needs at least 2 children");
  }
  std::vector<std::string> covered;
  std::vector<agm::Edge> edges;
  std::vector<double> input_cards;
  for (const PlanPtr& child : children) {
    if (child == nullptr) return Status::InvalidArgument("null join operand");
    covered = varset::Union(covered, child->output_vars);
    edges.push_back(agm::Edge{child->output_vars, child->est_card});
    input_cards.push_back(child->est_card);
  }
  if (!varset::SetEquals(var_order, covered)) {
    return Status::InvalidArgument(
        "multiway join variable order must be a permutation of the children's "
        "variables");
  }
  MPFDB_ASSIGN_OR_RETURN(double out_domain, DomainProduct(var_order));

  auto node = std::make_shared<PlanNode>();
  node->kind = PlanNodeKind::kMultiwayJoin;
  node->output_vars = std::move(var_order);
  // The AGM bound is the worst case; the independence estimate over all
  // pairwise-shared variables is the expectation. Take the smaller — on
  // cyclic shapes AGM is far below independence-capped-by-domain, which is
  // exactly the improvement that justifies the multiway node.
  double agm = agm::AgmBound(node->output_vars, edges);
  node->est_card = std::max(1.0, std::min(agm, out_domain));
  double child_cost = 0.0;
  for (const PlanPtr& child : children) child_cost += child->est_cost;
  node->est_cost =
      child_cost + cost_model_.MultiwayJoinCost(input_cards, node->est_card);
  node->children = std::move(children);
  return PlanPtr(node);
}

StatusOr<PlanPtr> PlanBuilder::GroupBy(
    PlanPtr child, std::vector<std::string> group_vars) const {
  MPFDB_RETURN_IF_ERROR(CheckProduced(child, group_vars, "group"));
  MPFDB_ASSIGN_OR_RETURN(double group_domain, DomainProduct(group_vars));
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanNodeKind::kGroupBy;
  node->left = child;
  node->output_vars = std::move(group_vars);
  node->est_card = std::max(1.0, std::min(child->est_card, group_domain));
  node->est_cost = child->est_cost + cost_model_.GroupByCost(child->est_card);
  return PlanPtr(node);
}

StatusOr<PlanPtr> PlanBuilder::Project(
    PlanPtr child, std::vector<std::string> keep_vars) const {
  MPFDB_RETURN_IF_ERROR(CheckProduced(child, keep_vars, "projected"));
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanNodeKind::kProject;
  node->left = child;
  node->output_vars = std::move(keep_vars);
  node->est_card = child->est_card;
  node->est_cost = child->est_cost + cost_model_.SelectCost(child->est_card);
  return PlanPtr(node);
}

StatusOr<PlanPtr> PlanBuilder::MeasureFilter(PlanPtr child,
                                             HavingClause having) const {
  if (child == nullptr) return Status::InvalidArgument("null child");
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanNodeKind::kMeasureFilter;
  node->left = child;
  node->having = having;
  node->output_vars = child->output_vars;
  node->est_card = std::max(1.0, child->est_card / 3.0);
  node->est_cost = child->est_cost + cost_model_.SelectCost(child->est_card);
  return PlanPtr(node);
}

std::string FormatVarList(const std::vector<std::string>& vars) {
  auto needs_quoting = [](const std::string& name) {
    if (name.empty()) return true;
    for (char c : name) {
      if (c == ',' || c == '(' || c == ')' || c == '{' || c == '}' ||
          c == '"' || c == '\\' || std::isspace(static_cast<unsigned char>(c))) {
        return true;
      }
    }
    return false;
  };
  std::string out;
  for (size_t i = 0; i < vars.size(); ++i) {
    if (i > 0) out += ",";
    if (!needs_quoting(vars[i])) {
      out += vars[i];
      continue;
    }
    out += '"';
    for (char c : vars[i]) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += '"';
  }
  return out;
}

std::string PlanNodeLabel(const PlanNode& node) {
  std::ostringstream os;
  switch (node.kind) {
    case PlanNodeKind::kScan:
      os << "Scan(" << node.table_name << ")";
      break;
    case PlanNodeKind::kIndexScan:
      os << "IndexScan(" << node.table_name << ", " << node.select_var << "="
         << node.select_value << ")";
      break;
    case PlanNodeKind::kSelect:
      os << "Select(" << node.select_var << "=" << node.select_value << ")";
      break;
    case PlanNodeKind::kJoin:
      os << "ProductJoin";
      break;
    case PlanNodeKind::kMultiwayJoin:
      os << "MultiwayJoin[" << node.children.size() << "]";
      break;
    case PlanNodeKind::kGroupBy:
      os << "GroupBy{" << FormatVarList(node.output_vars) << "}";
      break;
    case PlanNodeKind::kProject:
      os << "Project{" << FormatVarList(node.output_vars) << "}";
      break;
    case PlanNodeKind::kMeasureFilter:
      os << "MeasureFilter(f " << CompareOpSymbol(node.having.op) << " "
         << FormatThreshold(node.having.threshold) << ")";
      break;
  }
  return os.str();
}

namespace {

void ExplainRec(const PlanNode& node, int depth, std::ostringstream& os) {
  os << std::string(static_cast<size_t>(depth) * 2, ' ') << PlanNodeLabel(node)
     << "  [vars=(" << FormatVarList(node.output_vars) << ") card="
     << node.est_card << " cost=" << node.est_cost << "]\n";
  if (node.left) ExplainRec(*node.left, depth + 1, os);
  if (node.right) ExplainRec(*node.right, depth + 1, os);
  for (const auto& child : node.children) ExplainRec(*child, depth + 1, os);
}

void SignatureRec(const PlanNode& node, std::ostringstream& os) {
  switch (node.kind) {
    case PlanNodeKind::kScan:
      os << "Scan(" << node.table_name << ")";
      return;
    case PlanNodeKind::kIndexScan:
      os << "IndexScan(" << node.table_name << "," << node.select_var << "="
         << node.select_value << ")";
      return;
    case PlanNodeKind::kSelect:
      os << "Select{" << node.select_var << "=" << node.select_value << "}(";
      SignatureRec(*node.left, os);
      os << ")";
      return;
    case PlanNodeKind::kJoin:
      os << "Join(";
      SignatureRec(*node.left, os);
      os << ", ";
      SignatureRec(*node.right, os);
      os << ")";
      return;
    case PlanNodeKind::kMultiwayJoin:
      os << "MultiwayJoin{" << FormatVarList(node.output_vars) << "}(";
      for (size_t i = 0; i < node.children.size(); ++i) {
        if (i > 0) os << ", ";
        SignatureRec(*node.children[i], os);
      }
      os << ")";
      return;
    case PlanNodeKind::kGroupBy:
      os << "GroupBy{" << FormatVarList(node.output_vars) << "}(";
      SignatureRec(*node.left, os);
      os << ")";
      return;
    case PlanNodeKind::kProject:
      os << "Project{" << FormatVarList(node.output_vars) << "}(";
      SignatureRec(*node.left, os);
      os << ")";
      return;
    case PlanNodeKind::kMeasureFilter:
      os << "MeasureFilter{" << CompareOpSymbol(node.having.op)
         << FormatThreshold(node.having.threshold) << "}(";
      SignatureRec(*node.left, os);
      os << ")";
      return;
  }
}

}  // namespace

std::string ExplainPlan(const PlanNode& root) {
  std::ostringstream os;
  ExplainRec(root, 0, os);
  return os.str();
}

std::string PlanSignature(const PlanNode& root) {
  std::ostringstream os;
  SignatureRec(root, os);
  return os.str();
}

}  // namespace mpfdb
