#include "plan/physical.h"

#include <sstream>

#include "storage/schema.h"

namespace mpfdb {

std::unique_ptr<PhysicalPlanNode> PlanPhysicalTree(const PlanNode& root,
                                                   const Catalog& catalog) {
  auto phys = std::make_unique<PhysicalPlanNode>();
  phys->kind = root.kind;
  phys->logical = &root;
  if (root.kind == PlanNodeKind::kSelect && root.left != nullptr &&
      root.left->kind == PlanNodeKind::kScan &&
      catalog.GetIndex(root.left->table_name, root.select_var) != nullptr) {
    phys->kind = PlanNodeKind::kIndexScan;
    phys->index_fused = true;
    return phys;
  }
  if (root.left != nullptr) phys->left = PlanPhysicalTree(*root.left, catalog);
  if (root.right != nullptr) {
    phys->right = PlanPhysicalTree(*root.right, catalog);
  }
  phys->children.reserve(root.children.size());
  for (const auto& child : root.children) {
    phys->children.push_back(PlanPhysicalTree(*child, catalog));
  }
  return phys;
}

const char* AlgorithmName(PlanNodeKind kind) {
  switch (kind) {
    case PlanNodeKind::kJoin:
    case PlanNodeKind::kGroupBy:
      return "hash";
    case PlanNodeKind::kMultiwayJoin:
      return "leapfrog";
    default:
      return nullptr;
  }
}

namespace {

void ExplainPhysRec(const PhysicalPlanNode& phys, int depth,
                    std::ostringstream& os) {
  os << std::string(static_cast<size_t>(depth) * 2, ' ');
  const PlanNode& logical = *phys.logical;
  if (phys.index_fused) {
    // A fused leaf's logical node is the kSelect whose scan it absorbed.
    os << "IndexScan(" << logical.left->table_name << ", "
       << logical.select_var << "=" << logical.select_value << ")";
  } else {
    os << PlanNodeLabel(logical);
  }
  os << "  [";
  if (const char* algorithm = AlgorithmName(phys.kind)) {
    os << (phys.kind == PlanNodeKind::kGroupBy ? "agg=" : "join=")
       << algorithm << " ";
  }
  if (phys.index_fused) os << "fused ";
  os << "est=" << logical.est_card << "]\n";
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
