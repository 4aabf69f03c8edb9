#include "bn/bayes_net.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "fr/algebra.h"

namespace mpfdb::bn {
namespace {

// Enumerates every assignment of `domains` via odometer increments.
class AssignmentIterator {
 public:
  explicit AssignmentIterator(std::vector<int64_t> domains)
      : domains_(std::move(domains)), values_(domains_.size(), 0) {}

  const std::vector<VarValue>& values() const { return values_; }

  bool Advance() {
    size_t pos = 0;
    while (pos < values_.size()) {
      if (++values_[pos] < domains_[pos]) return true;
      values_[pos] = 0;
      ++pos;
    }
    return false;
  }

 private:
  std::vector<int64_t> domains_;
  std::vector<VarValue> values_;
};

// Builds the CPT schema (parents..., name; p).
Schema CptSchema(const BnNode& node) {
  std::vector<std::string> vars = node.parents;
  vars.push_back(node.name);
  return Schema(vars, "p");
}

}  // namespace

Status BayesNet::AddNode(const std::string& name, int64_t domain_size,
                         const std::vector<std::string>& parents,
                         TablePtr cpt) {
  if (domain_size <= 0) {
    return Status::InvalidArgument("node '" + name +
                                   "' needs a positive domain size");
  }
  if (FindNode(name).ok()) {
    return Status::AlreadyExists("node '" + name + "' already exists");
  }
  for (const auto& parent : parents) {
    if (!FindNode(parent).ok()) {
      return Status::InvalidArgument("parent '" + parent + "' of '" + name +
                                     "' does not exist (add parents first)");
    }
    if (parent == name) {
      return Status::InvalidArgument("node '" + name +
                                     "' cannot parent itself");
    }
  }
  BnNode node{name, domain_size, parents, std::move(cpt)};
  if (node.cpt != nullptr) {
    if (!varset::SetEquals(node.cpt->schema().variables(),
                           CptSchema(node).variables())) {
      return Status::InvalidArgument(
          "CPT schema of '" + name + "' must cover exactly (parents, node)");
    }
  }
  nodes_.push_back(std::move(node));
  return Status::Ok();
}

StatusOr<const BnNode*> BayesNet::FindNode(const std::string& name) const {
  for (const BnNode& node : nodes_) {
    if (node.name == name) return &node;
  }
  return Status::NotFound("node '" + name + "' not found");
}

std::vector<std::string> BayesNet::VariableNames() const {
  std::vector<std::string> names;
  names.reserve(nodes_.size());
  for (const BnNode& node : nodes_) names.push_back(node.name);
  return names;
}

Status BayesNet::Validate() const {
  for (const BnNode& node : nodes_) {
    if (node.cpt == nullptr) {
      return Status::FailedPrecondition("node '" + node.name + "' has no CPT");
    }
    MPFDB_RETURN_IF_ERROR(fr::CheckFunctionalDependency(*node.cpt));
    // Completeness and normalization: group the CPT rows by the parent
    // configuration and check each group's probabilities sum to 1 with
    // node.domain_size entries.
    std::map<std::vector<VarValue>, std::pair<int64_t, double>> groups;
    auto node_index = node.cpt->schema().IndexOf(node.name);
    if (!node_index) {
      return Status::FailedPrecondition("CPT of '" + node.name +
                                        "' lacks its own variable");
    }
    std::vector<size_t> parent_indices;
    for (const auto& parent : node.parents) {
      auto idx = node.cpt->schema().IndexOf(parent);
      if (!idx) {
        return Status::FailedPrecondition("CPT of '" + node.name +
                                          "' lacks parent '" + parent + "'");
      }
      parent_indices.push_back(*idx);
    }
    for (size_t i = 0; i < node.cpt->NumRows(); ++i) {
      RowView row = node.cpt->Row(i);
      if (row.measure < 0) {
        return Status::FailedPrecondition("CPT of '" + node.name +
                                          "' has a negative probability");
      }
      std::vector<VarValue> key;
      key.reserve(parent_indices.size());
      for (size_t p : parent_indices) key.push_back(row.var(p));
      auto& [count, total] = groups[key];
      ++count;
      total += row.measure;
    }
    double expected_groups = 1;
    for (const auto& parent : node.parents) {
      expected_groups *=
          static_cast<double>(FindNode(parent).value()->domain_size);
    }
    if (static_cast<double>(groups.size()) != expected_groups) {
      return Status::FailedPrecondition(
          "CPT of '" + node.name + "' is not complete over parent domains");
    }
    for (const auto& [key, stats] : groups) {
      if (stats.first != node.domain_size) {
        return Status::FailedPrecondition(
            "CPT of '" + node.name + "' is missing child values for some "
            "parent configuration");
      }
      if (std::fabs(stats.second - 1.0) > 1e-6) {
        return Status::FailedPrecondition(
            "CPT of '" + node.name + "' does not sum to 1 for some parent "
            "configuration");
      }
    }
  }
  return Status::Ok();
}

Status BayesNet::SetUniformCpts() {
  for (BnNode& node : nodes_) {
    if (node.cpt != nullptr) continue;
    auto cpt = std::make_shared<Table>("cpt_" + node.name, CptSchema(node));
    std::vector<int64_t> domains;
    for (const auto& parent : node.parents) {
      domains.push_back(FindNode(parent).value()->domain_size);
    }
    domains.push_back(node.domain_size);
    AssignmentIterator it(domains);
    double p = 1.0 / static_cast<double>(node.domain_size);
    do {
      cpt->AppendRow(it.values(), p);
    } while (it.Advance());
    node.cpt = std::move(cpt);
  }
  return Status::Ok();
}

Status BayesNet::SetRandomCpts(Rng& rng) {
  for (BnNode& node : nodes_) {
    if (node.cpt != nullptr) continue;
    auto cpt = std::make_shared<Table>("cpt_" + node.name, CptSchema(node));
    std::vector<int64_t> parent_domains;
    for (const auto& parent : node.parents) {
      parent_domains.push_back(FindNode(parent).value()->domain_size);
    }
    // One normalized random row-block per parent configuration. An
    // AssignmentIterator over zero domains yields exactly one empty
    // assignment, so parentless nodes get a single block.
    AssignmentIterator parent_it(parent_domains);
    do {
      std::vector<double> weights;
      weights.reserve(static_cast<size_t>(node.domain_size));
      double total = 0;
      for (int64_t v = 0; v < node.domain_size; ++v) {
        double w = rng.UniformDouble(0.05, 1.0);
        weights.push_back(w);
        total += w;
      }
      for (int64_t v = 0; v < node.domain_size; ++v) {
        std::vector<VarValue> row = parent_it.values();
        row.push_back(static_cast<VarValue>(v));
        cpt->AppendRow(row, weights[static_cast<size_t>(v)] / total);
      }
    } while (parent_it.Advance());
    node.cpt = std::move(cpt);
  }
  return Status::Ok();
}

StatusOr<MpfViewDef> BayesNet::ToMpfView(Catalog& catalog,
                                         const std::string& prefix) const {
  MPFDB_RETURN_IF_ERROR(Validate());
  MpfViewDef view;
  view.name = prefix + "joint";
  view.semiring = Semiring::SumProduct();
  for (const BnNode& node : nodes_) {
    MPFDB_RETURN_IF_ERROR(
        catalog.RegisterVariable(node.name, node.domain_size));
  }
  for (const BnNode& node : nodes_) {
    std::string table_name = prefix + "cpt_" + node.name;
    TablePtr table(node.cpt->Clone(table_name));
    MPFDB_RETURN_IF_ERROR(catalog.RegisterTable(std::move(table)));
    view.relations.push_back(table_name);
  }
  return view;
}

StatusOr<TablePtr> BayesNet::Sample(size_t n, Rng& rng) const {
  MPFDB_RETURN_IF_ERROR(Validate());
  // Per-node lookup: parent values -> probability vector over the node.
  // Node order is topological, so sampling front-to-back is ancestral.
  std::unordered_map<std::string, size_t> node_index;
  for (size_t i = 0; i < nodes_.size(); ++i) node_index[nodes_[i].name] = i;

  std::map<std::vector<VarValue>, double> counts;
  std::vector<VarValue> assignment(nodes_.size(), 0);
  for (size_t s = 0; s < n; ++s) {
    for (size_t i = 0; i < nodes_.size(); ++i) {
      const BnNode& node = nodes_[i];
      // Collect this node's probability vector for the sampled parents.
      std::vector<double> probs(static_cast<size_t>(node.domain_size), 0.0);
      const Schema& schema = node.cpt->schema();
      size_t self_idx = *schema.IndexOf(node.name);
      for (size_t r = 0; r < node.cpt->NumRows(); ++r) {
        RowView row = node.cpt->Row(r);
        bool match = true;
        for (const auto& parent : node.parents) {
          size_t p_idx = *schema.IndexOf(parent);
          if (row.var(p_idx) != assignment[node_index[parent]]) {
            match = false;
            break;
          }
        }
        if (match) probs[static_cast<size_t>(row.var(self_idx))] = row.measure;
      }
      assignment[i] = static_cast<VarValue>(rng.Categorical(probs));
    }
    counts[assignment] += 1.0;
  }
  auto table =
      std::make_shared<Table>("samples", Schema(VariableNames(), "count"));
  for (const auto& [vars, count] : counts) {
    table->AppendRow(vars, count);
  }
  return table;
}

StatusOr<TablePtr> BayesNet::EnumerateMarginal(
    const std::vector<std::string>& query_vars,
    const std::vector<Evidence>& evidence) const {
  MPFDB_RETURN_IF_ERROR(Validate());
  // Joint = product of CPTs, computed by the reference algebra; then filter,
  // marginalize, and normalize.
  Semiring semiring = Semiring::SumProduct();
  TablePtr joint = nodes_[0].cpt;
  for (size_t i = 1; i < nodes_.size(); ++i) {
    MPFDB_ASSIGN_OR_RETURN(
        joint, fr::ProductJoin(*joint, *nodes_[i].cpt, semiring, "joint"));
  }
  for (const Evidence& e : evidence) {
    MPFDB_ASSIGN_OR_RETURN(joint, fr::Select(*joint, e.var, e.value, "joint"));
  }
  MPFDB_ASSIGN_OR_RETURN(TablePtr marginal,
                         fr::Marginalize(*joint, query_vars, semiring, "marg"));
  MPFDB_RETURN_IF_ERROR(fr::NormalizeMeasure(*marginal, semiring));
  return marginal;
}

StatusOr<BayesNet> ChainBayesNet(int num_vars, int64_t domain_size, Rng& rng) {
  if (num_vars < 1) return Status::InvalidArgument("need at least one node");
  BayesNet bn;
  for (int i = 0; i < num_vars; ++i) {
    std::vector<std::string> parents;
    if (i > 0) parents.push_back("x" + std::to_string(i - 1));
    MPFDB_RETURN_IF_ERROR(
        bn.AddNode("x" + std::to_string(i), domain_size, parents));
  }
  MPFDB_RETURN_IF_ERROR(bn.SetRandomCpts(rng));
  return bn;
}

StatusOr<BayesNet> TreeBayesNet(int num_vars, int64_t domain_size, Rng& rng) {
  if (num_vars < 1) return Status::InvalidArgument("need at least one node");
  BayesNet bn;
  for (int i = 0; i < num_vars; ++i) {
    std::vector<std::string> parents;
    if (i > 0) parents.push_back("x" + std::to_string((i - 1) / 2));
    MPFDB_RETURN_IF_ERROR(
        bn.AddNode("x" + std::to_string(i), domain_size, parents));
  }
  MPFDB_RETURN_IF_ERROR(bn.SetRandomCpts(rng));
  return bn;
}

StatusOr<BayesNet> RandomBayesNet(int num_vars, int max_parents,
                                  int64_t domain_size, Rng& rng) {
  if (num_vars < 1) return Status::InvalidArgument("need at least one node");
  if (max_parents < 0) {
    return Status::InvalidArgument("max_parents must be >= 0");
  }
  BayesNet bn;
  for (int i = 0; i < num_vars; ++i) {
    std::vector<int> candidates(i);
    for (int j = 0; j < i; ++j) candidates[j] = j;
    rng.Shuffle(candidates);
    int num_parents = static_cast<int>(
        rng.UniformInt(0, std::min<int64_t>(i, max_parents)));
    std::vector<std::string> parents;
    for (int p = 0; p < num_parents; ++p) {
      parents.push_back("x" + std::to_string(candidates[p]));
    }
    MPFDB_RETURN_IF_ERROR(
        bn.AddNode("x" + std::to_string(i), domain_size, parents));
  }
  MPFDB_RETURN_IF_ERROR(bn.SetRandomCpts(rng));
  return bn;
}

StatusOr<TablePtr> BuildSmoothedCpt(const BayesNet& structure,
                                    const BnNode& node,
                                    const Table& family_counts, double alpha) {
  if (alpha < 0) return Status::InvalidArgument("alpha must be >= 0");
  std::vector<std::string> family = node.parents;
  family.push_back(node.name);
  if (!varset::SetEquals(family_counts.schema().variables(), family)) {
    return Status::InvalidArgument(
        "family counts for '" + node.name +
        "' must cover exactly (parents, node)");
  }
  // Index counts by (parents..., node) in `family` order.
  std::vector<size_t> order;
  for (const auto& var : family) {
    order.push_back(*family_counts.schema().IndexOf(var));
  }
  std::map<std::vector<VarValue>, double> family_map;
  for (size_t i = 0; i < family_counts.NumRows(); ++i) {
    RowView row = family_counts.Row(i);
    std::vector<VarValue> key;
    key.reserve(order.size());
    for (size_t c : order) key.push_back(row.var(c));
    family_map[std::move(key)] = row.measure;
  }

  std::vector<int64_t> domains;
  for (const auto& parent : node.parents) {
    MPFDB_ASSIGN_OR_RETURN(const BnNode* p, structure.FindNode(parent));
    domains.push_back(p->domain_size);
  }
  auto cpt = std::make_shared<Table>("cpt_" + node.name, Schema(family, "p"));
  AssignmentIterator parent_it(domains);
  do {
    double parent_total = 0;
    std::vector<double> numerators;
    for (int64_t v = 0; v < node.domain_size; ++v) {
      std::vector<VarValue> key = parent_it.values();
      key.push_back(static_cast<VarValue>(v));
      auto it = family_map.find(key);
      double n = (it == family_map.end() ? 0.0 : it->second) + alpha;
      numerators.push_back(n);
      parent_total += n;
    }
    if (parent_total == 0) {
      // No data and no smoothing: fall back to uniform.
      for (auto& n : numerators) n = 1.0;
      parent_total = static_cast<double>(node.domain_size);
    }
    for (int64_t v = 0; v < node.domain_size; ++v) {
      std::vector<VarValue> row = parent_it.values();
      row.push_back(static_cast<VarValue>(v));
      cpt->AppendRow(row, numerators[static_cast<size_t>(v)] / parent_total);
    }
  } while (parent_it.Advance());
  return cpt;
}

StatusOr<BayesNet> EstimateCpts(const BayesNet& structure, const Table& counts,
                                double alpha) {
  if (alpha < 0) return Status::InvalidArgument("alpha must be >= 0");
  Semiring semiring = Semiring::SumProduct();
  BayesNet estimated;
  for (const BnNode& node : structure.nodes()) {
    // The sufficient statistics are MPF queries over the counts relation:
    // N(parents, x) — a marginalization of `counts`.
    std::vector<std::string> family = node.parents;
    family.push_back(node.name);
    for (const auto& var : family) {
      if (!counts.schema().HasVariable(var)) {
        return Status::InvalidArgument("counts relation lacks variable '" +
                                       var + "'");
      }
    }
    MPFDB_ASSIGN_OR_RETURN(
        TablePtr family_counts,
        fr::Marginalize(counts, family, semiring, "family_counts"));
    MPFDB_ASSIGN_OR_RETURN(
        TablePtr cpt, BuildSmoothedCpt(structure, node, *family_counts, alpha));
    MPFDB_RETURN_IF_ERROR(estimated.AddNode(node.name, node.domain_size,
                                            node.parents, std::move(cpt)));
  }
  return estimated;
}

}  // namespace mpfdb::bn
