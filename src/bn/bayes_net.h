#ifndef MPFDB_BN_BAYES_NET_H_
#define MPFDB_BN_BAYES_NET_H_

#include <memory>
#include <string>
#include <vector>

#include "plan/plan.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "util/rng.h"
#include "util/status.h"

namespace mpfdb::bn {

// A node of a discrete Bayesian Network: a categorical variable, its parent
// set, and its conditional probability table. The CPT is a functional
// relation over (parents..., name; p) — exactly the "local functional
// relation" of Section 4 — complete over the cross product of domains, with
// probabilities summing to 1 for every parent configuration.
struct BnNode {
  std::string name;
  int64_t domain_size = 2;
  std::vector<std::string> parents;
  TablePtr cpt;
};

// A discrete Bayesian Network (Section 4). The joint distribution is the
// product of the node CPTs; ToMpfView materializes exactly that product as
// an MPF view, making every inference task an MPF query.
class BayesNet {
 public:
  BayesNet() = default;

  // Adds a node. Parents must already exist. The CPT schema must be
  // (parents..., name; p) up to variable order; pass nullptr to leave the
  // CPT unset (fill later via EstimateCpts or SetUniformCpts).
  Status AddNode(const std::string& name, int64_t domain_size,
                 const std::vector<std::string>& parents,
                 TablePtr cpt = nullptr);

  // Checks every CPT: present, complete, FD-satisfying, rows normalized per
  // parent configuration.
  Status Validate() const;

  const std::vector<BnNode>& nodes() const { return nodes_; }
  StatusOr<const BnNode*> FindNode(const std::string& name) const;
  std::vector<std::string> VariableNames() const;

  // Fills every unset CPT with the uniform distribution.
  Status SetUniformCpts();
  // Fills every unset CPT with random distributions (Dirichlet-like: uniform
  // draws normalized per parent configuration).
  Status SetRandomCpts(Rng& rng);

  // Registers the variables and CPT tables into `catalog` (names prefixed
  // with `prefix` + "cpt_") and returns the joint MPF view over the
  // sum-product semiring — the `create mpfview joint` of Section 4.
  StatusOr<MpfViewDef> ToMpfView(Catalog& catalog,
                                 const std::string& prefix = "") const;

  // Draws `n` ancestral samples and returns them as a counts functional
  // relation over all variables: (vars...; count).
  StatusOr<TablePtr> Sample(size_t n, Rng& rng) const;

  // Ground-truth inference by explicit enumeration of the joint:
  // P(query_vars | evidence), normalized. Exponential; for tests and small
  // nets only.
  struct Evidence {
    std::string var;
    VarValue value;
  };
  StatusOr<TablePtr> EnumerateMarginal(
      const std::vector<std::string>& query_vars,
      const std::vector<Evidence>& evidence) const;

 private:
  // Nodes in insertion order (a topological order by construction, since
  // parents must precede children).
  std::vector<BnNode> nodes_;
};

// Structure generators used by tests, examples, and the inference bench.
// All variables share `domain_size`.
StatusOr<BayesNet> ChainBayesNet(int num_vars, int64_t domain_size, Rng& rng);
// A complete binary in-tree: each non-root node's parent is node (i-1)/2.
StatusOr<BayesNet> TreeBayesNet(int num_vars, int64_t domain_size, Rng& rng);
// Random DAG: node i draws min(i, max_parents) distinct parents among 0..i-1.
StatusOr<BayesNet> RandomBayesNet(int num_vars, int max_parents,
                                  int64_t domain_size, Rng& rng);

// Maximum-likelihood CPT estimation with Laplace smoothing `alpha` from a
// counts functional relation over (at least) all of the structure's
// variables — the Section 4 estimation step, with the counts themselves
// computable as MPF queries over the data. Returns a copy of `structure`
// with CPTs replaced.
StatusOr<BayesNet> EstimateCpts(const BayesNet& structure, const Table& counts,
                                double alpha);

// Builds one node's complete, Laplace-smoothed CPT from a counts functional
// relation over exactly the node's family (parents..., node). Shared by
// EstimateCpts and the multi-table EstimateCptsFromView.
StatusOr<TablePtr> BuildSmoothedCpt(const BayesNet& structure,
                                    const BnNode& node,
                                    const Table& family_counts, double alpha);

}  // namespace mpfdb::bn

#endif  // MPFDB_BN_BAYES_NET_H_
