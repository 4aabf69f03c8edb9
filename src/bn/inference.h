#ifndef MPFDB_BN_INFERENCE_H_
#define MPFDB_BN_INFERENCE_H_

#include <map>
#include <string>
#include <vector>

#include "bn/bayes_net.h"
#include "core/database.h"
#include "util/status.h"

namespace mpfdb::bn {

// Engine-backed exact inference helpers. Each call registers the network's
// CPTs as functional relations in a scratch catalog and evaluates the
// corresponding MPF query with the given optimizer (Section 4 end to end).

// Posterior marginal P(query_var | evidence), normalized.
StatusOr<TablePtr> InferMarginal(
    const BayesNet& bn, const std::string& query_var,
    const std::vector<BayesNet::Evidence>& evidence,
    const std::string& optimizer = "ve(deg) ext.");

// The probability of the single most likely complete assignment consistent
// with the evidence: an MPF query over the max-product semiring with empty
// query variables — the same plans, a different semiring, exactly the
// generality Section 2 promises.
StatusOr<double> MpeValue(const BayesNet& bn,
                          const std::vector<BayesNet::Evidence>& evidence,
                          const std::string& optimizer = "ve(deg) ext.");

// CPT estimation when the training data lives in *multiple* tables joined by
// an MPF view (Section 4: "for data in multiple tables where a join
// dependency holds, the MPF setting can be used to compute the required
// counts"). Each family's sufficient statistics N(parents, child) are
// computed as MPF count queries against `view` (whose relations carry count
// measures — use 1 per row for plain indicator tables), then normalized with
// Laplace smoothing `alpha`.
StatusOr<BayesNet> EstimateCptsFromView(const BayesNet& structure,
                                        Database& db,
                                        const std::string& view_name,
                                        double alpha,
                                        const std::string& optimizer =
                                            "ve(deg) ext.");

// The most likely complete assignment itself, by iterative conditioning:
// repeatedly pick a variable, compute its max-marginal given everything
// fixed so far, and fix its argmax. n max-product MPF queries; exact
// regardless of ties.
StatusOr<std::map<std::string, VarValue>> MpeAssignment(
    const BayesNet& bn, const std::vector<BayesNet::Evidence>& evidence,
    const std::string& optimizer = "ve(deg) ext.");

}  // namespace mpfdb::bn

#endif  // MPFDB_BN_INFERENCE_H_
