#ifndef MPFDB_SEMIRING_SEMIRING_H_
#define MPFDB_SEMIRING_SEMIRING_H_

#include <algorithm>
#include <string>

#include "util/status.h"

namespace mpfdb {

// The commutative semirings over which MPF queries are defined (Section 2 of
// the paper). A semiring supplies the "additive" operation used by the
// marginalizing GroupBy aggregate and the "multiplicative" operation used by
// the product join. Measures are stored as double regardless of semiring; the
// boolean semiring uses 0.0 / 1.0.
enum class SemiringKind {
  // (R, +, *): SUM aggregate, product join. Probabilistic inference.
  kSumProduct = 0,
  // (R ∪ {+inf}, min, +): MIN aggregate, additive join. Shortest-path /
  // cheapest-configuration decision support ("minimum investment").
  kMinSum,
  // (R ∪ {-inf}, max, +): MAX aggregate, additive join.
  kMaxSum,
  // ([0, inf), max, *): MAX aggregate, product join. MPE / Viterbi.
  kMaxProduct,
  // ({0,1}, or, and): logical satisfiability / reachability.
  kBoolOrAnd,
  // Sum-product in log space: measures are log-probabilities, Multiply is
  // +, Add is log-sum-exp. Isomorphic to kSumProduct but numerically stable
  // for long products of small probabilities (large Bayesian networks).
  kLogSumProduct,
};

// Runtime semiring descriptor. Cheap value type; all operations are branchy
// but trivially inlined in the executor's hot loops via Kind() switches.
class Semiring {
 public:
  explicit Semiring(SemiringKind kind) : kind_(kind) {}

  static Semiring SumProduct() { return Semiring(SemiringKind::kSumProduct); }
  static Semiring MinSum() { return Semiring(SemiringKind::kMinSum); }
  static Semiring MaxSum() { return Semiring(SemiringKind::kMaxSum); }
  static Semiring MaxProduct() { return Semiring(SemiringKind::kMaxProduct); }
  static Semiring BoolOrAnd() { return Semiring(SemiringKind::kBoolOrAnd); }
  static Semiring LogSumProduct() {
    return Semiring(SemiringKind::kLogSumProduct);
  }

  // Parses "sum_product", "min_sum", "max_sum", "max_product" or
  // "bool_or_and" (aliases: "sum", "min", "max", "or").
  static StatusOr<Semiring> FromName(const std::string& name);

  SemiringKind kind() const { return kind_; }
  std::string name() const;

  // Name of the additive aggregate as it appears in queries (SUM/MIN/MAX/OR).
  std::string aggregate_name() const;

  // The additive (marginalization) operation.
  double Add(double a, double b) const;
  // The multiplicative (product-join) operation.
  double Multiply(double a, double b) const;

  // Identity of Add: the value of an empty aggregate.
  double AddIdentity() const;
  // Identity of Multiply: the implicit measure of a plain relation.
  double MultiplyIdentity() const;

  // True if folding Add over a *superset* of terms can only move the result
  // up (or keep it): max/or are selection over more candidates, sum and
  // log-sum-exp accumulate more mass. False only for kMinSum, where min over
  // more candidates can only move *down*. This is the orientation the
  // dissociation pass uses: a dissociated plan aggregates a superset of the
  // exact query's assignments, so it bounds the exact answer from above when
  // this is true and from below for kMinSum; a conditioned plan (a subset of
  // assignments) bounds from the opposite side. For kSumProduct the superset
  // guarantee additionally requires non-negative measures — see
  // AddMonotoneNeedsNonNegative().
  bool AddMonotoneNondecreasing() const {
    return kind_ != SemiringKind::kMinSum;
  }

  // True when AddMonotoneNondecreasing()'s superset guarantee only holds for
  // non-negative measures (plain floating-point +, where an extra negative
  // term moves the fold down). The dissociation pass verifies the factors
  // and refuses with kFailedPrecondition otherwise. The other kinds need no
  // check: min/max/or are selections regardless of sign, and
  // log-sum-product's measures are logs of implicitly non-negative weights.
  bool AddMonotoneNeedsNonNegative() const {
    return kind_ == SemiringKind::kSumProduct;
  }

  // True if Multiply has an inverse almost everywhere, which the update
  // semijoin of Belief Propagation requires (Definition 6 of the paper).
  bool HasDivision() const;
  // Inverse of Multiply: Divide(Multiply(a, b), b) == a for b invertible.
  // For min/max-sum this is subtraction; for the boolean semiring it aborts
  // via Status in callers (guard with HasDivision()).
  double Divide(double a, double b) const;

  bool operator==(const Semiring& other) const { return kind_ == other.kind_; }

 private:
  SemiringKind kind_;
};

// Dispatches `body` with a monomorphized Add for each built-in semiring so
// hot accumulate loops inline the arithmetic. Every fast path performs
// exactly the IEEE operation Semiring::Add performs; the executor's serial
// and parallel folds and exec::MarginalizeTable all go through here, so
// their per-key arithmetic is identical.
template <class Body>
void DispatchAdd(const Semiring& semiring, Body&& body) {
  switch (semiring.kind()) {
    case SemiringKind::kSumProduct:
      body([](double a, double b) { return a + b; });
      break;
    case SemiringKind::kMinSum:
      body([](double a, double b) { return std::min(a, b); });
      break;
    case SemiringKind::kMaxSum:
    case SemiringKind::kMaxProduct:
      body([](double a, double b) { return std::max(a, b); });
      break;
    default:
      body([&semiring](double a, double b) { return semiring.Add(a, b); });
      break;
  }
}

}  // namespace mpfdb

#endif  // MPFDB_SEMIRING_SEMIRING_H_
