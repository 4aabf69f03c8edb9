#ifndef MPFDB_COST_AGM_H_
#define MPFDB_COST_AGM_H_

#include <string>
#include <vector>

namespace mpfdb::agm {

// One hyperedge of a join hypergraph: the variables a relation (or
// intermediate factor) covers plus its cardinality.
struct Edge {
  std::vector<std::string> vars;
  double card = 0;
};

// The AGM bound (Atserias-Grohe-Marx): the worst-case output size of the
// natural join of `edges` restricted to `vars` is
//   min over fractional edge covers x of  Π |R|^{x_R},
// equivalently exp of the optimum of the covering LP. We solve the LP dual —
//   max Σ_v y_v  s.t.  Σ_{v ∈ R} y_v ≤ ln|R| for every edge R,  y ≥ 0
// — with a small dense simplex using Bland's rule, so the result is
// deterministic across platforms. Variables of `vars` not covered by any
// edge make the bound infinite conceptually; here they are ignored (the
// caller guarantees every variable is covered). Empty `vars` yields 1.
// Edges with card < 1 are treated as card 1.
double AgmBound(const std::vector<std::string>& vars,
                const std::vector<Edge>& edges);

}  // namespace mpfdb::agm

#endif  // MPFDB_COST_AGM_H_
