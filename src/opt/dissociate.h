#ifndef MPFDB_OPT_DISSOCIATE_H_
#define MPFDB_OPT_DISSOCIATE_H_

#include <string>
#include <vector>

#include "plan/plan.h"
#include "storage/catalog.h"
#include "util/status.h"

namespace mpfdb::opt {

// Dissociation-based bounds (Gatterbauer & Suciu): splitting a variable x
// that couples k factors into per-factor copies x__d0..x__d{k-1} — each
// marginalized independently — makes the view's hypergraph strictly less
// cyclic while aggregating a *superset* of the exact query's assignments
// (the exact answer is the diagonal x__d0 = ... = x__d{k-1}). Under a
// semiring whose Add is superset-monotone (Semiring::AddMonotoneNondecreasing)
// the dissociated query therefore bounds the exact answer from above; under
// kMinSum, from below. The opposite bound comes from *conditioning*: pinning
// each split variable to one value via ordinary query selections aggregates
// a subset of the assignments. Both relaxations are plain MPF queries the
// existing optimizer/executor stack runs unchanged — the whole pass is a
// query rewrite plus a scratch catalog of renamed-column table clones that
// share all row data with the originals.

// Which side of the exact answer a rewritten query bounds.
enum class BoundSide { kLower, kUpper };

// The side a dissociated (superset) query bounds under `semiring`; the
// conditioned (subset) query bounds the other side.
BoundSide DissociatedBoundSide(const Semiring& semiring);

// Picks the variables to split: GYO-reduce the view's hypergraph and, while
// a cyclic core remains, split the variable with the highest degree (number
// of core hyperedges containing it). Query group variables and variables
// pinned by a selection are never split — a group variable must survive to
// the output, and a selection already decouples its variable. Returns the
// split set in split order (deterministic; empty for acyclic views, where
// the exact query is the bound).
StatusOr<std::vector<std::string>> ChooseSplitVars(const MpfViewDef& view,
                                                   const MpfQuerySpec& query,
                                                   const Catalog& catalog);

// A dissociated view: a scratch catalog (sharing every unsplit table with
// `catalog`) plus the rewritten view/query to run against it.
struct DissociatedQuery {
  Catalog catalog;
  MpfViewDef view;
  MpfQuerySpec query;
  // Copy variables introduced, e.g. {"x__d0", "x__d1"} for a split of x
  // across two factors. Registered in `catalog` with x's domain size.
  std::vector<std::string> copy_vars;
};

// Rewrites `view` by splitting each variable of `split_vars` into per-factor
// copies. Tables containing a split variable are cloned with renamed columns
// (row data shared); the clone of table T is registered as T + `suffix`.
// Selections on split variables are duplicated onto every copy; group
// variables must not be split (kInvalidArgument). Fails with
// kFailedPrecondition when the semiring's bound orientation requires
// non-negative measures (sum_product) and a factor violates it.
StatusOr<DissociatedQuery> DissociateView(
    const MpfViewDef& view, const MpfQuerySpec& query, const Catalog& catalog,
    const std::vector<std::string>& split_vars,
    const std::string& suffix = "__dissoc");

// The conditioned companion query: `query` plus one selection per split
// variable pinning it to a heuristically chosen value — the value whose
// per-factor Add-folds, Multiply-combined across the factors containing the
// variable, score best (argmax under superset-monotone semirings for a tight
// lower bound; argmin under kMinSum for a tight upper bound; ties to the
// lowest value). Runs against the *original* catalog and view.
StatusOr<MpfQuerySpec> ConditionQuery(
    const MpfViewDef& view, const MpfQuerySpec& query, const Catalog& catalog,
    const std::vector<std::string>& split_vars);

}  // namespace mpfdb::opt

#endif  // MPFDB_OPT_DISSOCIATE_H_
