#ifndef MPFDB_EXEC_TABLE_OPS_H_
#define MPFDB_EXEC_TABLE_OPS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "plan/plan.h"
#include "semiring/semiring.h"
#include "storage/table.h"
#include "util/status.h"

namespace mpfdb::exec {

// Table-at-a-time operators for whole-table reductions (the VE-cache's
// build and served reads). Each returns exactly the table its fr::
// counterpart in fr/algebra.h returns — same rows, same canonical row order,
// same measure bits — but keys rows on packed 64-bit integers instead of
// per-row vector keys.
//
// Keys are packed in mixed radix over each key column's observed
// [min, max], first key column most significant, so ascending packed keys
// are the canonical (lexicographic) order of the key columns. A key whose
// radix product does not fit in 64 bits falls back to the fr operator.
//
// On request, each kernel also reports the row-level dataflow it computed
// (which input rows made each output row); the VE-cache's delta plan is
// built from these maps. Asking for none costs nothing.

// Marginalization (fr::Marginalize): groups `t` on `group_vars` and folds
// each group's measures with the semiring's Add, in row order, seeded with
// the group's first measure (never AddIdentity(): 0.0 + -0.0 would drop the
// sign bit). Groups fold into a direct-address array when the packed range
// is at most a small multiple of the row count, else into a SwissTable over
// the packed key; either way they are emitted in ascending key order. A
// non-null `group_of` receives, per input row, the output row it folded
// into.
StatusOr<TablePtr> MarginalizeTable(const Table& t,
                                    const std::vector<std::string>& group_vars,
                                    const Semiring& semiring,
                                    const std::string& result_name,
                                    std::vector<uint32_t>* group_of = nullptr);

// Per output row of a join, the input rows it came from.
struct JoinRows {
  std::vector<uint32_t> left;   // row of `a`
  std::vector<uint32_t> right;  // row of `b`
};

// Product join (fr::ProductJoin) or, with `divide`, division join
// (fr::DivisionJoin): a natural join on the shared variables whose measure
// is Multiply(a.f, b.f), respectively Divide(a.f, b.f). Output columns are
// a's variables then b's others, rows in canonical order. The inputs are
// functional relations (no two rows share their variable values).
//
// The join emits canonical order directly, with no sort of its output: b's
// rows are ordered by (shared key, the columns b adds), and a's rows are
// walked in canonical order (checked in one linear pass, sorted on their
// packed row key only when out of order). Each a row finds its b rows
// through a direct-address offset array when the shared key's packed range
// is dense, else by binary search.
StatusOr<TablePtr> JoinTables(const Table& a, const Table& b,
                              const Semiring& semiring,
                              const std::string& result_name, bool divide,
                              JoinRows* rows = nullptr);

// The dataflow of an update semijoin t ⋉ s. Groups are the separator
// assignments of t (the shared variables' values), numbered in ascending
// order: group g is row g of Marginalize(t, separator).
struct SemijoinRows {
  static constexpr uint32_t kNoGroup = 0xffffffffu;
  size_t num_groups = 0;
  std::vector<uint32_t> t_group_of;  // t row -> group
  std::vector<uint32_t> s_group_of;  // s row -> group, kNoGroup if t lacks it
  std::vector<uint32_t> out_to_t;    // output row -> t row
};

// Update semijoin (fr::UpdateSemijoin, Definition 6) in its four steps:
// marginalize s and t onto their shared variables, divide the first
// marginal by the second, and product-join t with that message.
StatusOr<TablePtr> UpdateSemijoinTable(const Table& t, const Table& s,
                                       const Semiring& semiring,
                                       const std::string& result_name,
                                       SemijoinRows* rows = nullptr);

// The order of `t`'s rows sorted canonically (lexicographically on all its
// variables, ties in row order): the identity when a linear check finds
// them in order, else a radix sort on the packed row key (a comparison of
// packed key words when the row key spans more than 64 bits).
std::vector<uint32_t> CanonicalRowOrder(const Table& t);

// Measure filter (fr::FilterMeasure, the HAVING clause); schema and row
// order unchanged.
TablePtr FilterMeasureTable(const Table& t, const HavingClause& having,
                            const std::string& result_name);

}  // namespace mpfdb::exec

#endif  // MPFDB_EXEC_TABLE_OPS_H_
