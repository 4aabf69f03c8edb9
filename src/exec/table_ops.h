#ifndef MPFDB_EXEC_TABLE_OPS_H_
#define MPFDB_EXEC_TABLE_OPS_H_

#include <string>
#include <vector>

#include "plan/plan.h"
#include "semiring/semiring.h"
#include "storage/table.h"
#include "util/status.h"

namespace mpfdb::exec {

// Table-at-a-time operators for whole-table reductions (the VE-cache's
// served reads). Each returns exactly the table its fr:: counterpart in
// fr/algebra.h returns — same rows, same canonical row order, same measure
// bits — but keys rows on packed 64-bit integers instead of per-row vector
// keys.
//
// Keys are packed in mixed radix over each key column's observed
// [min, max], first key column most significant, so ascending packed keys
// are the canonical (lexicographic) order of the key columns. A key whose
// radix product does not fit in 64 bits falls back to the fr operator.

// Marginalization (fr::Marginalize): groups `t` on `group_vars` and folds
// each group's measures with the semiring's Add, in row order, seeded with
// the group's first measure (never AddIdentity(): 0.0 + -0.0 would drop the
// sign bit). Groups fold into a direct-address array when the packed range
// is at most a small multiple of the row count, else into a SwissTable over
// the packed key; either way they are emitted in ascending key order.
StatusOr<TablePtr> MarginalizeTable(const Table& t,
                                    const std::vector<std::string>& group_vars,
                                    const Semiring& semiring,
                                    const std::string& result_name);

// Product join (fr::ProductJoin) or, with `divide`, division join
// (fr::DivisionJoin): a natural join on the shared variables whose measure
// is Multiply(a.f, b.f), respectively Divide(a.f, b.f). Output columns are
// a's variables then b's others, rows in canonical order.
StatusOr<TablePtr> JoinTables(const Table& a, const Table& b,
                              const Semiring& semiring,
                              const std::string& result_name, bool divide);

// Measure filter (fr::FilterMeasure, the HAVING clause); schema and row
// order unchanged.
TablePtr FilterMeasureTable(const Table& t, const HavingClause& having,
                            const std::string& result_name);

}  // namespace mpfdb::exec

#endif  // MPFDB_EXEC_TABLE_OPS_H_
