#ifndef MPFDB_STORAGE_TABLE_H_
#define MPFDB_STORAGE_TABLE_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "storage/mvcc.h"
#include "storage/schema.h"
#include "util/status.h"

namespace mpfdb {

// Lightweight view of one row of a Table: `vars` points at `arity`
// consecutive variable values; `measure` is the row's measure value. Valid
// only while the owning Table is alive and unmodified.
struct RowView {
  const VarValue* vars;
  size_t arity;
  double measure;

  VarValue var(size_t i) const { return vars[i]; }
};

// A functional relation instance: a flat row-major store of variable values
// plus a parallel measure column. This layout keeps 10^6-row tables cheap to
// scan and sort, which the experiment workloads need.
//
// Storage is multi-version-friendly:
//  * The variable block is held behind a shared_ptr and copy-on-write: a
//    Clone shares it, and only mutators (append/sort) that find it shared
//    copy it. Measure updates never touch it, so every version of a table
//    shares one variable block.
//  * The measure column has two modes. Freshly built tables use a flat
//    std::vector<double> (cheapest to append and scan). SealChunked()
//    converts it to an mvcc::VersionedColumn of shared 1 KiB-row chunks;
//    from then on Clone and WithMeasureUpdates are O(touched chunks), which
//    is what makes high-rate measure updates cheap (a new version shares
//    every unchanged chunk with its predecessor).
//
// Table does not itself enforce the functional dependency vars -> measure;
// operators that construct tables guarantee it, and
// fr::CheckFunctionalDependency verifies it in tests.
class Table {
 public:
  Table(std::string name, Schema schema)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        var_data_(std::make_shared<std::vector<VarValue>>()) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  // Optional declared primary key: a subset of the variables that
  // functionally determines the whole tuple. Empty means "no key known"
  // (beyond the trivial all-variables key every FR has). Used by
  // Proposition 1 to justify projection-based variable elimination.
  const std::vector<std::string>& key_vars() const { return key_vars_; }
  Status SetKeyVars(std::vector<std::string> key_vars);

  size_t NumRows() const {
    return chunked_ ? vmeasures_.size() : measures_.size();
  }
  bool Empty() const { return NumRows() == 0; }

  // Appends a row; `vars` must have exactly schema().arity() values.
  void AppendRow(const std::vector<VarValue>& vars, double measure);
  // Appends a row from a raw pointer to schema().arity() values (used by
  // operators on flat data). Named distinctly from AppendRow because a
  // braced `{0}` argument would otherwise bind to this overload as a null
  // pointer constant.
  void AppendRowRaw(const VarValue* vars, double measure);
  // Appends `n` rows in one step: `vars` holds n * schema().arity() values
  // row-major, `measures` n values. The bulk form of AppendRowRaw for
  // producers that build whole row blocks (kernels, the wire decoder).
  void AppendRows(const VarValue* vars, const double* measures, size_t n);

  RowView Row(size_t i) const {
    return RowView{var_data_->data() + i * schema_.arity(), schema_.arity(),
                   chunked_ ? vmeasures_.Get(i) : measures_[i]};
  }
  double measure(size_t i) const {
    return chunked_ ? vmeasures_.Get(i) : measures_[i];
  }
  // In-place store. On a chunked table this is copy-on-write at chunk
  // granularity: versions sharing the chunk are unaffected.
  void set_measure(size_t i, double value) {
    if (chunked_) {
      vmeasures_.Set(i, value);
    } else {
      measures_[i] = value;
    }
  }

  // Pre-allocates storage for `n` rows.
  void Reserve(size_t n);

  // Batch readout for the executor's scans: copies rows
  // [start, start + n) into caller-provided column buffers. `cols_out` must
  // hold arity() columns of `col_stride` values each (column-major, so
  // column c of row r lands at cols_out[c * col_stride + r - start]);
  // `measures_out` must hold n values. The caller guarantees
  // start + n <= NumRows() and n <= col_stride.
  void ReadRangeColumnar(size_t start, size_t n, size_t col_stride,
                         VarValue* cols_out, double* measures_out) const;

  // Sorts rows lexicographically by the variable columns listed in
  // `key_indices` (indices into the schema's variable list).
  void SortByVariables(const std::vector<size_t>& key_indices);

  // Copy with a new name. Shares the variable block always, and the measure
  // chunks when this table is chunked — O(chunks) rather than O(rows). A
  // flat table's measures are deep-copied. Either way the copy has value
  // semantics: writes through it never reach this table.
  std::unique_ptr<Table> Clone(const std::string& new_name) const;

  // Clone with the variable columns renamed positionally (`new_vars` must
  // have schema().arity() names). Same sharing as Clone — the dissociation
  // pass uses this to rebuild a factor over split-variable copies without
  // touching row data. Declared key variables are dropped (their names no
  // longer apply).
  std::unique_ptr<Table> CloneRenamed(const std::string& new_name,
                                      std::vector<std::string> new_vars) const;

  // --- Multi-version measure storage ---

  bool chunked() const { return chunked_; }
  // Converts the flat measure vector into shared chunks (idempotent). Call
  // once a table's row set is final and it is about to be published for
  // versioned updates; afterwards Clone / WithMeasureUpdates share chunks.
  void SealChunked();

  // A new version of this table with the given (row, measure) stores
  // applied: shares the variable block and every untouched measure chunk.
  // Seals a flat table's measures on the way (one O(rows) conversion, after
  // which every version step is O(touched chunks)).
  std::shared_ptr<Table> WithMeasureUpdates(
      const std::vector<std::pair<size_t, double>>& updates,
      const std::string& new_name) const;

  // True if both tables share the same underlying variable block (the
  // measure-update fast path; Catalog::ReplaceTable keeps indexes alive on
  // this evidence).
  bool SharesVarDataWith(const Table& other) const {
    return var_data_ == other.var_data_;
  }
  // Number of measure chunks this table shares with `other` (0 unless both
  // are chunked) — structural-sharing assertions in the MVCC tests.
  size_t SharedMeasureChunksWith(const Table& other) const {
    return (chunked_ && other.chunked_)
               ? vmeasures_.SharedChunksWith(other.vmeasures_)
               : 0;
  }
  size_t NumMeasureChunks() const {
    return chunked_ ? vmeasures_.NumChunks() : 0;
  }

  // Multi-line human-readable dump (for examples and debugging); prints at
  // most `max_rows` rows.
  std::string ToString(size_t max_rows = 20) const;

  // Flat measure vector, exposed for the executor's tight loops; only
  // valid on a non-chunked table (the executor and tests that use it
  // operate on freshly built results, which are always flat).
  const std::vector<double>& measures() const {
    assert(!chunked_);
    return measures_;
  }

 private:
  // Copy-if-shared accessor for the variable block (callers mutate rows).
  std::vector<VarValue>& MutableVars();
  // Drops chunked mode, restoring the flat vector (used by the rare
  // structural mutators — append/sort — applied to a sealed table).
  void EnsureFlat();

  std::string name_;
  Schema schema_;
  std::vector<std::string> key_vars_;
  // Row-major, stride = schema_.arity(); shared copy-on-write across
  // versions/clones (measure updates never copy it).
  std::shared_ptr<std::vector<VarValue>> var_data_;
  std::vector<double> measures_;      // flat mode (chunked_ == false)
  mvcc::VersionedColumn vmeasures_;   // chunked mode (chunked_ == true)
  bool chunked_ = false;
};

using TablePtr = std::shared_ptr<Table>;

}  // namespace mpfdb

#endif  // MPFDB_STORAGE_TABLE_H_
