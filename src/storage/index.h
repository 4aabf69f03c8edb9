#ifndef MPFDB_STORAGE_INDEX_H_
#define MPFDB_STORAGE_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/hash_table.h"
#include "storage/table.h"
#include "util/status.h"

namespace mpfdb {

// A hash index over one variable column of a table: value -> row indices.
// Built eagerly from a snapshot of the table; like any database index it
// must be rebuilt (or the table re-indexed) after bulk modifications —
// Catalog-registered base tables are immutable during query evaluation.
// Values live in a Swiss table whose payloads list row ids in table order.
class HashIndex {
 public:
  // Builds an index on `var` of `table`.
  static StatusOr<std::unique_ptr<HashIndex>> Build(const Table& table,
                                                    const std::string& var);

  const std::string& var() const { return var_; }
  size_t indexed_rows() const { return indexed_rows_; }

  // Row indices with var == value (empty vector if none).
  const std::vector<size_t>& Lookup(VarValue value) const;

 private:
  HashIndex(std::string var, size_t indexed_rows)
      : var_(std::move(var)), indexed_rows_(indexed_rows) {}

  static uint64_t KeyOf(VarValue value) {
    return static_cast<uint64_t>(static_cast<uint32_t>(value));
  }

  std::string var_;
  size_t indexed_rows_;
  exec::SwissTable<std::vector<size_t>> buckets_;
};

}  // namespace mpfdb

#endif  // MPFDB_STORAGE_INDEX_H_
