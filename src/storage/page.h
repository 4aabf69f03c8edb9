#ifndef MPFDB_STORAGE_PAGE_H_
#define MPFDB_STORAGE_PAGE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "storage/schema.h"

namespace mpfdb {

// Page size of spill runs (exec/spill.h), which buffer and write their
// rows a page at a time.
inline constexpr size_t kPageSize = 8192;

// View over one raw page holding fixed-arity rows:
//   [uint32 row_count][row 0][row 1]...
// where each row is `arity` int32 variable values followed by a double
// measure. The view does not own the buffer.
class DataPage {
 public:
  explicit DataPage(std::byte* data) : data_(data) {}

  static constexpr size_t RowBytes(size_t arity) {
    return arity * sizeof(VarValue) + sizeof(double);
  }
  // Rows that fit a page for the given arity (>= 1 for any sane arity).
  static constexpr size_t RowCapacity(size_t arity) {
    return (kPageSize - sizeof(uint32_t)) / RowBytes(arity);
  }

  uint32_t row_count() const {
    uint32_t count;
    std::memcpy(&count, data_, sizeof(count));
    return count;
  }
  void set_row_count(uint32_t count) {
    std::memcpy(data_, &count, sizeof(count));
  }

  void WriteRow(size_t slot, size_t arity, const VarValue* vars,
                double measure) {
    std::byte* row = RowPtr(slot, arity);
    // Zero-arity rows (scalar tables) may pass vars == nullptr; memcpy
    // forbids null even for size 0.
    if (arity > 0) std::memcpy(row, vars, arity * sizeof(VarValue));
    std::memcpy(row + arity * sizeof(VarValue), &measure, sizeof(measure));
  }

  void ReadRow(size_t slot, size_t arity, VarValue* vars,
               double* measure) const {
    const std::byte* row = RowPtr(slot, arity);
    if (arity > 0) std::memcpy(vars, row, arity * sizeof(VarValue));
    std::memcpy(measure, row + arity * sizeof(VarValue), sizeof(*measure));
  }

 private:
  std::byte* RowPtr(size_t slot, size_t arity) const {
    return data_ + sizeof(uint32_t) + slot * RowBytes(arity);
  }

  std::byte* data_;
};

}  // namespace mpfdb

#endif  // MPFDB_STORAGE_PAGE_H_
