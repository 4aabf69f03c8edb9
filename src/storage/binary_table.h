#ifndef MPFDB_STORAGE_BINARY_TABLE_H_
#define MPFDB_STORAGE_BINARY_TABLE_H_

#include <memory>
#include <string>
#include <string_view>

#include "storage/table.h"
#include "util/status.h"

namespace mpfdb {

// The flat binary table format: a header, then the rows packed back to back.
//
//   header  u32 magic "MPFT", u32 arity, u64 row count, the measure name,
//           `arity` variable names, u32 key count, the key variable names
//           (a name is a u32 byte length and its bytes)
//   rows    row count × (arity × int32 value, f64 measure)
//
// Integers and doubles are stored in host byte order. A reader knows the
// exact file size from the header alone, so it rejects any file whose size
// is not the header size plus row count × DataPage::RowBytes(arity) before
// it reads a row.

// Serializes `table` in one pass. Persistence (core/persistence.h) writes,
// fsyncs and checksums the bytes.
std::string EncodeTableBinary(const Table& table);

// Parses bytes written by EncodeTableBinary into a table named `table_name`,
// in one pass. Malformed bytes are kInvalidArgument.
StatusOr<std::unique_ptr<Table>> DecodeTableBinary(
    const std::string& table_name, std::string_view bytes);

}  // namespace mpfdb

#endif  // MPFDB_STORAGE_BINARY_TABLE_H_
