#ifndef MPFDB_STORAGE_CSV_H_
#define MPFDB_STORAGE_CSV_H_

#include <memory>
#include <string>
#include <string_view>

#include "storage/table.h"
#include "util/status.h"

namespace mpfdb {

// Formats `table` as CSV with a header row naming the variable columns
// followed by the measure column. Measures print with max_digits10, so a
// parse gives back the same bits.
std::string FormatTableCsv(const Table& table);

// Parses CSV text as written by FormatTableCsv. The last header column
// becomes the measure; all other columns are variables with integer values.
// `path` names the text in error messages.
StatusOr<std::unique_ptr<Table>> ParseTableCsv(const std::string& table_name,
                                               std::string_view text,
                                               const std::string& path);

}  // namespace mpfdb

#endif  // MPFDB_STORAGE_CSV_H_
