#include "storage/csv.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>

#include "util/strings.h"

namespace mpfdb {

namespace {

// Position-stamped parse error, e.g. "line 7 of data.csv: bad measure ...".
Status ParseError(size_t line_number, const std::string& path,
                  const std::string& what) {
  return Status::InvalidArgument("line " + std::to_string(line_number) +
                                 " of " + path + ": " + what);
}

// True if `end` (the strtol/strtod stop position) consumed the whole field
// up to trailing whitespace. Rejects trailing garbage like "12abc", and
// embedded NUL bytes.
bool ConsumedField(const std::string& field, const char* end) {
  const char* stop = field.c_str() + field.size();
  if (end == field.c_str()) return false;
  for (const char* p = end; p != stop; ++p) {
    if (!std::isspace(static_cast<unsigned char>(*p))) return false;
  }
  return true;
}

// Cuts the next '\n'-terminated line off the front of `text`.
std::string_view NextLine(std::string_view* text) {
  size_t end = text->find('\n');
  std::string_view line = text->substr(0, end);
  text->remove_prefix(end == std::string_view::npos ? text->size() : end + 1);
  return line;
}

}  // namespace

std::string FormatTableCsv(const Table& table) {
  std::ostringstream out;
  // Round-trip-exact doubles.
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  const Schema& schema = table.schema();
  for (size_t i = 0; i < schema.arity(); ++i) {
    out << schema.variables()[i] << ",";
  }
  out << schema.measure_name() << "\n";
  for (size_t i = 0; i < table.NumRows(); ++i) {
    RowView row = table.Row(i);
    for (size_t j = 0; j < row.arity; ++j) {
      out << row.var(j) << ",";
    }
    out << row.measure << "\n";
  }
  return std::move(out).str();
}

StatusOr<std::unique_ptr<Table>> ParseTableCsv(const std::string& table_name,
                                               std::string_view text,
                                               const std::string& path) {
  if (text.empty()) {
    return Status::InvalidArgument("empty CSV file: " + path);
  }
  std::vector<std::string> columns = Split(NextLine(&text), ',');
  std::string measure_name = columns.back();
  columns.pop_back();
  auto table = std::make_unique<Table>(
      table_name, Schema(columns, std::move(measure_name)));

  std::vector<VarValue> vars(columns.size());
  size_t line_number = 1;
  while (!text.empty()) {
    std::string_view line = NextLine(&text);
    ++line_number;
    if (StripWhitespace(line).empty()) continue;
    std::vector<std::string> fields = Split(line, ',');
    if (fields.size() != columns.size() + 1) {
      return ParseError(line_number, path,
                        "expected " + std::to_string(columns.size() + 1) +
                            " fields, got " + std::to_string(fields.size()));
    }
    for (size_t i = 0; i < columns.size(); ++i) {
      errno = 0;
      char* end = nullptr;
      long value = std::strtol(fields[i].c_str(), &end, 10);
      if (errno != 0 || !ConsumedField(fields[i], end)) {
        return ParseError(line_number, path,
                          "bad variable value '" + fields[i] +
                              "' in column '" + columns[i] + "'");
      }
      if (value < std::numeric_limits<VarValue>::min() ||
          value > std::numeric_limits<VarValue>::max()) {
        return ParseError(line_number, path,
                          "variable value '" + fields[i] + "' in column '" +
                              columns[i] + "' overflows 32 bits");
      }
      vars[i] = static_cast<VarValue>(value);
    }
    errno = 0;
    char* end = nullptr;
    double measure = std::strtod(fields.back().c_str(), &end);
    // ERANGE also flags subnormal results, which FormatTableCsv writes and
    // which parse back exactly; overflow to infinity and underflow to zero
    // are errors.
    if ((errno != 0 && (std::isinf(measure) || measure == 0.0)) ||
        !ConsumedField(fields.back(), end)) {
      return ParseError(line_number, path,
                        "bad measure value '" + fields.back() + "'");
    }
    if (std::isnan(measure)) {
      return ParseError(line_number, path,
                        "measure is NaN; measures must be numeric");
    }
    table->AppendRow(vars, measure);
  }
  return table;
}

}  // namespace mpfdb
