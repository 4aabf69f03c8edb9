#include "storage/binary_table.h"

#include <cstring>

#include "storage/page.h"

namespace mpfdb {
namespace {

constexpr uint32_t kMagic = 0x5446504D;  // "MPFT" in little-endian bytes

void PutRaw(std::string* out, const void* src, size_t n) {
  out->append(static_cast<const char*>(src), n);
}
void PutU32(std::string* out, uint32_t v) { PutRaw(out, &v, sizeof(v)); }
void PutStr(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

// Bounds-checked cursor over the header bytes.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  template <typename T>
  StatusOr<T> Get() {
    T v;
    MPFDB_RETURN_IF_ERROR(Take(&v, sizeof(v)));
    return v;
  }
  StatusOr<std::string> Str() {
    MPFDB_ASSIGN_OR_RETURN(uint32_t size, Get<uint32_t>());
    if (size > bytes_.size() - offset_) return Truncated();
    std::string s(bytes_.substr(offset_, size));
    offset_ += size;
    return s;
  }
  size_t offset() const { return offset_; }

 private:
  Status Take(void* dst, size_t n) {
    if (n > bytes_.size() - offset_) return Truncated();
    std::memcpy(dst, bytes_.data() + offset_, n);
    offset_ += n;
    return Status::Ok();
  }
  static Status Truncated() {
    return Status::InvalidArgument("binary table header is truncated");
  }

  std::string_view bytes_;
  size_t offset_ = 0;
};

}  // namespace

std::string EncodeTableBinary(const Table& table) {
  const Schema& schema = table.schema();
  const size_t arity = schema.arity();
  std::string out;
  PutU32(&out, kMagic);
  PutU32(&out, static_cast<uint32_t>(arity));
  uint64_t rows = table.NumRows();
  PutRaw(&out, &rows, sizeof(rows));
  PutStr(&out, schema.measure_name());
  for (const auto& var : schema.variables()) PutStr(&out, var);
  PutU32(&out, static_cast<uint32_t>(table.key_vars().size()));
  for (const auto& var : table.key_vars()) PutStr(&out, var);
  out.reserve(out.size() + rows * DataPage::RowBytes(arity));
  for (size_t i = 0; i < rows; ++i) {
    RowView row = table.Row(i);
    if (arity > 0) PutRaw(&out, row.vars, arity * sizeof(VarValue));
    PutRaw(&out, &row.measure, sizeof(row.measure));
  }
  return out;
}

StatusOr<std::unique_ptr<Table>> DecodeTableBinary(
    const std::string& table_name, std::string_view bytes) {
  Reader reader(bytes);
  MPFDB_ASSIGN_OR_RETURN(uint32_t magic, reader.Get<uint32_t>());
  if (magic != kMagic) {
    return Status::InvalidArgument("not a binary table file (bad magic)");
  }
  MPFDB_ASSIGN_OR_RETURN(uint32_t arity, reader.Get<uint32_t>());
  MPFDB_ASSIGN_OR_RETURN(uint64_t row_count, reader.Get<uint64_t>());
  MPFDB_ASSIGN_OR_RETURN(std::string measure_name, reader.Str());
  // Every name takes at least its 4-byte length, so a corrupt arity or key
  // count runs out of bytes instead of looping or allocating unboundedly.
  std::vector<std::string> vars;
  for (uint32_t i = 0; i < arity; ++i) {
    MPFDB_ASSIGN_OR_RETURN(std::string var, reader.Str());
    vars.push_back(std::move(var));
  }
  MPFDB_ASSIGN_OR_RETURN(uint32_t num_keys, reader.Get<uint32_t>());
  std::vector<std::string> keys;
  for (uint32_t i = 0; i < num_keys; ++i) {
    MPFDB_ASSIGN_OR_RETURN(std::string key, reader.Str());
    keys.push_back(std::move(key));
  }

  const size_t row_bytes = DataPage::RowBytes(arity);
  const size_t body = bytes.size() - reader.offset();
  if (row_count > body / row_bytes || row_count * row_bytes != body) {
    return Status::InvalidArgument(
        "binary table size mismatch: header declares " +
        std::to_string(row_count) + " rows of " + std::to_string(row_bytes) +
        " bytes, file holds " + std::to_string(body) + " bytes of rows");
  }
  auto table = std::make_unique<Table>(
      table_name, Schema(std::move(vars), std::move(measure_name)));
  if (!keys.empty()) MPFDB_RETURN_IF_ERROR(table->SetKeyVars(std::move(keys)));
  table->Reserve(static_cast<size_t>(row_count));
  std::vector<VarValue> row(arity);
  const char* p = bytes.data() + reader.offset();
  for (uint64_t r = 0; r < row_count; ++r, p += row_bytes) {
    double measure;
    if (arity > 0) std::memcpy(row.data(), p, arity * sizeof(VarValue));
    std::memcpy(&measure, p + arity * sizeof(VarValue), sizeof(measure));
    table->AppendRowRaw(row.data(), measure);
  }
  return table;
}

}  // namespace mpfdb
