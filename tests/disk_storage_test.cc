// Tests of the storage files: page packing and the append-only paged file
// that spill runs use, the flat binary table file (the DiskTableTest suite),
// and binary persistence.

#include <cstring>
#include <filesystem>

#include <gtest/gtest.h>

#include "core/persistence.h"
#include "fr/algebra.h"
#include "storage/binary_table.h"
#include "core/file_io.h"
#include "storage/page.h"
#include "storage/paged_file.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace mpfdb {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

TEST(DataPageTest, RowPackingRoundTrip) {
  std::vector<std::byte> buffer(kPageSize, std::byte{0});
  DataPage page(buffer.data());
  const size_t arity = 3;
  ASSERT_GE(DataPage::RowCapacity(arity), 2u);
  page.set_row_count(2);
  VarValue row0[] = {1, 2, 3};
  VarValue row1[] = {-4, 5, 6};
  page.WriteRow(0, arity, row0, 0.5);
  page.WriteRow(1, arity, row1, -2.25);

  EXPECT_EQ(page.row_count(), 2u);
  VarValue out[3];
  double measure;
  page.ReadRow(0, arity, out, &measure);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[2], 3);
  EXPECT_DOUBLE_EQ(measure, 0.5);
  page.ReadRow(1, arity, out, &measure);
  EXPECT_EQ(out[0], -4);
  EXPECT_DOUBLE_EQ(measure, -2.25);
}

TEST(DataPageTest, CapacityScalesWithArity) {
  EXPECT_GT(DataPage::RowCapacity(1), DataPage::RowCapacity(8));
  // 8KB page, 1-var rows of 12 bytes: hundreds of rows.
  EXPECT_GT(DataPage::RowCapacity(1), 500u);
}

TEST(PagedFileTest, AllocateReadWrite) {
  std::string path = TempPath("mpfdb_paged_file_test.bin");
  auto file = PagedFile::Create(path);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ((*file)->page_count(), 0u);

  std::vector<std::byte> zeros(kPageSize, std::byte{0});
  std::vector<std::byte> data(kPageSize, std::byte{0x5A});
  auto p0 = (*file)->AppendPage(zeros.data());
  auto p1 = (*file)->AppendPage(data.data());
  ASSERT_TRUE(p0.ok() && p1.ok());
  EXPECT_EQ(*p0, 0u);
  EXPECT_EQ(*p1, 1u);
  EXPECT_EQ((*file)->page_count(), 2u);

  std::vector<std::byte> read(kPageSize);
  ASSERT_TRUE((*file)->ReadPage(1, read.data()).ok());
  EXPECT_EQ(read[100], std::byte{0x5A});
  ASSERT_TRUE((*file)->ReadPage(0, read.data()).ok());
  EXPECT_EQ(read[100], std::byte{0});
  EXPECT_EQ((*file)->ReadPage(7, read.data()).code(), StatusCode::kOutOfRange);
  file->reset();
  EXPECT_EQ(fs::file_size(path), 2 * kPageSize);
  fs::remove(path);
}

// Header bytes of a binary table file: magic, arity, row count, the
// measure name, the variable names and the key names.
size_t HeaderBytes(const Table& table) {
  size_t bytes = 4 + 4 + 8 + 4 + table.schema().measure_name().size() + 4;
  for (const auto& var : table.schema().variables()) bytes += 4 + var.size();
  for (const auto& var : table.key_vars()) bytes += 4 + var.size();
  return bytes;
}

// Writes `table` to `path` in the binary format and reads it back.
StatusOr<std::unique_ptr<Table>> BinaryRoundTrip(const Table& table,
                                                 const std::string& path) {
  MPFDB_RETURN_IF_ERROR(WriteFileSynced(path, EncodeTableBinary(table)));
  MPFDB_ASSIGN_OR_RETURN(std::string bytes, ReadFileBytes(path));
  return DecodeTableBinary(table.name(), bytes);
}

TEST(DiskTableTest, RoundTripLargeTable) {
  Rng rng(61);
  Table original("big", Schema({"a", "b", "c"}, "f"));
  original.SetKeyVars({"a", "b"}).ok();
  for (int i = 0; i < 5000; ++i) {
    original.AppendRow({i % 50, i / 50, i % 7}, rng.UniformDouble(0, 10));
  }
  std::string path = TempPath("mpfdb_disktable_test.mpft");
  auto loaded = BinaryRoundTrip(original, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  // A header, then the rows packed back to back.
  EXPECT_EQ(fs::file_size(path),
            HeaderBytes(original) + 5000 * DataPage::RowBytes(3));
  EXPECT_EQ((*loaded)->NumRows(), 5000u);
  EXPECT_EQ((*loaded)->schema(), original.schema());
  EXPECT_EQ((*loaded)->key_vars(), (std::vector<std::string>{"a", "b"}));
  // Same rows in the same order, bit for bit.
  EXPECT_EQ(EncodeTableBinary(**loaded), EncodeTableBinary(original));
  EXPECT_TRUE(fr::TablesEqual(original, **loaded, 0.0));
  fs::remove(path);
}

TEST(DiskTableTest, EmptyAndZeroArityTables) {
  Table empty("e", Schema({"x"}, "f"));
  auto loaded = DecodeTableBinary("e", EncodeTableBinary(empty));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded)->NumRows(), 0u);
  EXPECT_EQ((*loaded)->schema(), empty.schema());

  Table scalar("s", Schema({}, "f"));
  scalar.AppendRow(std::vector<VarValue>{}, 3.5);
  std::string path = TempPath("mpfdb_disktable_scalar.mpft");
  auto loaded2 = BinaryRoundTrip(scalar, path);
  ASSERT_TRUE(loaded2.ok()) << loaded2.status();
  ASSERT_EQ((*loaded2)->NumRows(), 1u);
  EXPECT_DOUBLE_EQ((*loaded2)->measure(0), 3.5);
  fs::remove(path);
}

TEST(DiskTableTest, OpenRejectsNonDiskTable) {
  EXPECT_EQ(ReadFileBytes("/nonexistent/x.mpft").status().code(),
            StatusCode::kNotFound);
  auto status = DecodeTableBinary("t", std::string(kPageSize, '\0')).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("magic"), std::string::npos) << status;
}

// The reader checks the file size against the header before it reads any
// row: a corrupt row count, a truncated file and trailing bytes all fail.
TEST(DiskTableTest, SizeMismatchIsRejectedBeforeAnyRow) {
  Table t("t", Schema({"x", "y"}, "f"));
  for (int i = 0; i < 100; ++i) t.AppendRow({i, i % 3}, 0.5 * i);
  const std::string bytes = EncodeTableBinary(t);
  ASSERT_EQ(bytes.size(), HeaderBytes(t) + 100 * DataPage::RowBytes(2));

  auto expect_size_mismatch = [](const std::string& corrupt) {
    auto status = DecodeTableBinary("t", corrupt).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("size mismatch"), std::string::npos)
        << status;
  };
  for (uint64_t rows : {uint64_t{0xFFFF}, uint64_t{99}, uint64_t{101},
                        ~uint64_t{0}}) {
    std::string corrupt = bytes;
    std::memcpy(corrupt.data() + 8, &rows, sizeof(rows));  // the row count
    expect_size_mismatch(corrupt);
  }
  expect_size_mismatch(bytes.substr(0, bytes.size() - 1));
  expect_size_mismatch(bytes + '\0');
  // A header cut short is a truncation, not a read past the end.
  auto status = DecodeTableBinary("t", bytes.substr(0, 20)).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("truncated"), std::string::npos) << status;
}

TEST(BinaryPersistenceTest, SaveLoadRoundTrip) {
  std::string dir = TempPath("mpfdb_binary_persist");
  fs::remove_all(dir);

  Database original;
  workload::SupplyChainParams params;
  params.scale = 0.004;
  auto schema = workload::GenerateSupplyChain(params, original.catalog());
  ASSERT_TRUE(schema.ok());
  ASSERT_TRUE(original.CreateMpfView(schema->view).ok());
  ASSERT_TRUE(SaveDatabase(original, dir, /*binary=*/true).ok());

  // The table files are the binary format, under the first generation.
  EXPECT_TRUE(fs::exists(fs::path(dir) / "location.g1.mpft"));
  EXPECT_FALSE(fs::exists(fs::path(dir) / "location.g1.csv"));

  Database loaded;
  ASSERT_TRUE(LoadDatabase(dir, loaded).ok());
  auto a = original.Query("invest", MpfQuerySpec{{"cid"}, {}});
  auto b = loaded.Query("invest", MpfQuerySpec{{"cid"}, {}});
  ASSERT_TRUE(a.ok() && b.ok());
  // Binary round trip is bit-exact.
  EXPECT_TRUE(fr::TablesEqual(*a->table, *b->table, 0.0));
  EXPECT_EQ((*loaded.catalog().GetTable("warehouses"))->key_vars(),
            (*original.catalog().GetTable("warehouses"))->key_vars());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mpfdb
