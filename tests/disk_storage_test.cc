// Tests of the paged storage layer: page packing, the paged file, LRU buffer
// pool behavior (hits/misses/eviction/pinning/writeback), disk tables, and
// binary persistence.

#include <filesystem>

#include <gtest/gtest.h>

#include "core/persistence.h"
#include "fr/algebra.h"
#include "storage/buffer_pool.h"
#include "storage/disk_table.h"
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

  auto p0 = (*file)->AllocatePage();
  auto p1 = (*file)->AllocatePage();
  ASSERT_TRUE(p0.ok() && p1.ok());
  EXPECT_EQ(*p0, 0u);
  EXPECT_EQ(*p1, 1u);

  std::vector<std::byte> data(kPageSize, std::byte{0x5A});
  ASSERT_TRUE((*file)->WritePage(1, data.data()).ok());
  std::vector<std::byte> read(kPageSize);
  ASSERT_TRUE((*file)->ReadPage(1, read.data()).ok());
  EXPECT_EQ(read[100], std::byte{0x5A});
  ASSERT_TRUE((*file)->ReadPage(0, read.data()).ok());
  EXPECT_EQ(read[100], std::byte{0});  // allocated pages are zeroed

  EXPECT_EQ((*file)->ReadPage(7, read.data()).code(), StatusCode::kOutOfRange);
  EXPECT_GE((*file)->stats().reads, 2u);

  // Reopen and find both pages.
  file->reset();
  auto reopened = PagedFile::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->page_count(), 2u);
  ASSERT_TRUE((*reopened)->ReadPage(1, read.data()).ok());
  EXPECT_EQ(read[0], std::byte{0x5A});
  fs::remove(path);
}

TEST(PagedFileTest, OpenRejectsBadFiles) {
  EXPECT_EQ(PagedFile::Open("/nonexistent/x.bin").status().code(),
            StatusCode::kNotFound);
  std::string path = TempPath("mpfdb_unaligned.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a page";
  }
  EXPECT_EQ(PagedFile::Open(path).status().code(),
            StatusCode::kInvalidArgument);
  fs::remove(path);
}

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("mpfdb_bufferpool_test.bin");
    auto file = PagedFile::Create(path_);
    ASSERT_TRUE(file.ok());
    file_ = std::move(*file);
    // Eight pages stamped with their id.
    for (uint32_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(file_->AllocatePage().ok());
      std::vector<std::byte> data(kPageSize, std::byte{static_cast<uint8_t>(i)});
      ASSERT_TRUE(file_->WritePage(i, data.data()).ok());
    }
  }
  void TearDown() override {
    file_.reset();
    fs::remove(path_);
  }

  std::string path_;
  std::unique_ptr<PagedFile> file_;
};

TEST_F(BufferPoolTest, HitsAndMisses) {
  BufferPool pool(file_.get(), 4);
  auto page = pool.FetchPage(3);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ((*page)[0], std::byte{3});
  ASSERT_TRUE(pool.Unpin(3, false).ok());
  // Second fetch hits.
  ASSERT_TRUE(pool.FetchPage(3).ok());
  ASSERT_TRUE(pool.Unpin(3, false).ok());
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 1u);
}

TEST_F(BufferPoolTest, LruEviction) {
  BufferPool pool(file_.get(), 2);
  for (uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(pool.FetchPage(i).ok());
    ASSERT_TRUE(pool.Unpin(i, false).ok());
  }
  // Page 0 was least recently used and got evicted; page 2 is cached.
  EXPECT_EQ(pool.stats().evictions, 1u);
  pool.ResetStats();
  ASSERT_TRUE(pool.FetchPage(2).ok());
  ASSERT_TRUE(pool.Unpin(2, false).ok());
  EXPECT_EQ(pool.stats().hits, 1u);
  ASSERT_TRUE(pool.FetchPage(0).ok());
  ASSERT_TRUE(pool.Unpin(0, false).ok());
  EXPECT_EQ(pool.stats().misses, 1u);
}

TEST_F(BufferPoolTest, PinnedPagesAreNotEvicted) {
  BufferPool pool(file_.get(), 2);
  ASSERT_TRUE(pool.FetchPage(0).ok());  // pinned
  ASSERT_TRUE(pool.FetchPage(1).ok());  // pinned
  // Every frame pinned: further fetch fails with kResourceExhausted.
  EXPECT_EQ(pool.FetchPage(2).status().code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(pool.Unpin(1, false).ok());
  EXPECT_TRUE(pool.FetchPage(2).ok());
  ASSERT_TRUE(pool.Unpin(2, false).ok());
  ASSERT_TRUE(pool.Unpin(0, false).ok());
}

TEST_F(BufferPoolTest, AllFramesPinnedReportsPoolStatsAndRecovers) {
  constexpr size_t kFrames = 4;
  BufferPool pool(file_.get(), kFrames);
  for (uint32_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(pool.FetchPage(i).ok());  // pin every frame
  }
  auto full = pool.FetchPage(static_cast<uint32_t>(kFrames));
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), StatusCode::kResourceExhausted);
  // The message names the pinned/total frame counts and the remedy.
  EXPECT_NE(full.status().message().find("pinned=4/total=4"),
            std::string::npos)
      << full.status().message();
  EXPECT_NE(full.status().message().find("Unpin"), std::string::npos)
      << full.status().message();
  // Unpinning one frame makes the pool usable again.
  ASSERT_TRUE(pool.Unpin(0, false).ok());
  ASSERT_TRUE(pool.FetchPage(static_cast<uint32_t>(kFrames)).ok());
  ASSERT_TRUE(pool.Unpin(static_cast<uint32_t>(kFrames), false).ok());
  for (uint32_t i = 1; i < kFrames; ++i) {
    ASSERT_TRUE(pool.Unpin(i, false).ok());
  }
}

TEST_F(BufferPoolTest, UnpinErrors) {
  BufferPool pool(file_.get(), 2);
  EXPECT_EQ(pool.Unpin(5, false).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(pool.FetchPage(0).ok());
  ASSERT_TRUE(pool.Unpin(0, false).ok());
  EXPECT_EQ(pool.Unpin(0, false).code(), StatusCode::kFailedPrecondition);
}

TEST_F(BufferPoolTest, DirtyPagesWrittenBack) {
  {
    BufferPool pool(file_.get(), 2);
    auto page = pool.FetchPage(4);
    ASSERT_TRUE(page.ok());
    (*page)[0] = std::byte{0xEE};
    ASSERT_TRUE(pool.Unpin(4, /*dirty=*/true).ok());
    ASSERT_TRUE(pool.FlushAll().ok());
    EXPECT_EQ(pool.stats().writebacks, 1u);
  }
  std::vector<std::byte> read(kPageSize);
  ASSERT_TRUE(file_->ReadPage(4, read.data()).ok());
  EXPECT_EQ(read[0], std::byte{0xEE});
}

TEST_F(BufferPoolTest, EvictionWritesBackDirtyVictim) {
  BufferPool pool(file_.get(), 1);
  auto page = pool.FetchPage(5);
  ASSERT_TRUE(page.ok());
  (*page)[1] = std::byte{0x77};
  ASSERT_TRUE(pool.Unpin(5, true).ok());
  // Fetching another page evicts the dirty page 5 and writes it back.
  ASSERT_TRUE(pool.FetchPage(6).ok());
  ASSERT_TRUE(pool.Unpin(6, false).ok());
  EXPECT_GE(pool.stats().writebacks, 1u);
  std::vector<std::byte> read(kPageSize);
  ASSERT_TRUE(file_->ReadPage(5, read.data()).ok());
  EXPECT_EQ(read[1], std::byte{0x77});
}

TEST(DiskTableTest, RoundTripLargeTable) {
  Rng rng(61);
  Table original("big", Schema({"a", "b", "c"}, "f"));
  original.SetKeyVars({"a", "b"}).ok();
  for (int i = 0; i < 5000; ++i) {
    original.AppendRow({i % 50, i / 50, i % 7}, rng.UniformDouble(0, 10));
  }
  std::string path = TempPath("mpfdb_disktable_test.mpft");
  ASSERT_TRUE(DiskTable::Write(original, path).ok());

  auto disk = DiskTable::Open(path, /*pool_pages=*/4);
  ASSERT_TRUE(disk.ok()) << disk.status();
  EXPECT_EQ((*disk)->NumRows(), 5000u);
  EXPECT_EQ((*disk)->schema().variables(),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ((*disk)->key_vars(), (std::vector<std::string>{"a", "b"}));

  auto loaded = (*disk)->ReadAll("big");
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(fr::TablesEqual(original, **loaded, 0.0));
  // More data pages than pool frames: the scan must have missed repeatedly.
  EXPECT_GT((*disk)->buffer_pool().stats().misses, 4u);
  fs::remove(path);
}

TEST(DiskTableTest, RandomAccessAndErrors) {
  Table original("t", Schema({"x"}, "f"));
  for (int i = 0; i < 100; ++i) original.AppendRow({i}, i * 0.5);
  std::string path = TempPath("mpfdb_disktable_small.mpft");
  ASSERT_TRUE(DiskTable::Write(original, path).ok());
  auto disk = DiskTable::Open(path);
  ASSERT_TRUE(disk.ok());

  std::vector<VarValue> vars;
  double measure;
  ASSERT_TRUE((*disk)->ReadRow(42, &vars, &measure).ok());
  EXPECT_EQ(vars[0], 42);
  EXPECT_DOUBLE_EQ(measure, 21.0);
  EXPECT_EQ((*disk)->ReadRow(100, &vars, &measure).code(),
            StatusCode::kOutOfRange);
  fs::remove(path);
}

TEST(DiskTableTest, ReadRangeMatchesReadRow) {
  Rng rng(67);
  Table original("t", Schema({"a", "b"}, "f"));
  for (int i = 0; i < 1700; ++i) {
    original.AppendRow({i, i % 13}, rng.UniformDouble(0, 10));
  }
  std::string path = TempPath("mpfdb_disktable_range.mpft");
  ASSERT_TRUE(DiskTable::Write(original, path).ok());
  auto disk = DiskTable::Open(path, /*pool_pages=*/4);
  ASSERT_TRUE(disk.ok());

  // Ranges chosen to start mid-page, span page boundaries, and hit the tail.
  for (auto [start, n] : std::vector<std::pair<uint64_t, size_t>>{
           {0, 1}, {0, 1700}, {3, 700}, {711, 989}, {1699, 1}}) {
    std::vector<VarValue> vars(n * 2);
    std::vector<double> measures(n);
    ASSERT_TRUE((*disk)->ReadRange(start, n, vars.data(), measures.data()).ok())
        << start << "+" << n;
    for (size_t r = 0; r < n; ++r) {
      std::vector<VarValue> row;
      double measure;
      ASSERT_TRUE((*disk)->ReadRow(start + r, &row, &measure).ok());
      EXPECT_EQ(vars[r * 2], row[0]);
      EXPECT_EQ(vars[r * 2 + 1], row[1]);
      EXPECT_EQ(measures[r], measure);
    }
  }
  // Reading past the end fails rather than truncating.
  std::vector<VarValue> vars(4);
  std::vector<double> measures(2);
  EXPECT_EQ((*disk)->ReadRange(1699, 2, vars.data(), measures.data()).code(),
            StatusCode::kOutOfRange);
  fs::remove(path);
}

TEST(DiskTableTest, EmptyAndZeroArityTables) {
  Table empty("e", Schema({"x"}, "f"));
  std::string path = TempPath("mpfdb_disktable_empty.mpft");
  ASSERT_TRUE(DiskTable::Write(empty, path).ok());
  auto disk = DiskTable::Open(path);
  ASSERT_TRUE(disk.ok());
  EXPECT_EQ((*disk)->NumRows(), 0u);
  auto loaded = (*disk)->ReadAll("e");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->NumRows(), 0u);
  fs::remove(path);

  Table scalar("s", Schema({}, "f"));
  scalar.AppendRow(std::vector<VarValue>{}, 3.5);
  std::string path2 = TempPath("mpfdb_disktable_scalar.mpft");
  ASSERT_TRUE(DiskTable::Write(scalar, path2).ok());
  auto disk2 = DiskTable::Open(path2);
  ASSERT_TRUE(disk2.ok());
  auto loaded2 = (*disk2)->ReadAll("s");
  ASSERT_TRUE(loaded2.ok());
  ASSERT_EQ((*loaded2)->NumRows(), 1u);
  EXPECT_DOUBLE_EQ((*loaded2)->measure(0), 3.5);
  fs::remove(path2);
}

TEST(DiskTableTest, OpenRejectsNonDiskTable) {
  std::string path = TempPath("mpfdb_not_a_table.mpft");
  {
    auto file = PagedFile::Create(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->AllocatePage().ok());  // zeroed page: bad magic
  }
  EXPECT_EQ(DiskTable::Open(path).status().code(),
            StatusCode::kInvalidArgument);
  fs::remove(path);
}

TEST(DiskScanTest, StreamsThroughFullPipeline) {
  // A join + marginalization pipeline whose base inputs stream straight off
  // disk pages through the buffer pool, never materialized.
  Rng rng(73);
  Table a("a", Schema({"x", "y"}, "f"));
  Table b("b", Schema({"y", "z"}, "f"));
  for (int i = 0; i < 3000; ++i) {
    a.AppendRow({i, i % 40}, rng.UniformDouble(0.5, 2.0));
    b.AppendRow({i % 40, i}, rng.UniformDouble(0.5, 2.0));
  }
  std::string pa = TempPath("mpfdb_diskscan_a.mpft");
  std::string pb = TempPath("mpfdb_diskscan_b.mpft");
  ASSERT_TRUE(DiskTable::Write(a, pa).ok());
  ASSERT_TRUE(DiskTable::Write(b, pb).ok());
  auto da = DiskTable::Open(pa, 4);
  auto db = DiskTable::Open(pb, 4);
  ASSERT_TRUE(da.ok() && db.ok());

  Semiring sr = Semiring::SumProduct();
  auto join = std::make_unique<exec::HashProductJoin>(
      std::make_unique<exec::DiskScan>(da->get()),
      std::make_unique<exec::DiskScan>(db->get()), sr);
  exec::HashMarginalize agg(std::move(join), {"y"}, sr);
  auto result = exec::Run(agg, "out");
  ASSERT_TRUE(result.ok()) << result.status();

  auto expected_join = fr::ProductJoin(a, b, sr, "j");
  ASSERT_TRUE(expected_join.ok());
  auto expected = fr::Marginalize(**expected_join, {"y"}, sr, "m");
  ASSERT_TRUE(expected.ok());
  std::vector<size_t> all((*result)->schema().arity());
  std::iota(all.begin(), all.end(), 0);
  (*result)->SortByVariables(all);
  EXPECT_TRUE(fr::TablesEqual(**expected, **result, 1e-9));
  // The scans actually hit the disk pages.
  EXPECT_GT((*da)->buffer_pool().stats().misses, 0u);
  fs::remove(pa);
  fs::remove(pb);
}

TEST(DiskScanTest, BatchScanMatchesRowScan) {
  // DiskScan's page-wise batches (ReadRange) must materialize the same table
  // as reading the file one row at a time (ReadRow), bit for bit.
  Rng rng(79);
  Table t("t", Schema({"x", "y"}, "f"));
  for (int i = 0; i < 2600; ++i) {
    t.AppendRow({i, i % 17}, rng.UniformDouble(0.5, 2.0));
  }
  std::string path = TempPath("mpfdb_diskscan_batch.mpft");
  ASSERT_TRUE(DiskTable::Write(t, path).ok());
  auto disk = DiskTable::Open(path, 4);
  ASSERT_TRUE(disk.ok());

  Table by_row("out", t.schema());
  std::vector<VarValue> vars;
  double measure = 0;
  for (uint64_t r = 0; r < (*disk)->NumRows(); ++r) {
    ASSERT_TRUE((*disk)->ReadRow(r, &vars, &measure).ok());
    by_row.AppendRow(vars, measure);
  }
  exec::DiskScan batch_scan(disk->get());
  auto by_batch = exec::Run(batch_scan, "out");
  ASSERT_TRUE(by_batch.ok()) << by_batch.status();
  ASSERT_EQ((*by_batch)->NumRows(), 2600u);
  EXPECT_TRUE(fr::TablesEqual(by_row, **by_batch, 0.0));
  fs::remove(path);
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

  // The table files are the binary format.
  EXPECT_TRUE(fs::exists(fs::path(dir) / "location.mpft"));
  EXPECT_FALSE(fs::exists(fs::path(dir) / "location.csv"));

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
