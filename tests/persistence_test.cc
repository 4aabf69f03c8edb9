// Crash consistency and integrity of SaveDatabase/LoadDatabase: a save
// failed at any IO step loads as the old database or the new one, any
// flipped byte fails the load, and manifest file names cannot leave the
// database directory.

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/persistence.h"
#include "fr/algebra.h"
#include "storage/csv.h"
#include "core/file_io.h"
#include "util/fault_injector.h"
#include "workload/generators.h"

namespace mpfdb {
namespace {

namespace fs = std::filesystem;

// A fresh directory named after `name` and the running test, so that tests
// running in parallel processes never share one.
std::string TempDir(const std::string& name) {
  std::string dir =
      (fs::temp_directory_path() /
       (name + "_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name()))
          .string();
  fs::remove_all(dir);
  return dir;
}

// A supply-chain database with its `invest` view.
std::unique_ptr<Database> SupplyChain(double scale) {
  auto db = std::make_unique<Database>();
  workload::SupplyChainParams params;
  params.scale = scale;
  auto schema = workload::GenerateSupplyChain(params, db->catalog());
  EXPECT_TRUE(schema.ok()) << schema.status();
  EXPECT_TRUE(db->CreateMpfView(schema->view).ok());
  return db;
}

// What a loaded database must match: table names and row counts, views, and
// the `invest` answer bit for bit.
bool SameDatabase(Database& a, Database& b) {
  if (a.catalog().TableNames() != b.catalog().TableNames()) return false;
  for (const auto& name : a.catalog().TableNames()) {
    if ((*a.catalog().GetTable(name))->NumRows() !=
        (*b.catalog().GetTable(name))->NumRows()) {
      return false;
    }
  }
  if (a.ViewNames() != b.ViewNames()) return false;
  auto qa = a.Query("invest", MpfQuerySpec{{"cid"}, {}});
  auto qb = b.Query("invest", MpfQuerySpec{{"cid"}, {}});
  return qa.ok() && qb.ok() && fr::TablesEqual(*qa->table, *qb->table, 0.0);
}

// Fails the Nth IO of a save for N = 1, 2, ... until the save succeeds.
// After each failure the directory must load as the old database, the new
// one, or (when it started empty) not at all.
void SweepFailedSaves(bool binary, bool over_existing) {
  SCOPED_TRACE(std::string(binary ? "binary" : "csv") +
               (over_existing ? " over an existing database" : " into empty"));
  auto old_db = SupplyChain(0.004);
  auto new_db = SupplyChain(0.008);
  const std::string dir = TempDir("mpfdb_save_sweep");
  size_t loaded_old = 0, loaded_new = 0, not_found = 0;
  for (uint64_t n = 1;; ++n) {
    ASSERT_LT(n, 200u) << "save never succeeded";
    fs::remove_all(dir);
    if (over_existing) {
      ASSERT_TRUE(SaveDatabase(*old_db, dir, binary).ok());
    }
    Status saved;
    {
      FaultInjector::Config config;
      config.fail_nth = n;
      ScopedFaultInjection faults(config);
      saved = SaveDatabase(*new_db, dir, binary);
    }
    Database loaded;
    Status status = LoadDatabase(dir, loaded);
    if (saved.ok()) {
      ASSERT_TRUE(status.ok()) << status;
      EXPECT_TRUE(SameDatabase(loaded, *new_db));
      break;
    }
    EXPECT_NE(saved.message().find("injected fault"), std::string::npos)
        << saved;
    if (!status.ok()) {
      EXPECT_FALSE(over_existing) << "fault " << n << ": " << status;
      EXPECT_EQ(status.code(), StatusCode::kNotFound) << status;
      ++not_found;
    } else if (over_existing && SameDatabase(loaded, *old_db)) {
      ++loaded_old;
    } else {
      EXPECT_TRUE(SameDatabase(loaded, *new_db)) << "torn load at fault " << n;
      ++loaded_new;
    }
  }
  // Faults before the manifest rename keep the old state; the directory
  // fsync after it fails with the new database already committed.
  EXPECT_GT(over_existing ? loaded_old : not_found, 5u);
  EXPECT_EQ(loaded_new, 1u);
  fs::remove_all(dir);
}

TEST(PersistenceCrashTest, FailedCsvSaveIntoEmptyDirectory) {
  SweepFailedSaves(/*binary=*/false, /*over_existing=*/false);
}
TEST(PersistenceCrashTest, FailedCsvSaveOverExistingDatabase) {
  SweepFailedSaves(/*binary=*/false, /*over_existing=*/true);
}
TEST(PersistenceCrashTest, FailedBinarySaveIntoEmptyDirectory) {
  SweepFailedSaves(/*binary=*/true, /*over_existing=*/false);
}
TEST(PersistenceCrashTest, FailedBinarySaveOverExistingDatabase) {
  SweepFailedSaves(/*binary=*/true, /*over_existing=*/true);
}

// A save removes the previous generation's files once the new manifest is
// durable, and the files a failed save left behind.
TEST(PersistenceCrashTest, SaveRemovesSupersededGenerations) {
  auto db = SupplyChain(0.004);
  const std::string dir = TempDir("mpfdb_save_generations");
  ASSERT_TRUE(SaveDatabase(*db, dir).ok());
  {
    FaultInjector::Config config;
    config.fail_nth = 3;
    ScopedFaultInjection faults(config);
    ASSERT_FALSE(SaveDatabase(*db, dir, /*binary=*/true).ok());
  }
  EXPECT_TRUE(fs::exists(fs::path(dir) / "location.g1.csv"));
  size_t leftovers = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    leftovers += entry.path().string().ends_with(".g2.mpft");
  }
  // The first table's file, and the second's, created empty when its
  // write failed.
  EXPECT_EQ(leftovers, 2u);
  ASSERT_TRUE(SaveDatabase(*db, dir, /*binary=*/true).ok());
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files.push_back(entry.path().filename().string());
  }
  std::sort(files.begin(), files.end());
  std::vector<std::string> expected = {"manifest"};
  for (const auto& name : db->catalog().TableNames()) {
    expected.push_back(name + ".g3.mpft");
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(files, expected);
  fs::remove_all(dir);
}

// A small database: two tables and a view.
std::unique_ptr<Database> TinyDatabase() {
  auto db = std::make_unique<Database>();
  EXPECT_TRUE(db->catalog().RegisterVariable("x", 3).ok());
  EXPECT_TRUE(db->catalog().RegisterVariable("y", 2).ok());
  auto a = std::make_shared<Table>("a", Schema({"x", "y"}, "f"));
  a->AppendRow({0, 0}, 1.5);
  a->AppendRow({1, 0}, 2.0);
  a->AppendRow({2, 1}, 0.25);
  EXPECT_TRUE(a->SetKeyVars({"x"}).ok());
  auto b = std::make_shared<Table>("b", Schema({"y"}, "g"));
  b->AppendRow({0}, 2.0);
  b->AppendRow({1}, 4.0);
  EXPECT_TRUE(db->CreateTable(a).ok());
  EXPECT_TRUE(db->CreateTable(b).ok());
  MpfViewDef view;
  view.name = "v";
  view.relations = {"a", "b"};
  EXPECT_TRUE(db->CreateMpfView(view).ok());
  return db;
}

// Flips every byte of every saved file, one at a time: each flip must fail
// the load with a checksum or parse error.
void FlipEveryByte(bool binary) {
  auto db = TinyDatabase();
  const std::string dir = TempDir("mpfdb_byte_flips");
  ASSERT_TRUE(SaveDatabase(*db, dir, binary).ok());
  {
    Database clean;
    ASSERT_TRUE(LoadDatabase(dir, clean).ok());
  }
  size_t flips = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string path = entry.path().string();
    auto bytes = ReadFileBytes(path);
    ASSERT_TRUE(bytes.ok());
    for (size_t i = 0; i < bytes->size(); ++i) {
      std::string corrupt = *bytes;
      corrupt[i] = static_cast<char>(corrupt[i] ^ 0xFF);
      ASSERT_TRUE(WriteFileSynced(path, corrupt).ok());
      Database loaded;
      Status status = LoadDatabase(dir, loaded);
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << path << " byte " << i << ": " << status;
      EXPECT_NE(status.message().find("checksum"), std::string::npos)
          << path << " byte " << i << ": " << status;
      ++flips;
    }
    ASSERT_TRUE(WriteFileSynced(path, *bytes).ok());
  }
  EXPECT_GT(flips, 100u);
  fs::remove_all(dir);
}

TEST(PersistenceCorruptionTest, EveryFlippedCsvSaveByteFailsTheLoad) {
  FlipEveryByte(/*binary=*/false);
}
TEST(PersistenceCorruptionTest, EveryFlippedBinarySaveByteFailsTheLoad) {
  FlipEveryByte(/*binary=*/true);
}

// A manifest that exists but cannot be opened (a symlink loop) or read (a
// directory) is an IO error, not an empty directory.
TEST(PersistenceCorruptionTest, UnreadableManifestIsNotNotFound) {
  const std::string dir = TempDir("mpfdb_unreadable_manifest");
  const fs::path manifest = fs::path(dir) / "manifest";
  fs::create_directories(dir);
  fs::create_symlink(manifest, manifest);
  for (int unreadable = 0; unreadable < 2; ++unreadable) {
    SCOPED_TRACE(unreadable == 0 ? "symlink loop" : "directory");
    if (unreadable == 1) {
      fs::remove(manifest);
      fs::create_directories(manifest);
    }
    Database db;
    Status status = LoadDatabase(dir, db);
    EXPECT_EQ(status.code(), StatusCode::kInternal) << status;
  }
  fs::remove_all(dir);
}

// A table file that went missing after a save is a damaged database, not an
// absent one.
TEST(PersistenceCorruptionTest, MissingTableFileIsCorruption) {
  auto db = TinyDatabase();
  for (bool binary : {false, true}) {
    SCOPED_TRACE(binary ? "binary" : "csv");
    const std::string dir = TempDir("mpfdb_missing_table");
    ASSERT_TRUE(SaveDatabase(*db, dir, binary).ok());
    const std::string file =
        (fs::path(dir) / (binary ? "b.g1.mpft" : "b.g1.csv")).string();
    ASSERT_TRUE(fs::remove(file));
    Database loaded;
    Status status = LoadDatabase(dir, loaded);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
    EXPECT_NE(status.message().find("missing file"), std::string::npos)
        << status;
    EXPECT_TRUE(loaded.catalog().TableNames().empty());
    fs::remove_all(dir);
  }
}

// A manifest with a valid checksum whose one table lives at `file`, with
// that file's checksum when it exists.
std::string ManifestNaming(const std::string& dir, const std::string& file) {
  Manifest manifest;
  manifest.variables = {{"x", 3}};
  Manifest::TableFile t{"t", file, "f", {}, 0};
  auto bytes = ReadFileBytes((fs::path(dir) / file).string());
  if (bytes.ok()) t.checksum = Checksum64(*bytes);
  manifest.tables.push_back(t);
  return FormatManifest(manifest);
}

TEST(ManifestPathTest, FileNamesMustStayInsideTheDirectory) {
  const std::string dir = TempDir("mpfdb_manifest_paths");
  fs::create_directories(fs::path(dir) / "sub");
  Table t("t", Schema({"x"}, "f"));
  t.AppendRow({1}, 0.5);
  const std::string outside =
      (fs::temp_directory_path() / "mpfdb_outside.csv").string();
  for (const std::string& path :
       {outside, (fs::path(dir) / "sub" / "t.csv").string(),
        (fs::path(dir) / "t.csv").string()}) {
    ASSERT_TRUE(WriteFileSynced(path, FormatTableCsv(t)).ok());
  }

  // The control: a plain name loads.
  ASSERT_TRUE(WriteFileSynced((fs::path(dir) / "manifest").string(),
                              ManifestNaming(dir, "t.csv"))
                  .ok());
  Database control;
  ASSERT_TRUE(LoadDatabase(dir, control).ok());

  for (const std::string& name : {outside, std::string("sub/t.csv"),
                                  std::string("."), std::string(".."),
                                  std::string("../mpfdb_outside.csv")}) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(WriteFileSynced((fs::path(dir) / "manifest").string(),
                                ManifestNaming(dir, name))
                    .ok());
    Database db;
    Status status = LoadDatabase(dir, db);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
    EXPECT_NE(status.message().find("not a plain name"), std::string::npos)
        << status;
    EXPECT_TRUE(db.catalog().TableNames().empty());
  }
  fs::remove(outside);
  fs::remove_all(dir);
}

// A save refuses names that would not load back: a table name that is not
// a plain file name, or any name holding a manifest separator.
TEST(ManifestPathTest, SaveRejectsNamesTheManifestCannotHold) {
  const std::string dir = TempDir("mpfdb_bad_names");
  for (auto [table, var] : std::vector<std::pair<std::string, std::string>>{
           {"../escape", "x"}, {"a|b", "x"}, {"t", "x,y"}, {"t", "x\ny"}}) {
    SCOPED_TRACE(table + " / " + var);
    Database db;
    ASSERT_TRUE(db.catalog().RegisterVariable(var, 2).ok());
    auto t = std::make_shared<Table>(table, Schema({var}, "f"));
    t->AppendRow({0}, 1.0);
    ASSERT_TRUE(db.CreateTable(t).ok());
    EXPECT_EQ(SaveDatabase(db, dir).code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(fs::exists(fs::path(dir) / "manifest"));
  }
  fs::remove_all(dir);
}

// Every registered variable is saved, also one that no table uses yet: a
// table created after the load can still declare it.
TEST(PersistenceTest, UnusedVariableSurvivesSaveAndLoad) {
  const std::string dir = TempDir("mpfdb_unused_var");
  for (bool binary : {false, true}) {
    SCOPED_TRACE(binary ? "binary" : "csv");
    Database db;
    ASSERT_TRUE(db.catalog().RegisterVariable("x", 3).ok());
    ASSERT_TRUE(db.catalog().RegisterVariable("z", 5).ok());
    auto a = std::make_shared<Table>("a", Schema({"x"}, "f"));
    a->AppendRow({0}, 1.0);
    ASSERT_TRUE(db.CreateTable(a).ok());
    ASSERT_TRUE(SaveDatabase(db, dir, binary).ok());

    Database loaded;
    ASSERT_TRUE(LoadDatabase(dir, loaded).ok());
    auto domain = loaded.catalog().DomainSize("z");
    ASSERT_TRUE(domain.ok()) << domain.status();
    EXPECT_EQ(*domain, 5);
    auto b = std::make_shared<Table>("b", Schema({"z"}, "g"));
    b->AppendRow({4}, 2.0);
    EXPECT_TRUE(loaded.CreateTable(b).ok());
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mpfdb
