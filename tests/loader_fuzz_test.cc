// Seeded, deterministic mutation fuzzer over the persistence loaders: the
// CSV parser, the binary table decoder and the manifest parser. Each loader
// runs directly on mutated bytes (the manifest with its checksum re-sealed
// half the time), so the checksums LoadDatabase verifies do not stop every
// case at the door. A loader must return an error or a table it can write
// back out unchanged; under the sanitizer presets it must also never read
// out of bounds. The seed and the iteration count are fixed, so a failure
// replays exactly.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/persistence.h"
#include "storage/binary_table.h"
#include "storage/csv.h"
#include "core/file_io.h"
#include "mutate.h"
#include "util/rng.h"

namespace mpfdb {
namespace {

// Bytes that matter to the CSV and manifest formats.
const std::string kInteresting("\0\n,|-./09e\x7f\xff", 12);

std::vector<Table> SeedTables() {
  std::vector<Table> tables;
  Table pair("t", Schema({"x", "y"}, "f"));
  pair.AppendRow({0, 1}, 0.5);
  pair.AppendRow({-3, 7}, -2.25);
  pair.AppendRow({2147483647, 0}, 1e300);
  EXPECT_TRUE(pair.SetKeyVars({"x"}).ok());
  tables.push_back(pair);
  Table scalar("s", Schema({}, "g"));
  scalar.AppendRow(std::vector<VarValue>{}, 3.0);
  tables.push_back(scalar);
  tables.emplace_back("e", Schema({"a", "b", "c"}, "h"));
  return tables;
}

// Bit-exact row equality (the measures by their bits).
bool SameRows(const Table& a, const Table& b) {
  if (!(a.schema() == b.schema()) || a.NumRows() != b.NumRows()) return false;
  for (size_t i = 0; i < a.NumRows(); ++i) {
    RowView ra = a.Row(i), rb = b.Row(i);
    for (size_t j = 0; j < ra.arity; ++j) {
      if (ra.var(j) != rb.var(j)) return false;
    }
    if (std::memcmp(&ra.measure, &rb.measure, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

class LoaderFuzzTest : public ::testing::Test {
 protected:
  Rng rng_{17};
  const uint64_t iterations_ = 20000;
};

TEST_F(LoaderFuzzTest, CsvParser) {
  std::vector<std::string> corpus;
  for (const Table& t : SeedTables()) corpus.push_back(FormatTableCsv(t));
  size_t accepted = 0;
  for (uint64_t i = 0; i < iterations_; ++i) {
    std::string input =
        Mutate(corpus[rng_.UniformInt(0, corpus.size() - 1)], kInteresting,
               rng_);
    auto table = ParseTableCsv("t", input, "fuzz");
    if (!table.ok()) {
      ASSERT_EQ(table.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    ++accepted;
    // What parses writes back out and parses to the same rows.
    auto again = ParseTableCsv("t", FormatTableCsv(**table), "again");
    ASSERT_TRUE(again.ok()) << again.status();
    ASSERT_TRUE(SameRows(**table, **again));
  }
  EXPECT_GT(accepted, 0u);
}

TEST_F(LoaderFuzzTest, BinaryDecoder) {
  std::vector<std::string> corpus;
  for (const Table& t : SeedTables()) corpus.push_back(EncodeTableBinary(t));
  size_t accepted = 0;
  for (uint64_t i = 0; i < iterations_; ++i) {
    std::string input =
        Mutate(corpus[rng_.UniformInt(0, corpus.size() - 1)], kInteresting,
               rng_);
    auto table = DecodeTableBinary("t", input);
    if (!table.ok()) {
      ASSERT_EQ(table.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    ++accepted;
    // The format is canonical: what decodes encodes to the same bytes.
    ASSERT_EQ(EncodeTableBinary(**table), input);
  }
  EXPECT_GT(accepted, 0u);
}

TEST_F(LoaderFuzzTest, ManifestParser) {
  std::vector<std::string> corpus;
  Manifest manifest;
  manifest.variables = {{"x", 3}, {"y", 12}};
  manifest.tables = {{"a", "a.g1.csv", "f", {"x"}, 0x0123456789abcdefULL},
                     {"b", "b.g1.mpft", "g", {}, 42}};
  MpfViewDef view;
  view.name = "v";
  view.relations = {"a", "b"};
  manifest.views = {view};
  corpus.push_back(FormatManifest(manifest));
  corpus.push_back(FormatManifest(Manifest{}));
  size_t accepted = 0;
  for (uint64_t i = 0; i < iterations_; ++i) {
    std::string input =
        Mutate(corpus[rng_.UniformInt(0, corpus.size() - 1)], kInteresting,
               rng_);
    if (rng_.Bernoulli(0.5)) {
      // Re-seal: drop whatever now ends the text and append a valid
      // checksum line, so the records themselves get parsed.
      size_t end = input.rfind("checksum|");
      if (end != std::string::npos) input.resize(end);
      if (!input.empty() && input.back() != '\n') input += '\n';
      char line[32];
      std::snprintf(line, sizeof(line), "checksum|%016" PRIx64 "\n",
                    Checksum64(input));
      input += line;
    }
    auto parsed = ParseManifest(input);
    if (!parsed.ok()) {
      ASSERT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    ++accepted;
    for (const auto& t : parsed->tables) {
      ASSERT_EQ(t.file.find('/'), std::string::npos) << t.file;
      ASSERT_NE(t.file, "..");
    }
    // What parses formats back to text that parses to the same records.
    std::string text = FormatManifest(*parsed);
    auto again = ParseManifest(text);
    ASSERT_TRUE(again.ok()) << again.status();
    ASSERT_EQ(FormatManifest(*again), text);
  }
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace mpfdb
