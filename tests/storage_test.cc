#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>

#include <gtest/gtest.h>

#include "core/file_io.h"
#include "storage/catalog.h"
#include "storage/csv.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace mpfdb {
namespace {

TEST(SchemaTest, IndexOfAndHasVariable) {
  Schema schema({"a", "b", "c"}, "f");
  EXPECT_EQ(schema.arity(), 3u);
  EXPECT_EQ(*schema.IndexOf("b"), 1u);
  EXPECT_FALSE(schema.IndexOf("z").has_value());
  EXPECT_TRUE(schema.HasVariable("c"));
  EXPECT_EQ(schema.measure_name(), "f");
  EXPECT_EQ(schema.ToString(), "(a, b, c; f)");
}

TEST(VarsetTest, UnionPreservesOrder) {
  EXPECT_EQ(varset::Union({"a", "b"}, {"b", "c"}),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(varset::Union({}, {"x"}), (std::vector<std::string>{"x"}));
}

TEST(VarsetTest, IntersectAndDifference) {
  EXPECT_EQ(varset::Intersect({"a", "b", "c"}, {"c", "a"}),
            (std::vector<std::string>{"a", "c"}));
  EXPECT_EQ(varset::Difference({"a", "b", "c"}, {"b"}),
            (std::vector<std::string>{"a", "c"}));
  EXPECT_TRUE(varset::Intersect({"a"}, {"b"}).empty());
}

TEST(VarsetTest, SubsetAndSetEquals) {
  EXPECT_TRUE(varset::IsSubset({"a"}, {"b", "a"}));
  EXPECT_FALSE(varset::IsSubset({"a", "z"}, {"a"}));
  EXPECT_TRUE(varset::SetEquals({"a", "b"}, {"b", "a"}));
  EXPECT_FALSE(varset::SetEquals({"a", "b"}, {"a"}));
  EXPECT_TRUE(varset::IsSubset({}, {}));
}

TEST(TableTest, AppendAndRead) {
  Table t("t", Schema({"x", "y"}, "f"));
  t.AppendRow({1, 2}, 0.5);
  t.AppendRow({3, 4}, 1.5);
  ASSERT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.Row(0).var(0), 1);
  EXPECT_EQ(t.Row(0).var(1), 2);
  EXPECT_EQ(t.Row(0).measure, 0.5);
  EXPECT_EQ(t.Row(1).var(0), 3);
  EXPECT_EQ(t.Row(1).measure, 1.5);
}

TEST(TableTest, ZeroArityTableHoldsScalar) {
  Table t("scalar", Schema({}, "f"));
  t.AppendRow(std::vector<VarValue>{}, 7.25);
  ASSERT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(t.Row(0).arity, 0u);
  EXPECT_EQ(t.Row(0).measure, 7.25);
}

TEST(TableTest, SortByVariables) {
  Table t("t", Schema({"x", "y"}, "f"));
  t.AppendRow({2, 1}, 1.0);
  t.AppendRow({1, 9}, 2.0);
  t.AppendRow({1, 3}, 3.0);
  t.SortByVariables({0, 1});
  EXPECT_EQ(t.Row(0).var(0), 1);
  EXPECT_EQ(t.Row(0).var(1), 3);
  EXPECT_EQ(t.Row(0).measure, 3.0);
  EXPECT_EQ(t.Row(1).var(1), 9);
  EXPECT_EQ(t.Row(2).var(0), 2);
}

TEST(TableTest, SortBySecondKeyOnly) {
  Table t("t", Schema({"x", "y"}, "f"));
  t.AppendRow({5, 3}, 1.0);
  t.AppendRow({6, 1}, 2.0);
  t.SortByVariables({1});
  EXPECT_EQ(t.Row(0).var(1), 1);
  EXPECT_EQ(t.Row(1).var(1), 3);
}

TEST(TableTest, CloneIsDeep) {
  Table t("t", Schema({"x"}, "f"));
  t.AppendRow({1}, 1.0);
  auto copy = t.Clone("copy");
  copy->AppendRow({2}, 2.0);
  EXPECT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(copy->NumRows(), 2u);
  EXPECT_EQ(copy->name(), "copy");
}

TEST(TableTest, ToStringTruncates) {
  Table t("t", Schema({"x"}, "f"));
  for (int i = 0; i < 30; ++i) t.AppendRow({i}, 1.0);
  std::string dump = t.ToString(5);
  EXPECT_NE(dump.find("... 25 more rows"), std::string::npos);
}

class CatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.RegisterVariable("x", 10).ok());
    ASSERT_TRUE(catalog_.RegisterVariable("y", 5).ok());
  }

  Catalog catalog_;
};

TEST_F(CatalogTest, VariableRegistration) {
  EXPECT_TRUE(catalog_.HasVariable("x"));
  EXPECT_FALSE(catalog_.HasVariable("z"));
  EXPECT_EQ(*catalog_.DomainSize("x"), 10);
  EXPECT_FALSE(catalog_.DomainSize("z").ok());
  // Same size re-registration is OK; conflicting size is an error.
  EXPECT_TRUE(catalog_.RegisterVariable("x", 10).ok());
  EXPECT_EQ(catalog_.RegisterVariable("x", 11).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(catalog_.RegisterVariable("bad", 0).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CatalogTest, TableRegistration) {
  auto t = std::make_shared<Table>("t", Schema({"x", "y"}, "f"));
  t->AppendRow({1, 2}, 1.0);
  ASSERT_TRUE(catalog_.RegisterTable(t).ok());
  EXPECT_TRUE(catalog_.HasTable("t"));
  EXPECT_EQ(*catalog_.Cardinality("t"), 1);
  EXPECT_EQ(catalog_.RegisterTable(t).code(), StatusCode::kAlreadyExists);

  auto bad = std::make_shared<Table>("bad", Schema({"nope"}, "f"));
  EXPECT_EQ(catalog_.RegisterTable(bad).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(catalog_.RegisterTable(nullptr).code(), StatusCode::kInvalidArgument);

  EXPECT_TRUE(catalog_.DropTable("t").ok());
  EXPECT_FALSE(catalog_.HasTable("t"));
  EXPECT_EQ(catalog_.DropTable("t").code(), StatusCode::kNotFound);
}

TEST_F(CatalogTest, SmallestRelationWith) {
  auto big = std::make_shared<Table>("big", Schema({"x", "y"}, "f"));
  for (int i = 0; i < 20; ++i) big->AppendRow({i % 10, i % 5}, 1.0);
  auto small = std::make_shared<Table>("small", Schema({"x"}, "f"));
  for (int i = 0; i < 3; ++i) small->AppendRow({i}, 1.0);
  ASSERT_TRUE(catalog_.RegisterTable(big).ok());
  ASSERT_TRUE(catalog_.RegisterTable(small).ok());

  EXPECT_EQ(*catalog_.SmallestRelationWith("x", {"big", "small"}), 3);
  EXPECT_EQ(*catalog_.SmallestRelationWith("y", {"big", "small"}), 20);
  EXPECT_FALSE(catalog_.SmallestRelationWith("y", {"small"}).ok());
}

TEST_F(CatalogTest, Density) {
  auto t = std::make_shared<Table>("t", Schema({"x", "y"}, "f"));
  for (int i = 0; i < 25; ++i) t->AppendRow({i % 10, i % 5}, 1.0);
  ASSERT_TRUE(catalog_.RegisterTable(t).ok());
  EXPECT_DOUBLE_EQ(*catalog_.Density("t"), 25.0 / 50.0);
}

TEST(CsvTest, RoundTrip) {
  Table t("t", Schema({"x", "y"}, "f"));
  t.AppendRow({1, 2}, 0.25);
  t.AppendRow({3, 4}, 1.75);
  std::string path =
      (std::filesystem::temp_directory_path() / "mpfdb_csv_test.csv").string();
  ASSERT_TRUE(WriteFileSynced(path, FormatTableCsv(t)).ok());
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto loaded = ParseTableCsv("t2", *bytes, path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->NumRows(), 2u);
  EXPECT_EQ((*loaded)->schema().variables(),
            (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ((*loaded)->schema().measure_name(), "f");
  EXPECT_EQ((*loaded)->Row(1).var(0), 3);
  EXPECT_DOUBLE_EQ((*loaded)->Row(1).measure, 1.75);
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileIsNotFound) {
  EXPECT_EQ(ReadFileBytes("/nonexistent/nope.csv").status().code(),
            StatusCode::kNotFound);
}

TEST(CsvTest, MalformedRowIsInvalidArgument) {
  EXPECT_EQ(ParseTableCsv("t", "x,f\n1,2\nbroken\n", "bad.csv")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// Parses `body` as the CSV file `name`.csv and returns the status.
Status ReadCorruptCsv(const std::string& name, const std::string& body) {
  return ParseTableCsv("t", body, name + ".csv").status();
}

TEST(CsvTest, WrongArityReportsLineNumberAndCounts) {
  Status s = ReadCorruptCsv("arity", "x,y,f\n1,2,0.5\n3,4\n");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("line 3"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("expected 3 fields, got 2"), std::string::npos)
      << s.message();
}

TEST(CsvTest, UnparseableVariableNamesColumnAndLine) {
  Status s = ReadCorruptCsv("badvar", "x,y,f\n1,abc,0.5\n");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("line 2"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("'abc'"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("column 'y'"), std::string::npos) << s.message();
}

TEST(CsvTest, TrailingGarbageInVariableIsRejected) {
  Status s = ReadCorruptCsv("trailvar", "x,f\n12abc,0.5\n");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("'12abc'"), std::string::npos) << s.message();
}

TEST(CsvTest, VariableOverflowing32BitsIsRejected) {
  Status s = ReadCorruptCsv("overflow", "x,f\n99999999999999,0.5\n");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("line 2"), std::string::npos) << s.message();
}

TEST(CsvTest, UnparseableMeasureReportsLine) {
  Status s = ReadCorruptCsv("badmeasure", "x,f\n1,0.5\n2,oops\n");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("line 3"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("'oops'"), std::string::npos) << s.message();
}

TEST(CsvTest, NanMeasureIsRejected) {
  Status s = ReadCorruptCsv("nanmeasure", "x,f\n1,nan\n");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("NaN"), std::string::npos) << s.message();
}

TEST(CsvTest, SubnormalAndExtremeMeasuresRoundTripExactly) {
  Table t("t", Schema({"x"}, "f"));
  const std::vector<double> measures = {
      std::numeric_limits<double>::denorm_min(), -2.5e-310,
      std::numeric_limits<double>::max(), -0.0,
      std::numeric_limits<double>::infinity()};
  for (size_t i = 0; i < measures.size(); ++i) {
    t.AppendRow({static_cast<VarValue>(i)}, measures[i]);
  }
  auto loaded = ParseTableCsv("t", FormatTableCsv(t), "subnormal.csv");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ((*loaded)->NumRows(), measures.size());
  for (size_t i = 0; i < measures.size(); ++i) {
    double m = (*loaded)->measure(i);
    EXPECT_EQ(std::memcmp(&m, &measures[i], sizeof(m)), 0) << i;
  }
  // A measure that overflows a double, or underflows to zero, is still an
  // error.
  EXPECT_EQ(ReadCorruptCsv("overflowmeasure", "x,f\n1,1e999\n").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ReadCorruptCsv("underflowmeasure", "x,f\n1,1e-400\n").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ReadCorruptCsv("underflowmeasure", "x,f\n1,-1e-400\n").code(),
            StatusCode::kInvalidArgument);
}

TEST(CsvTest, WhitespacePaddedNumericsStillParse) {
  auto loaded = ParseTableCsv("t", "x,f\n1 ,0.5 \n", "ws.csv");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded)->NumRows(), 1u);
  EXPECT_EQ((*loaded)->Row(0).var(0), 1);
}

}  // namespace
}  // namespace mpfdb
