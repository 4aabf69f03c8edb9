// Operator-level tests of the batch execution engine, including edge cases
// (empty inputs, no shared variables, duplicate keys), each checked against
// the fr reference algebra at tolerance 0.0.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "exec/executor.h"
#include "exec/operator.h"
#include "fr/algebra.h"
#include "storage/index.h"
#include "util/query_context.h"
#include "util/rng.h"

namespace mpfdb::exec {
namespace {

TablePtr MakeTable(const std::string& name, std::vector<std::string> vars,
                   std::vector<std::pair<std::vector<VarValue>, double>> rows) {
  auto t = std::make_shared<Table>(name, Schema(std::move(vars), "f"));
  for (auto& [v, m] : rows) t->AppendRow(v, m);
  return t;
}

TablePtr RandomTable(const std::string& name, std::vector<std::string> vars,
                     std::vector<int64_t> domains, size_t rows, Rng& rng) {
  auto t = std::make_shared<Table>(name, Schema(std::move(vars), "f"));
  std::set<std::vector<VarValue>> seen;
  while (t->NumRows() < rows) {
    std::vector<VarValue> row;
    for (int64_t d : domains) {
      row.push_back(static_cast<VarValue>(rng.UniformInt(0, d - 1)));
    }
    if (!seen.insert(row).second) continue;
    t->AppendRow(row, rng.UniformDouble(0.5, 2.0));
  }
  return t;
}

TEST(SeqScanTest, StreamsAllRows) {
  TablePtr t = MakeTable("t", {"x"}, {{{0}, 1.0}, {{1}, 2.0}});
  SeqScan scan(t);
  ASSERT_TRUE(scan.Open().ok());
  RowBatch batch;
  ASSERT_TRUE(*scan.NextBatch(&batch));
  ASSERT_EQ(batch.num_rows(), 2u);
  EXPECT_EQ(batch.col(0)[0], 0);
  EXPECT_EQ(batch.col(0)[1], 1);
  EXPECT_EQ(batch.measures()[1], 2.0);
  EXPECT_FALSE(*scan.NextBatch(&batch));
  scan.Close();
  // Re-open rewinds.
  ASSERT_TRUE(scan.Open().ok());
  ASSERT_TRUE(*scan.NextBatch(&batch));
  EXPECT_EQ(batch.col(0)[0], 0);
}

TEST(FilterTest, PassesMatchingRows) {
  TablePtr t = MakeTable("t", {"x", "y"},
                         {{{0, 1}, 1.0}, {{1, 1}, 2.0}, {{1, 2}, 3.0}});
  Filter filter(std::make_unique<SeqScan>(t), "x", 1);
  auto result = ::mpfdb::exec::Run(filter, "out");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->NumRows(), 2u);
}

TEST(FilterTest, UnknownVariableFailsAtOpen) {
  TablePtr t = MakeTable("t", {"x"}, {{{0}, 1.0}});
  Filter filter(std::make_unique<SeqScan>(t), "zz", 1);
  EXPECT_FALSE(filter.Open().ok());
}

TEST(MeasureFilterTest, FiltersOnMeasure) {
  TablePtr t = MakeTable("t", {"x"}, {{{0}, 1.0}, {{1}, 5.0}, {{2}, 3.0}});
  MeasureFilter filter(std::make_unique<SeqScan>(t),
                       HavingClause{CompareOp::kGe, 3.0});
  auto result = ::mpfdb::exec::Run(filter, "out");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->NumRows(), 2u);
}

TEST(StreamProjectTest, DropsColumns) {
  TablePtr t = MakeTable("t", {"x", "y", "z"}, {{{1, 2, 3}, 4.0}});
  StreamProject project(std::make_unique<SeqScan>(t), {"z", "x"});
  auto result = ::mpfdb::exec::Run(project, "out");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->schema().variables(),
            (std::vector<std::string>{"z", "x"}));
  EXPECT_EQ((*result)->Row(0).var(0), 3);
  EXPECT_EQ((*result)->Row(0).var(1), 1);
}

// Canonically sorted result of hash-joining left and right.
TablePtr JoinTables(TablePtr left, TablePtr right) {
  HashProductJoin join(std::make_unique<SeqScan>(std::move(left)),
                       std::make_unique<SeqScan>(std::move(right)),
                       Semiring::SumProduct());
  auto result = ::mpfdb::exec::Run(join, "out");
  EXPECT_TRUE(result.ok()) << result.status();
  std::vector<size_t> all((*result)->schema().arity());
  std::iota(all.begin(), all.end(), 0);
  (*result)->SortByVariables(all);
  return *result;
}

TEST(JoinAlgorithmTest, MatchesReferenceAlgebra) {
  Rng rng(101);
  for (int trial = 0; trial < 5; ++trial) {
    TablePtr a = RandomTable("a", {"x", "y"}, {6, 4}, 15, rng);
    TablePtr b = RandomTable("b", {"y", "z"}, {4, 5}, 12, rng);
    auto expected = fr::ProductJoin(*a, *b, Semiring::SumProduct(), "ref");
    ASSERT_TRUE(expected.ok());
    TablePtr actual = JoinTables(a, b);
    EXPECT_TRUE(fr::TablesEqual(**expected, *actual, /*tolerance=*/0.0))
        << trial;
  }
}

TEST(JoinAlgorithmTest, EmptyInputs) {
  TablePtr a = MakeTable("a", {"x", "y"}, {});
  TablePtr b = MakeTable("b", {"y", "z"}, {{{0, 0}, 1.0}});
  EXPECT_EQ(JoinTables(a, b)->NumRows(), 0u);
  EXPECT_EQ(JoinTables(b, a)->NumRows(), 0u);
  EXPECT_EQ(JoinTables(a, a)->NumRows(), 0u);
}

TEST(JoinAlgorithmTest, CrossProductWhenNoSharedVars) {
  TablePtr a = MakeTable("a", {"x"}, {{{0}, 2.0}, {{1}, 3.0}});
  TablePtr b = MakeTable("b", {"y"}, {{{0}, 5.0}, {{1}, 7.0}, {{2}, 11.0}});
  TablePtr result = JoinTables(a, b);
  EXPECT_EQ(result->NumRows(), 6u);
}

TEST(JoinAlgorithmTest, DuplicateKeysProducePairwiseProduct) {
  // Two rows per key on each side -> 4 output rows per key; the join output
  // here is NOT a functional relation (y alone doesn't determine the rest),
  // which is why plans marginalize afterwards.
  TablePtr a = MakeTable("a", {"x", "y"},
                         {{{0, 0}, 2.0}, {{1, 0}, 3.0}, {{2, 1}, 5.0}});
  TablePtr b = MakeTable("b", {"y", "z"},
                         {{{0, 0}, 7.0}, {{0, 1}, 11.0}, {{1, 0}, 13.0}});
  TablePtr result = JoinTables(a, b);
  EXPECT_EQ(result->NumRows(), 5u);  // 2*2 for y=0, 1*1 for y=1
  double total = 0;
  for (size_t i = 0; i < result->NumRows(); ++i) total += result->measure(i);
  EXPECT_DOUBLE_EQ(total, (2.0 + 3.0) * (7.0 + 11.0) + 5.0 * 13.0);
}

TEST(JoinAlgorithmTest, MultiVariableSharedKeys) {
  Rng rng(7);
  TablePtr a = RandomTable("a", {"x", "y", "z"}, {3, 3, 3}, 12, rng);
  TablePtr b = RandomTable("b", {"y", "z", "w"}, {3, 3, 3}, 12, rng);
  auto expected = fr::ProductJoin(*a, *b, Semiring::SumProduct(), "ref");
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(
      fr::TablesEqual(**expected, *JoinTables(a, b), /*tolerance=*/0.0));
}

// A hash marginalize of `input` onto `group_vars`.
OperatorPtr MakeAgg(TablePtr input, std::vector<std::string> group_vars,
                    Semiring semiring) {
  return std::make_unique<HashMarginalize>(std::make_unique<SeqScan>(input),
                                           std::move(group_vars), semiring);
}

TEST(AggAlgorithmTest, MatchesReferenceAlgebra) {
  Rng rng(11);
  for (int trial = 0; trial < 5; ++trial) {
    TablePtr t = RandomTable("t", {"x", "y", "z"}, {4, 3, 5}, 30, rng);
    for (const Semiring semiring :
         {Semiring::SumProduct(), Semiring::MinSum(), Semiring::MaxProduct()}) {
      auto expected = fr::Marginalize(*t, {"y"}, semiring, "ref");
      ASSERT_TRUE(expected.ok());
      OperatorPtr agg = MakeAgg(t, {"y"}, semiring);
      auto actual = ::mpfdb::exec::Run(*agg, "out");
      ASSERT_TRUE(actual.ok());
      std::vector<size_t> all((*actual)->schema().arity());
      std::iota(all.begin(), all.end(), 0);
      (*actual)->SortByVariables(all);
      EXPECT_TRUE(fr::TablesEqual(**expected, **actual, /*tolerance=*/0.0))
          << semiring.name();
    }
  }
}

TEST(AggAlgorithmTest, EmptyInput) {
  TablePtr t = MakeTable("t", {"x"}, {});
  OperatorPtr agg = MakeAgg(t, {"x"}, Semiring::SumProduct());
  auto result = ::mpfdb::exec::Run(*agg, "out");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->NumRows(), 0u);
}

TEST(AggAlgorithmTest, GroupByNothingYieldsScalar) {
  TablePtr t = MakeTable("t", {"x"}, {{{0}, 1.5}, {{1}, 2.5}});
  OperatorPtr agg = MakeAgg(t, {}, Semiring::SumProduct());
  auto result = ::mpfdb::exec::Run(*agg, "out");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ((*result)->NumRows(), 1u);
  EXPECT_DOUBLE_EQ((*result)->measure(0), 4.0);
}

TEST(AggAlgorithmTest, UnknownGroupVariableFailsAtOpen) {
  TablePtr t = MakeTable("t", {"x"}, {{{0}, 1.0}});
  OperatorPtr agg = MakeAgg(t, {"zz"}, Semiring::SumProduct());
  EXPECT_FALSE(agg->Open().ok());
}

// Test double that fails at a chosen point, for error-propagation coverage.
class FailingOperator : public PhysicalOperator {
 public:
  enum class FailAt { kOpen, kNextImmediately, kNextAfterOne };

  FailingOperator(TablePtr table, FailAt fail_at)
      : table_(std::move(table)), fail_at_(fail_at) {}

  Status Open() override {
    if (fail_at_ == FailAt::kOpen) {
      return Status::Internal("injected open failure");
    }
    emitted_ = 0;
    return Status::Ok();
  }
  // Emits one row per batch, so kNextAfterOne fails on the second pull.
  StatusOr<bool> NextBatch(RowBatch* batch) override {
    if (fail_at_ == FailAt::kNextImmediately ||
        (fail_at_ == FailAt::kNextAfterOne && emitted_ >= 1)) {
      return Status::Internal("injected next failure");
    }
    batch->Prepare(table_->schema().arity());
    if (emitted_ >= table_->NumRows()) return false;
    RowView view = table_->Row(emitted_++);
    batch->AppendRow(view.vars, view.measure);
    return true;
  }
  void Close() override {}
  const Schema& output_schema() const override { return table_->schema(); }
  std::string name() const override { return "FailingOperator"; }

 private:
  TablePtr table_;
  FailAt fail_at_;
  size_t emitted_ = 0;
};

class FailureInjectionTest
    : public ::testing::TestWithParam<FailingOperator::FailAt> {
 protected:
  OperatorPtr Failing(TablePtr t) {
    return std::make_unique<FailingOperator>(std::move(t), GetParam());
  }
};

TEST_P(FailureInjectionTest, ErrorsPropagateThroughEveryOperator) {
  TablePtr t = MakeTable("t", {"x", "y"}, {{{0, 0}, 1.0}, {{1, 0}, 2.0}});
  TablePtr other = MakeTable("o", {"y", "z"}, {{{0, 0}, 1.0}, {{0, 1}, 2.0}});
  Semiring sr = Semiring::SumProduct();

  // Unary operators.
  {
    Filter op(Failing(t), "x", 0);
    EXPECT_FALSE(::mpfdb::exec::Run(op, "out").ok());
  }
  {
    HashMarginalize op(Failing(t), {"x"}, sr);
    EXPECT_FALSE(::mpfdb::exec::Run(op, "out").ok());
  }
  {
    StreamProject op(Failing(t), {"x"});
    EXPECT_FALSE(::mpfdb::exec::Run(op, "out").ok());
  }
  {
    MeasureFilter op(Failing(t), HavingClause{CompareOp::kGt, 0.0});
    EXPECT_FALSE(::mpfdb::exec::Run(op, "out").ok());
  }

  // Joins, failing child on either side.
  {
    HashProductJoin op(Failing(t), std::make_unique<SeqScan>(other), sr);
    EXPECT_FALSE(::mpfdb::exec::Run(op, "out").ok());
  }
  {
    HashProductJoin op(std::make_unique<SeqScan>(other), Failing(t), sr);
    EXPECT_FALSE(::mpfdb::exec::Run(op, "out").ok());
  }
}

INSTANTIATE_TEST_SUITE_P(
    FailPoints, FailureInjectionTest,
    ::testing::Values(FailingOperator::FailAt::kOpen,
                      FailingOperator::FailAt::kNextImmediately,
                      FailingOperator::FailAt::kNextAfterOne),
    [](const auto& info) {
      switch (info.param) {
        case FailingOperator::FailAt::kOpen:
          return "open";
        case FailingOperator::FailAt::kNextImmediately:
          return "first_next";
        case FailingOperator::FailAt::kNextAfterOne:
          return "second_next";
      }
      return "unknown";
    });

TEST(ExecutorTest, ComposedPipeline) {
  // Filter -> Join -> Marginalize pipeline built by hand.
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterVariable("x", 3).ok());
  ASSERT_TRUE(catalog.RegisterVariable("y", 3).ok());
  ASSERT_TRUE(catalog.RegisterVariable("z", 3).ok());
  auto a = MakeTable("a", {"x", "y"},
                     {{{0, 0}, 1.0}, {{0, 1}, 2.0}, {{1, 0}, 4.0}});
  auto b = MakeTable("b", {"y", "z"}, {{{0, 0}, 3.0}, {{1, 2}, 5.0}});
  ASSERT_TRUE(catalog.RegisterTable(a).ok());
  ASSERT_TRUE(catalog.RegisterTable(b).ok());

  CostModel cost_model;
  PlanBuilder builder(catalog, cost_model);
  auto scan_a = builder.Scan("a");
  auto scan_b = builder.Scan("b");
  ASSERT_TRUE(scan_a.ok() && scan_b.ok());
  auto filtered = builder.Select(*scan_a, "x", 0);
  ASSERT_TRUE(filtered.ok());
  auto joined = builder.Join(*filtered, *scan_b);
  ASSERT_TRUE(joined.ok());
  auto grouped = builder.GroupBy(*joined, {"z"});
  ASSERT_TRUE(grouped.ok());

  Executor executor(catalog, Semiring::SumProduct());
  auto result = executor.Execute(**grouped, "out");
  ASSERT_TRUE(result.ok());
  // x=0 rows: (0,0;1),(0,1;2); join: (0,0,0;3), (0,1,2;10); group by z.
  ASSERT_EQ((*result)->NumRows(), 2u);
  EXPECT_DOUBLE_EQ((*result)->measure(0), 3.0);
  EXPECT_DOUBLE_EQ((*result)->measure(1), 10.0);
}

// --- Packed key codec --------------------------------------------------------

TEST(PackedKeyCodecTest, RoundTripsAndPreservesLexOrder) {
  auto codec = PackedKeyCodec::Make({4, 8});
  ASSERT_TRUE(codec.has_value());
  EXPECT_EQ(codec->num_vars(), 2u);
  std::vector<uint64_t> keys;
  for (VarValue a = 0; a < 4; ++a) {
    for (VarValue b = 0; b < 8; ++b) {
      VarValue vals[] = {a, b};
      uint64_t key = 0;
      ASSERT_TRUE(codec->Encode(vals, &key));
      VarValue decoded[2];
      codec->Decode(key, decoded);
      EXPECT_EQ(decoded[0], a);
      EXPECT_EQ(decoded[1], b);
      keys.push_back(key);
    }
  }
  // The enumeration above is lexicographic, so the packed keys must be
  // strictly increasing — HashMarginalize sorts on the packed integer and
  // relies on that matching tuple order.
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(std::set<uint64_t>(keys.begin(), keys.end()).size(), keys.size());
}

TEST(PackedKeyCodecTest, RejectsKeysWiderThan64Bits) {
  // 33 + 32 = 65 bits: no packed representation.
  EXPECT_FALSE(
      PackedKeyCodec::Make({int64_t{1} << 33, int64_t{1} << 32}).has_value());
  // 32 + 31 = 63 bits still fits.
  EXPECT_TRUE(
      PackedKeyCodec::Make({int64_t{1} << 32, int64_t{1} << 31}).has_value());
  // Degenerate domains are rejected outright.
  EXPECT_FALSE(PackedKeyCodec::Make({0}).has_value());
  EXPECT_FALSE(PackedKeyCodec::Make({4, -1}).has_value());
}

TEST(PackedKeyCodecTest, DetectsOutOfDomainValues) {
  auto codec = PackedKeyCodec::Make({4, 4});  // 2 bits per component
  ASSERT_TRUE(codec.has_value());
  uint64_t key = 0;
  VarValue ok_vals[] = {3, 3};
  EXPECT_TRUE(codec->Encode(ok_vals, &key));
  VarValue bad_vals[] = {4, 0};
  EXPECT_FALSE(codec->Encode(bad_vals, &key));
  // The columnar variant flags the same violation.
  VarValue col0[] = {0, 4};
  VarValue col1[] = {0, 0};
  const VarValue* cols[] = {col0, col1};
  uint64_t keys[2];
  EXPECT_FALSE(codec->EncodeColumnar(cols, 2, keys));
}

TEST(PackedKeyCodecTest, ColumnarMatchesScalarEncode) {
  Rng rng(17);
  auto codec = PackedKeyCodec::Make({6, 10, 3});
  ASSERT_TRUE(codec.has_value());
  constexpr size_t kN = 257;
  std::vector<VarValue> c0(kN), c1(kN), c2(kN);
  for (size_t r = 0; r < kN; ++r) {
    c0[r] = static_cast<VarValue>(rng.UniformInt(0, 5));
    c1[r] = static_cast<VarValue>(rng.UniformInt(0, 9));
    c2[r] = static_cast<VarValue>(rng.UniformInt(0, 2));
  }
  const VarValue* cols[] = {c0.data(), c1.data(), c2.data()};
  std::vector<uint64_t> keys(kN);
  ASSERT_TRUE(codec->EncodeColumnar(cols, kN, keys.data()));
  for (size_t r = 0; r < kN; ++r) {
    VarValue vals[] = {c0[r], c1[r], c2[r]};
    uint64_t key = 0;
    ASSERT_TRUE(codec->Encode(vals, &key));
    EXPECT_EQ(keys[r], key);
  }
}

// --- Batch execution against the fr oracle ---------------------------------

// Overwrites every measure with a power of two in [1/4, 4]. Products and sums
// of such values stay exact in double precision at these sizes, so any fold
// order — the engine's or the fr oracle's — yields the same bits.
void MakeDyadic(const TablePtr& t, Rng& rng) {
  for (size_t r = 0; r < t->NumRows(); ++r) {
    t->set_measure(r,
                   std::ldexp(1.0, static_cast<int>(rng.UniformInt(-2, 2))));
  }
}

class BatchExecutionTest : public ::testing::Test {
 protected:
  static TablePtr Canon(StatusOr<TablePtr> result) {
    EXPECT_TRUE(result.ok()) << result.status();
    std::vector<size_t> all((*result)->schema().arity());
    std::iota(all.begin(), all.end(), 0);
    (*result)->SortByVariables(all);
    return *result;
  }

  // Runs `tree` and demands its canonically sorted output equal the fr
  // oracle's `expected` (canonical already) bit for bit.
  static void ExpectMatchesOracle(PhysicalOperator& tree,
                                  StatusOr<TablePtr> expected) {
    ASSERT_TRUE(expected.ok()) << expected.status();
    TablePtr actual = Canon(::mpfdb::exec::Run(tree, "out"));
    ASSERT_EQ(actual->NumRows(), (*expected)->NumRows());
    EXPECT_TRUE(fr::TablesEqual(**expected, *actual, 0.0));
  }

  // Opens `op` and pulls one batch, which must be full.
  static void ExpectFullFirstBatch(PhysicalOperator& op, RowBatch* batch) {
    ASSERT_TRUE(op.Open().ok());
    auto has = op.NextBatch(batch);
    ASSERT_TRUE(has.ok()) << has.status();
    ASSERT_TRUE(*has);
    EXPECT_EQ(batch->num_rows(), kBatchSize);
  }
};

TEST_F(BatchExecutionTest, JoinAggPipelineBitIdentical) {
  // Inputs larger than one batch so the pipeline crosses batch boundaries;
  // run with packed keys (catalog), the vector-key fallback (no catalog),
  // and semirings whose Multiply is *, +, and max-compatible.
  Rng rng(31);
  TablePtr a = RandomTable("a", {"x", "y"}, {4096, 64}, 3000, rng);
  TablePtr b = RandomTable("b", {"y", "z"}, {64, 4096}, 3000, rng);
  MakeDyadic(a, rng);
  MakeDyadic(b, rng);
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterVariable("x", 4096).ok());
  ASSERT_TRUE(catalog.RegisterVariable("y", 64).ok());
  ASSERT_TRUE(catalog.RegisterVariable("z", 4096).ok());
  for (const Semiring semiring :
       {Semiring::SumProduct(), Semiring::MinSum(), Semiring::MaxProduct()}) {
    auto joined = fr::ProductJoin(*a, *b, semiring, "ref");
    ASSERT_TRUE(joined.ok());
    for (const Catalog* cat :
         {static_cast<const Catalog*>(&catalog), (const Catalog*)nullptr}) {
      HashMarginalize tree(
          std::make_unique<HashProductJoin>(std::make_unique<SeqScan>(a),
                                            std::make_unique<SeqScan>(b),
                                            semiring, cat),
          std::vector<std::string>{"x", "y"}, semiring, cat);
      ExpectMatchesOracle(
          tree, fr::Marginalize(**joined, {"x", "y"}, semiring, "ref"));
    }
  }
}

TEST_F(BatchExecutionTest, PackedAndVectorKeysAgree) {
  Rng rng(37);
  TablePtr a = RandomTable("a", {"x", "y"}, {512, 16}, 1500, rng);
  TablePtr b = RandomTable("b", {"y", "z"}, {16, 512}, 1500, rng);
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterVariable("x", 512).ok());
  ASSERT_TRUE(catalog.RegisterVariable("y", 16).ok());
  ASSERT_TRUE(catalog.RegisterVariable("z", 512).ok());
  Semiring sr = Semiring::SumProduct();
  auto make_tree = [&](const Catalog* cat) -> OperatorPtr {
    auto join = std::make_unique<HashProductJoin>(
        std::make_unique<SeqScan>(a), std::make_unique<SeqScan>(b), sr, cat);
    return std::make_unique<HashMarginalize>(
        std::move(join), std::vector<std::string>{"y"}, sr, cat);
  };
  OperatorPtr packed_tree = make_tree(&catalog);
  OperatorPtr vector_tree = make_tree(nullptr);
  TablePtr packed = Canon(::mpfdb::exec::Run(*packed_tree, "out"));
  TablePtr vec = Canon(::mpfdb::exec::Run(*vector_tree, "out"));
  EXPECT_TRUE(fr::TablesEqual(*packed, *vec, 0.0));
}

TEST_F(BatchExecutionTest, StreamingOperatorsBitIdentical) {
  // Unique (x, y, z) tuples with y fixed by the filter make the (z, x)
  // projection a bijection, so the oracle's marginalization is a pure
  // projection and every measure passes through untouched.
  Rng rng(32);
  TablePtr t = RandomTable("t", {"x", "y", "z"}, {64, 8, 64}, 2500, rng);
  const HavingClause having{CompareOp::kGt, 1.0};
  auto filter = std::make_unique<Filter>(std::make_unique<SeqScan>(t), "y", 3);
  auto measure_filter =
      std::make_unique<MeasureFilter>(std::move(filter), having);
  StreamProject tree(std::move(measure_filter),
                     std::vector<std::string>{"z", "x"});
  auto selected = fr::Select(*t, "y", 3, "ref");
  ASSERT_TRUE(selected.ok());
  auto kept = fr::FilterMeasure(**selected, having, "ref");
  ASSERT_TRUE(kept.ok());
  ExpectMatchesOracle(
      tree, fr::Marginalize(**kept, {"z", "x"}, Semiring::SumProduct(), "ref"));
}

TEST_F(BatchExecutionTest, GroupByNothingBitIdentical) {
  // Exercises the zero-arity packed codec (every row keys to 0). Both the
  // operator and the oracle fold in input order, so random measures compare
  // exactly.
  Rng rng(34);
  TablePtr t = RandomTable("t", {"x"}, {4096}, 2000, rng);
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterVariable("x", 4096).ok());
  HashMarginalize tree(std::make_unique<SeqScan>(t), std::vector<std::string>{},
                       Semiring::SumProduct(), &catalog);
  ExpectMatchesOracle(tree,
                      fr::Marginalize(*t, {}, Semiring::SumProduct(), "ref"));
}

// IndexScan's native batch path: 1500 matches span two batches, the output
// equals fr's selection, and a cancel between pulls stops the scan.
TEST_F(BatchExecutionTest, IndexScanBatchesMatchOracleAndCancel) {
  auto t = std::make_shared<Table>("t", Schema({"x", "y"}, "f"));
  for (VarValue y = 0; y < 3000; ++y) t->AppendRow({y % 2, y}, 1.0);
  auto index = HashIndex::Build(*t, "x");
  ASSERT_TRUE(index.ok()) << index.status();
  {
    IndexScan scan(t, index->get(), 1);
    ExpectMatchesOracle(scan, fr::Select(*t, "x", 1, "ref"));
  }
  {
    IndexScan scan(t, index->get(), 1);
    RowBatch batch;
    ExpectFullFirstBatch(scan, &batch);
    auto has = scan.NextBatch(&batch);
    ASSERT_TRUE(has.ok() && *has);
    EXPECT_EQ(batch.num_rows(), 1500 - kBatchSize);
    EXPECT_FALSE(*scan.NextBatch(&batch));
    scan.Close();
  }
  {
    QueryContext ctx;
    IndexScan scan(t, index->get(), 1);
    scan.BindContext(&ctx);
    RowBatch batch;
    ExpectFullFirstBatch(scan, &batch);
    ctx.RequestCancel();
    auto has = scan.NextBatch(&batch);
    ASSERT_FALSE(has.ok());
    EXPECT_EQ(has.status().code(), StatusCode::kCancelled);
    scan.Close();
  }
}

TEST_F(BatchExecutionTest, EmptyInputs) {
  TablePtr empty = MakeTable("e", {"x", "y"}, {});
  TablePtr other = MakeTable("o", {"y", "z"}, {{{0, 0}, 1.0}});
  Semiring sr = Semiring::SumProduct();
  {
    HashProductJoin join(std::make_unique<SeqScan>(empty),
                         std::make_unique<SeqScan>(other), sr);
    auto result = ::mpfdb::exec::Run(join, "out");
    ASSERT_TRUE(result.ok());
    EXPECT_EQ((*result)->NumRows(), 0u);
  }
  {
    HashProductJoin join(std::make_unique<SeqScan>(other),
                         std::make_unique<SeqScan>(empty), sr);
    auto result = ::mpfdb::exec::Run(join, "out");
    ASSERT_TRUE(result.ok());
    EXPECT_EQ((*result)->NumRows(), 0u);
  }
  {
    HashMarginalize agg(std::make_unique<SeqScan>(empty),
                        std::vector<std::string>{"x"}, sr);
    auto result = ::mpfdb::exec::Run(agg, "out");
    ASSERT_TRUE(result.ok());
    EXPECT_EQ((*result)->NumRows(), 0u);
  }
}

TEST_F(BatchExecutionTest, OutOfDomainValueFailsUnderPackedKeys) {
  // The catalog declares dom(x) = 2 but the data contains x = 5: the packed
  // path must fail loudly rather than silently corrupt keys. Without a
  // catalog no domain is assumed and the same input succeeds.
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterVariable("x", 2).ok());
  ASSERT_TRUE(catalog.RegisterVariable("y", 2).ok());
  TablePtr t = MakeTable("t", {"x", "y"}, {{{0, 0}, 1.0}, {{5, 1}, 2.0}});
  Semiring sr = Semiring::SumProduct();
  {
    HashMarginalize agg(std::make_unique<SeqScan>(t),
                        std::vector<std::string>{"x"}, sr, &catalog);
    auto result = ::mpfdb::exec::Run(agg, "out");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  {
    TablePtr u = MakeTable("u", {"y"}, {{{5}, 1.0}});
    HashProductJoin join(std::make_unique<SeqScan>(u),
                         std::make_unique<SeqScan>(t), sr, &catalog);
    EXPECT_FALSE(::mpfdb::exec::Run(join, "out").ok());
  }
  {
    HashMarginalize agg(std::make_unique<SeqScan>(t),
                        std::vector<std::string>{"x"}, sr);
    EXPECT_TRUE(::mpfdb::exec::Run(agg, "out").ok());
  }
}

TEST(ExecutorTest, MissingTableFails) {
  Catalog catalog;
  CostModel cost_model;
  ASSERT_TRUE(catalog.RegisterVariable("x", 2).ok());
  auto t = MakeTable("t", {"x"}, {{{0}, 1.0}});
  ASSERT_TRUE(catalog.RegisterTable(t).ok());
  PlanBuilder builder(catalog, cost_model);
  auto scan = builder.Scan("t");
  ASSERT_TRUE(scan.ok());
  // Executing against a different catalog without the table fails.
  Catalog empty;
  Executor executor(empty, Semiring::SumProduct());
  EXPECT_FALSE(executor.Execute(**scan, "out").ok());
}

}  // namespace
}  // namespace mpfdb::exec
