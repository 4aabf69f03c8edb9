// Tests for the table-at-a-time kernels (exec/table_ops.h): each must return
// exactly what its fr:: counterpart returns — same schema, same rows in the
// same order, same measure bits (tolerance 0.0, signed zeros included) — on
// every semiring, on dense, negative, sparse and 64-bit-overflowing keys,
// on empty tables and on sealed (chunked) inputs.

#include "exec/table_ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fr/algebra.h"
#include "semiring/semiring.h"
#include "util/rng.h"

namespace mpfdb::exec {
namespace {

const SemiringKind kAllKinds[] = {
    SemiringKind::kSumProduct, SemiringKind::kMinSum,
    SemiringKind::kMaxSum,     SemiringKind::kMaxProduct,
    SemiringKind::kBoolOrAnd,  SemiringKind::kLogSumProduct};

// How a random table draws its variable values.
enum class Values {
  kDense,     // [0, 4): direct-address fold
  kNegative,  // [-3, 3]
  kSparse,    // [-10^9, 10^9]: hash fold (two keys still fit 64 bits)
  kWide,      // the whole int32 range: three keys overflow 64 bits
};

VarValue DrawValue(Rng& rng, Values values) {
  switch (values) {
    case Values::kDense:
      return static_cast<VarValue>(rng.UniformInt(0, 3));
    case Values::kNegative:
      return static_cast<VarValue>(rng.UniformInt(-3, 3));
    case Values::kSparse:
      return static_cast<VarValue>(rng.UniformInt(-1000000000, 1000000000));
    case Values::kWide:
      return static_cast<VarValue>(rng.UniformInt(INT32_MIN, INT32_MAX));
  }
  return 0;
}

// Measures that stress fold order: signed zeros, repeated and mixed-sign
// values (0/1 for the boolean semiring, where -0.0 still appears).
double DrawMeasure(Rng& rng, SemiringKind kind) {
  const int64_t pick = rng.UniformInt(0, 5);
  if (pick == 0) return -0.0;
  if (pick == 1) return 0.0;
  if (kind == SemiringKind::kBoolOrAnd) return 1.0;
  if (pick == 2) return static_cast<double>(rng.UniformInt(-3, 3));
  return rng.UniformDouble(-5.0, 5.0);
}

// A random table over `vars`; with `unique`, no two rows share their
// variable values (the functional dependency joins rely on).
TablePtr RandomTable(Rng& rng, const std::string& name,
                     const std::vector<std::string>& vars, size_t rows,
                     Values values, SemiringKind kind, bool unique = false) {
  auto t = std::make_shared<Table>(name, Schema(vars, "f"));
  std::set<std::vector<VarValue>> seen;
  std::vector<VarValue> row(vars.size());
  for (size_t r = 0; r < rows; ++r) {
    for (auto& v : row) v = DrawValue(rng, values);
    if (unique && !seen.insert(row).second) continue;
    t->AppendRow(row, DrawMeasure(rng, kind));
  }
  return t;
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Bitwise table equality, with the first difference as the failure.
::testing::AssertionResult BitIdentical(const Table& want, const Table& got) {
  if (want.name() != got.name() ||
      want.schema().variables() != got.schema().variables() ||
      want.schema().measure_name() != got.schema().measure_name()) {
    return ::testing::AssertionFailure()
           << "schema " << got.name() << got.schema().ToString() << " vs "
           << want.name() << want.schema().ToString();
  }
  if (want.NumRows() != got.NumRows()) {
    return ::testing::AssertionFailure()
           << got.NumRows() << " rows vs " << want.NumRows();
  }
  for (size_t r = 0; r < want.NumRows(); ++r) {
    for (size_t c = 0; c < want.schema().arity(); ++c) {
      if (want.Row(r).var(c) != got.Row(r).var(c)) {
        return ::testing::AssertionFailure() << "row " << r << " column " << c;
      }
    }
    if (Bits(want.measure(r)) != Bits(got.measure(r))) {
      return ::testing::AssertionFailure()
             << "row " << r << " measure " << got.measure(r) << " vs "
             << want.measure(r);
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(MarginalizeTableTest, MatchesOracleBitForBit) {
  const std::vector<std::string> vars = {"a", "b", "c", "d"};
  Rng rng(20240527);
  for (SemiringKind kind : kAllKinds) {
    const Semiring semiring(kind);
    for (Values values : {Values::kDense, Values::kNegative, Values::kSparse,
                          Values::kWide}) {
      for (size_t width = 0; width <= 3; ++width) {
        for (size_t rows : {size_t{0}, size_t{1}, size_t{37}, size_t{3000}}) {
          for (bool sealed : {false, true}) {
            TablePtr t = RandomTable(rng, "t", vars, rows, values, kind);
            if (sealed) t->SealChunked();
            std::vector<std::string> group = vars;
            rng.Shuffle(group);
            group.resize(width);
            auto want = fr::Marginalize(*t, group, semiring, "m");
            auto got = MarginalizeTable(*t, group, semiring, "m");
            ASSERT_TRUE(want.ok() && got.ok());
            EXPECT_TRUE(BitIdentical(**want, **got))
                << semiring.name() << " width " << width << " rows " << rows
                << " values " << static_cast<int>(values)
                << (sealed ? " sealed" : "");
          }
        }
      }
    }
  }
}

// A group seeded with its first measure keeps -0.0; folding from
// AddIdentity() (0.0 + -0.0 == 0.0) would drop the sign bit.
TEST(MarginalizeTableTest, NegativeZeroGroupKeepsItsSign) {
  auto t = std::make_shared<Table>("t", Schema({"x", "y"}, "f"));
  t->AppendRow({0, 0}, -0.0);
  t->AppendRow({0, 1}, -0.0);
  t->AppendRow({1, 0}, 2.0);
  auto got = MarginalizeTable(*t, {"x"}, Semiring::SumProduct(), "m");
  ASSERT_TRUE(got.ok());
  ASSERT_EQ((*got)->NumRows(), 2u);
  EXPECT_EQ((*got)->Row(0).var(0), 0);
  EXPECT_TRUE(std::signbit((*got)->measure(0)));
  EXPECT_EQ((*got)->measure(1), 2.0);
}

TEST(MarginalizeTableTest, EmptyTableYieldsEmptyGroups) {
  Table t("t", Schema({"x", "y"}, "f"));
  for (const std::vector<std::string>& group :
       {std::vector<std::string>{}, std::vector<std::string>{"y", "x"}}) {
    auto got = MarginalizeTable(t, group, Semiring::SumProduct(), "m");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ((*got)->NumRows(), 0u);
    EXPECT_EQ((*got)->schema().variables(), group);
  }
}

TEST(MarginalizeTableTest, UnknownGroupVariableIsInvalid) {
  Table t("t", Schema({"x"}, "f"));
  auto got = MarginalizeTable(t, {"z"}, Semiring::SumProduct(), "m");
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

TEST(JoinTablesTest, MatchesOracleBitForBit) {
  // Shared-variable layouts: one, two (in different column orders), none,
  // all.
  using Vars = std::vector<std::string>;
  const std::vector<std::pair<Vars, Vars>> layouts = {
      {{"x", "y"}, {"y", "z"}},
      {{"x", "y", "w"}, {"w", "z", "x"}},
      {{"x"}, {"z"}},
      {{"x", "y"}, {"x", "y"}},
  };
  Rng rng(77);
  for (SemiringKind kind : kAllKinds) {
    const Semiring semiring(kind);
    for (Values values : {Values::kDense, Values::kNegative, Values::kSparse,
                          Values::kWide}) {
      for (const auto& [va, vb] : layouts) {
        for (size_t rows : {size_t{0}, size_t{5}, size_t{60}, size_t{1500}}) {
          // A cross product grows quadratically; keep it small.
          if (rows > 60 && varset::Intersect(va, vb).empty()) continue;
          // Sparse and wide keys rarely meet at random: half of b's rows
          // copy a's shared values so the join has matches.
          TablePtr a = RandomTable(rng, "a", va, rows, values, kind, true);
          TablePtr b = RandomTable(rng, "b", vb, rows / 2 + 1, values, kind,
                                   true);
          for (size_t r = 0; r < b->NumRows() && r < a->NumRows(); r += 2) {
            std::vector<VarValue> row(b->Row(r).vars,
                                      b->Row(r).vars + vb.size());
            bool clash = false;
            for (size_t c = 0; c < vb.size(); ++c) {
              if (auto ia = a->schema().IndexOf(vb[c])) {
                row[c] = a->Row(r).var(*ia);
              }
            }
            for (size_t q = 0; q < b->NumRows() && !clash; ++q) {
              clash = std::equal(row.begin(), row.end(), b->Row(q).vars);
            }
            if (!clash) b->AppendRow(row, DrawMeasure(rng, kind));
          }
          if (rows == 1500) b->SealChunked();
          for (bool divide : {false, true}) {
            if (divide && !semiring.HasDivision()) continue;
            for (bool swap : {false, true}) {
              const Table& l = swap ? *b : *a;
              const Table& r = swap ? *a : *b;
              auto want = divide ? fr::DivisionJoin(l, r, semiring, "j")
                                 : fr::ProductJoin(l, r, semiring, "j");
              auto got = JoinTables(l, r, semiring, "j", divide);
              ASSERT_TRUE(want.ok() && got.ok());
              EXPECT_TRUE(BitIdentical(**want, **got))
                  << semiring.name() << (divide ? " divide" : " product")
                  << " rows " << rows << " values "
                  << static_cast<int>(values) << (swap ? " swapped" : "");
            }
          }
        }
      }
    }
  }
}

TEST(JoinTablesTest, DivisionNeedsDivision) {
  Table a("a", Schema({"x"}, "f"));
  auto got = JoinTables(a, a, Semiring::BoolOrAnd(), "j", /*divide=*/true);
  EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition);
}

TEST(FilterMeasureTableTest, MatchesOracle) {
  Rng rng(5);
  TablePtr t = RandomTable(rng, "t", {"x", "y"}, 200, Values::kNegative,
                           SemiringKind::kSumProduct);
  for (CompareOp op : {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                       CompareOp::kGe, CompareOp::kEq, CompareOp::kNe}) {
    const HavingClause having{op, 0.0};
    auto want = fr::FilterMeasure(*t, having, "h");
    ASSERT_TRUE(want.ok());
    EXPECT_TRUE(BitIdentical(**want, *FilterMeasureTable(*t, having, "h")));
  }
}

}  // namespace
}  // namespace mpfdb::exec
