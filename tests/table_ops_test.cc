// Tests for the table-at-a-time kernels (exec/table_ops.h): each must return
// exactly what its fr:: counterpart returns — same schema, same rows in the
// same order, same measure bits (tolerance 0.0, signed zeros included) — on
// every semiring, on dense, negative, sparse and 64-bit-overflowing keys,
// on empty tables and on sealed (chunked) inputs. The row maps the kernels
// report must name, for every output row, the input rows that made it.

#include "exec/table_ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
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
  kWideFew,   // INT32_MIN, -1, 0, INT32_MAX: two keys overflow 64 bits, and
              // rows repeat values column by column
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
    case Values::kWideFew: {
      constexpr VarValue kFew[] = {INT32_MIN, -1, 0, INT32_MAX};
      return kFew[rng.UniformInt(0, 3)];
    }
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

// A copy of `t` with its rows in canonical order.
TablePtr Canonical(const Table& t) {
  TablePtr sorted(t.Clone(t.name()));
  std::vector<size_t> all(t.schema().arity());
  for (size_t c = 0; c < all.size(); ++c) all[c] = c;
  sorted->SortByVariables(all);
  return sorted;
}

// Whether row `r` of `t` has, on `t_cols`, the values row `o` of `out` has
// on `out_cols`.
bool SameValues(const Table& t, size_t r, const std::vector<size_t>& t_cols,
                const Table& out, size_t o,
                const std::vector<size_t>& out_cols) {
  for (size_t c = 0; c < t_cols.size(); ++c) {
    if (t.Row(r).var(t_cols[c]) != out.Row(o).var(out_cols[c])) return false;
  }
  return true;
}

std::vector<size_t> Columns(const Schema& schema,
                            const std::vector<std::string>& vars) {
  std::vector<size_t> cols;
  for (const auto& v : vars) cols.push_back(*schema.IndexOf(v));
  return cols;
}

// Checks a join's row maps: each output row agrees with its left row on
// a's variables and with its right row on b's, its measure is exactly the
// join's combination of theirs, and no (left, right) pair repeats.
::testing::AssertionResult JoinRowsExplain(const Table& a, const Table& b,
                                           const Table& out,
                                           const JoinRows& rows,
                                           const Semiring& semiring,
                                           bool divide) {
  if (rows.left.size() != out.NumRows() || rows.right.size() != out.NumRows()) {
    return ::testing::AssertionFailure()
           << rows.left.size() << "/" << rows.right.size() << " row maps for "
           << out.NumRows() << " rows";
  }
  const std::vector<size_t> a_in_out =
      Columns(out.schema(), a.schema().variables());
  const std::vector<size_t> b_in_out =
      Columns(out.schema(), b.schema().variables());
  std::vector<size_t> a_all(a.schema().arity()), b_all(b.schema().arity());
  for (size_t c = 0; c < a_all.size(); ++c) a_all[c] = c;
  for (size_t c = 0; c < b_all.size(); ++c) b_all[c] = c;
  std::set<std::pair<uint32_t, uint32_t>> pairs;
  for (size_t o = 0; o < out.NumRows(); ++o) {
    const uint32_t l = rows.left[o], r = rows.right[o];
    if (l >= a.NumRows() || r >= b.NumRows() ||
        !SameValues(a, l, a_all, out, o, a_in_out) ||
        !SameValues(b, r, b_all, out, o, b_in_out) ||
        !pairs.insert({l, r}).second) {
      return ::testing::AssertionFailure()
             << "output row " << o << " maps to rows " << l << ", " << r;
    }
    const double am = a.measure(l), bm = b.measure(r);
    const double want = divide ? semiring.Divide(am, bm)
                        : a.NumRows() < b.NumRows() ? semiring.Multiply(bm, am)
                                                    : semiring.Multiply(am, bm);
    if (Bits(want) != Bits(out.measure(o))) {
      return ::testing::AssertionFailure() << "output row " << o << " measure";
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
                          Values::kWide, Values::kWideFew}) {
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

// Each input row's reported group is the output row it folded into: the
// row carries that output row's group values, and folding every group's
// rows in row order reproduces the output's measure bits.
TEST(MarginalizeTableTest, GroupOfNamesTheOutputRowEachRowFoldsInto) {
  const std::vector<std::string> vars = {"a", "b", "c", "d"};
  Rng rng(314);
  for (SemiringKind kind : kAllKinds) {
    const Semiring semiring(kind);
    for (Values values : {Values::kDense, Values::kNegative, Values::kSparse,
                          Values::kWide, Values::kWideFew}) {
      for (size_t width = 0; width <= 3; ++width) {
        for (size_t rows : {size_t{0}, size_t{1}, size_t{37}, size_t{3000}}) {
          TablePtr t = RandomTable(rng, "t", vars, rows, values, kind);
          if (rows == 37) t->SealChunked();
          std::vector<std::string> group = vars;
          rng.Shuffle(group);
          group.resize(width);
          std::vector<uint32_t> group_of = {7, 7};  // overwritten
          auto with_map = MarginalizeTable(*t, group, semiring, "m", &group_of);
          auto without = MarginalizeTable(*t, group, semiring, "m");
          ASSERT_TRUE(with_map.ok() && without.ok());
          const Table& out = **with_map;
          EXPECT_TRUE(BitIdentical(**without, out));
          ASSERT_EQ(group_of.size(), t->NumRows());
          const std::vector<size_t> t_cols = Columns(t->schema(), group);
          std::vector<size_t> out_cols(width);
          for (size_t c = 0; c < width; ++c) out_cols[c] = c;
          std::vector<double> folded(out.NumRows());
          std::vector<bool> seen(out.NumRows(), false);
          for (size_t r = 0; r < t->NumRows(); ++r) {
            const uint32_t g = group_of[r];
            ASSERT_LT(g, out.NumRows()) << "row " << r;
            ASSERT_TRUE(SameValues(*t, r, t_cols, out, g, out_cols))
                << semiring.name() << " width " << width << " values "
                << static_cast<int>(values) << " row " << r;
            folded[g] = seen[g] ? semiring.Add(folded[g], t->measure(r))
                                : t->measure(r);
            seen[g] = true;
          }
          for (size_t g = 0; g < out.NumRows(); ++g) {
            EXPECT_TRUE(seen[g]) << "group " << g << " has no rows";
            EXPECT_EQ(Bits(folded[g]), Bits(out.measure(g))) << "group " << g;
          }
        }
      }
    }
  }
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

// Inputs the random tables below rarely or never produce.
enum class Shape {
  kRandom,
  kLeftCanonical,  // a already in canonical order: the walk skips its sort
  kRightRuns,      // b: several rows per shared key, added columns descending
  kLeftSealed,     // a's measures in shared chunks
};

// Several rows of b per shared value of some rows of a, each run appended
// with its added columns in descending order; b stays functional.
TablePtr RightRuns(Rng& rng, const Table& a, const std::vector<std::string>& vb,
                   Values values, SemiringKind kind) {
  auto b = std::make_shared<Table>("b", Schema(vb, "f"));
  std::set<std::vector<VarValue>> rows;
  for (size_t r = 0; r < a.NumRows(); r += 3) {
    std::set<std::vector<VarValue>, std::greater<>> run;
    for (int k = 0; k < 4; ++k) {
      std::vector<VarValue> row(vb.size());
      for (size_t c = 0; c < vb.size(); ++c) {
        auto ia = a.schema().IndexOf(vb[c]);
        row[c] = ia ? a.Row(r).var(*ia) : DrawValue(rng, values);
      }
      if (!rows.count(row)) run.insert(row);
    }
    // Descending in b's column order, so the added columns (after the shared
    // ones in the join's order) arrive out of order within the run.
    for (const auto& row : run) {
      rows.insert(row);
      b->AppendRow(row, DrawMeasure(rng, kind));
    }
  }
  if (b->Empty()) {
    b->AppendRow(std::vector<VarValue>(vb.size(), 0), DrawMeasure(rng, kind));
  }
  return b;
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
                          Values::kWide, Values::kWideFew}) {
      for (const auto& [va, vb] : layouts) {
        for (size_t rows : {size_t{0}, size_t{5}, size_t{60}, size_t{1500}}) {
          // A cross product grows quadratically; keep it small.
          if (rows > 60 && varset::Intersect(va, vb).empty()) continue;
          for (Shape shape : {Shape::kRandom, Shape::kLeftCanonical,
                              Shape::kRightRuns, Shape::kLeftSealed}) {
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
            if (shape == Shape::kLeftCanonical) a = Canonical(*a);
            if (shape == Shape::kRightRuns) {
              b = RightRuns(rng, *a, vb, values, kind);
            }
            if (shape == Shape::kLeftSealed) a->SealChunked();
            if (rows == 1500) b->SealChunked();
            for (bool divide : {false, true}) {
              if (divide && !semiring.HasDivision()) continue;
              for (bool swap : {false, true}) {
                const Table& l = swap ? *b : *a;
                const Table& r = swap ? *a : *b;
                const std::string label =
                    semiring.name() + (divide ? " divide" : " product") +
                    " rows " + std::to_string(rows) + " values " +
                    std::to_string(static_cast<int>(values)) + " shape " +
                    std::to_string(static_cast<int>(shape)) +
                    (swap ? " swapped" : "");
                auto want = divide ? fr::DivisionJoin(l, r, semiring, "j")
                                   : fr::ProductJoin(l, r, semiring, "j");
                auto got = JoinTables(l, r, semiring, "j", divide);
                JoinRows maps;
                auto mapped = JoinTables(l, r, semiring, "j", divide, &maps);
                ASSERT_TRUE(want.ok() && got.ok() && mapped.ok());
                EXPECT_TRUE(BitIdentical(**want, **got)) << label;
                EXPECT_TRUE(BitIdentical(**want, **mapped)) << label;
                EXPECT_TRUE(
                    JoinRowsExplain(l, r, **mapped, maps, semiring, divide))
                    << label;
              }
            }
          }
        }
      }
    }
  }
}

// The canonical row order sorts like Table::SortByVariables over every
// column, including row keys that span several 64-bit words.
TEST(CanonicalRowOrderTest, SortsLikeSortByVariables) {
  Rng rng(99);
  for (Values values : {Values::kDense, Values::kNegative, Values::kSparse,
                        Values::kWide, Values::kWideFew}) {
    for (size_t rows : {size_t{0}, size_t{1}, size_t{200}}) {
      TablePtr t = RandomTable(rng, "t", {"a", "b", "c"}, rows, values,
                               SemiringKind::kSumProduct, true);
      for (TablePtr input : {t, Canonical(*t)}) {
        const std::vector<uint32_t> order = CanonicalRowOrder(*input);
        TablePtr want = Canonical(*input);
        ASSERT_EQ(order.size(), want->NumRows());
        for (size_t i = 0; i < order.size(); ++i) {
          EXPECT_TRUE(std::equal(want->Row(i).vars, want->Row(i).vars + 3,
                                 input->Row(order[i]).vars))
              << "values " << static_cast<int>(values) << " position " << i;
        }
      }
    }
  }
}

// The update-semijoin kernel returns fr::UpdateSemijoin's table, and its
// maps: every t row's group is the row of Marginalize(t, separator) with
// its separator values, every s row's group is the same (or kNoGroup when
// t has no such separator values), and every output row comes from the t
// row with its values.
TEST(UpdateSemijoinTableTest, MatchesOracleAndMapsRows) {
  using Vars = std::vector<std::string>;
  const std::vector<std::pair<Vars, Vars>> layouts = {
      {{"x", "y"}, {"y", "z"}},
      {{"x", "y", "w"}, {"w", "z", "x"}},
      {{"x", "y"}, {"y", "x"}},
  };
  Rng rng(2718);
  for (SemiringKind kind : kAllKinds) {
    const Semiring semiring(kind);
    if (!semiring.HasDivision()) continue;
    for (Values values : {Values::kDense, Values::kNegative, Values::kSparse,
                          Values::kWide, Values::kWideFew}) {
      for (const auto& [vt, vs] : layouts) {
        for (size_t rows : {size_t{1}, size_t{40}, size_t{1200}}) {
          TablePtr t = RandomTable(rng, "t", vt, rows, values, kind, true);
          TablePtr s = RightRuns(rng, *t, vs, values, kind);
          s->AppendRow(std::vector<VarValue>(vs.size(), 12345),
                       DrawMeasure(rng, kind));  // a group t lacks
          if (rows == 1200) t->SealChunked();
          const std::string label = semiring.name() + " rows " +
                                    std::to_string(rows) + " values " +
                                    std::to_string(static_cast<int>(values));
          auto want = fr::UpdateSemijoin(*t, *s, semiring, "u");
          SemijoinRows maps;
          auto got = UpdateSemijoinTable(*t, *s, semiring, "u", &maps);
          ASSERT_TRUE(want.ok() && got.ok()) << label;
          EXPECT_TRUE(BitIdentical(**want, **got)) << label;
          const std::vector<std::string> sep = varset::Intersect(vt, vs);
          auto groups = fr::Marginalize(*t, sep, semiring, "g");
          ASSERT_TRUE(groups.ok());
          ASSERT_EQ(maps.num_groups, (*groups)->NumRows()) << label;
          std::vector<size_t> group_cols(sep.size());
          for (size_t c = 0; c < sep.size(); ++c) group_cols[c] = c;
          auto in_group = [&](const Table& x, size_t r, uint32_t g) {
            return SameValues(x, r, Columns(x.schema(), sep), **groups, g,
                              group_cols);
          };
          ASSERT_EQ(maps.t_group_of.size(), t->NumRows());
          for (size_t r = 0; r < t->NumRows(); ++r) {
            EXPECT_TRUE(in_group(*t, r, maps.t_group_of[r])) << label;
          }
          ASSERT_EQ(maps.s_group_of.size(), s->NumRows());
          for (size_t r = 0; r < s->NumRows(); ++r) {
            const uint32_t g = maps.s_group_of[r];
            if (g != SemijoinRows::kNoGroup) {
              EXPECT_TRUE(in_group(*s, r, g)) << label << " s row " << r;
              continue;
            }
            for (size_t q = 0; q < maps.num_groups; ++q) {
              EXPECT_FALSE(in_group(*s, r, static_cast<uint32_t>(q)))
                  << label << " s row " << r << " has group " << q;
            }
          }
          ASSERT_EQ(maps.out_to_t.size(), (*got)->NumRows());
          std::vector<size_t> all(vt.size());
          for (size_t c = 0; c < all.size(); ++c) all[c] = c;
          for (size_t o = 0; o < maps.out_to_t.size(); ++o) {
            EXPECT_TRUE(SameValues(*t, maps.out_to_t[o], all, **got, o, all))
                << label << " output row " << o;
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
