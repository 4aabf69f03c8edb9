#include <cmath>
#include <limits>
#include <memory>

#include <gtest/gtest.h>

#include "fr/algebra.h"
#include "semiring/semiring.h"
#include "util/rng.h"

namespace mpfdb::fr {
namespace {

TablePtr MakeTable(const std::string& name, std::vector<std::string> vars,
                   std::vector<std::pair<std::vector<VarValue>, double>> rows) {
  auto t = std::make_shared<Table>(name, Schema(std::move(vars), "f"));
  for (auto& [v, m] : rows) t->AppendRow(v, m);
  return t;
}

TEST(ProductJoinTest, JoinsOnSharedVariable) {
  auto a = MakeTable("a", {"x", "y"},
                     {{{0, 0}, 2.0}, {{0, 1}, 3.0}, {{1, 0}, 5.0}});
  auto b = MakeTable("b", {"y", "z"}, {{{0, 7}, 10.0}, {{1, 7}, 100.0}});
  auto joined = ProductJoin(*a, *b, Semiring::SumProduct(), "j");
  ASSERT_TRUE(joined.ok());
  const Table& j = **joined;
  EXPECT_EQ(j.schema().variables(), (std::vector<std::string>{"x", "y", "z"}));
  ASSERT_EQ(j.NumRows(), 3u);
  // Sorted canonically: (0,0,7;20), (0,1,7;300), (1,0,7;50).
  EXPECT_EQ(j.Row(0).var(0), 0);
  EXPECT_EQ(j.Row(0).var(1), 0);
  EXPECT_EQ(j.Row(0).var(2), 7);
  EXPECT_DOUBLE_EQ(j.Row(0).measure, 20.0);
  EXPECT_DOUBLE_EQ(j.Row(1).measure, 300.0);
  EXPECT_DOUBLE_EQ(j.Row(2).measure, 50.0);
}

TEST(ProductJoinTest, NoSharedVariablesIsCrossProduct) {
  auto a = MakeTable("a", {"x"}, {{{0}, 2.0}, {{1}, 3.0}});
  auto b = MakeTable("b", {"y"}, {{{0}, 5.0}, {{1}, 7.0}});
  auto joined = ProductJoin(*a, *b, Semiring::SumProduct(), "j");
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ((*joined)->NumRows(), 4u);
  double total = 0;
  for (size_t i = 0; i < 4; ++i) total += (*joined)->measure(i);
  EXPECT_DOUBLE_EQ(total, (2.0 + 3.0) * (5.0 + 7.0));
}

TEST(ProductJoinTest, MinSumAddsMeasures) {
  auto a = MakeTable("a", {"x"}, {{{0}, 2.0}});
  auto b = MakeTable("b", {"x"}, {{{0}, 5.0}});
  auto joined = ProductJoin(*a, *b, Semiring::MinSum(), "j");
  ASSERT_TRUE(joined.ok());
  ASSERT_EQ((*joined)->NumRows(), 1u);
  EXPECT_DOUBLE_EQ((*joined)->measure(0), 7.0);
}

TEST(ProductJoinTest, ResultIsFunctionalRelation) {
  auto a = MakeTable("a", {"x", "y"},
                     {{{0, 0}, 1.0}, {{0, 1}, 2.0}, {{1, 0}, 3.0},
                      {{1, 1}, 4.0}});
  auto b = MakeTable("b", {"y", "z"},
                     {{{0, 0}, 1.0}, {{0, 1}, 2.0}, {{1, 0}, 3.0},
                      {{1, 1}, 4.0}});
  auto joined = ProductJoin(*a, *b, Semiring::SumProduct(), "j");
  ASSERT_TRUE(joined.ok());
  EXPECT_TRUE(CheckFunctionalDependency(**joined).ok());
}

TEST(MarginalizeTest, GroupsAndSums) {
  auto t = MakeTable("t", {"x", "y"},
                     {{{0, 0}, 1.0}, {{0, 1}, 2.0}, {{1, 0}, 4.0},
                      {{1, 1}, 8.0}});
  auto result = Marginalize(*t, {"x"}, Semiring::SumProduct(), "m");
  ASSERT_TRUE(result.ok());
  const Table& m = **result;
  ASSERT_EQ(m.NumRows(), 2u);
  EXPECT_EQ(m.Row(0).var(0), 0);
  EXPECT_DOUBLE_EQ(m.Row(0).measure, 3.0);
  EXPECT_DOUBLE_EQ(m.Row(1).measure, 12.0);
}

TEST(MarginalizeTest, MinAggregation) {
  auto t = MakeTable("t", {"x", "y"},
                     {{{0, 0}, 5.0}, {{0, 1}, 2.0}, {{1, 0}, 9.0}});
  auto result = Marginalize(*t, {"x"}, Semiring::MinSum(), "m");
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ((*result)->measure(0), 2.0);
  EXPECT_DOUBLE_EQ((*result)->measure(1), 9.0);
}

TEST(MarginalizeTest, EmptyGroupVarsYieldsScalar) {
  auto t = MakeTable("t", {"x"}, {{{0}, 1.5}, {{1}, 2.5}});
  auto result = Marginalize(*t, {}, Semiring::SumProduct(), "m");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ((*result)->NumRows(), 1u);
  EXPECT_EQ((*result)->schema().arity(), 0u);
  EXPECT_DOUBLE_EQ((*result)->measure(0), 4.0);
}

TEST(MarginalizeTest, UnknownVariableIsError) {
  auto t = MakeTable("t", {"x"}, {{{0}, 1.0}});
  EXPECT_EQ(
      Marginalize(*t, {"zz"}, Semiring::SumProduct(), "m").status().code(),
      StatusCode::kInvalidArgument);
}

TEST(MarginalizeTest, ReordersOutputVariables) {
  auto t = MakeTable("t", {"x", "y"}, {{{1, 2}, 3.0}});
  auto result = Marginalize(*t, {"y", "x"}, Semiring::SumProduct(), "m");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->schema().variables(),
            (std::vector<std::string>{"y", "x"}));
  EXPECT_EQ((*result)->Row(0).var(0), 2);
  EXPECT_EQ((*result)->Row(0).var(1), 1);
}

TEST(SelectTest, FiltersRows) {
  auto t = MakeTable("t", {"x", "y"},
                     {{{0, 0}, 1.0}, {{1, 0}, 2.0}, {{1, 1}, 3.0}});
  auto result = Select(*t, "x", 1, "s");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->NumRows(), 2u);
  EXPECT_EQ((*result)->schema(), t->schema());
  EXPECT_FALSE(Select(*t, "zz", 0, "s").ok());
}

TEST(DivisionJoinTest, DividesMeasures) {
  auto a = MakeTable("a", {"x"}, {{{0}, 10.0}, {{1}, 9.0}});
  auto b = MakeTable("b", {"x"}, {{{0}, 2.0}, {{1}, 3.0}});
  auto result = DivisionJoin(*a, *b, Semiring::SumProduct(), "d");
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ((*result)->measure(0), 5.0);
  EXPECT_DOUBLE_EQ((*result)->measure(1), 3.0);
}

TEST(DivisionJoinTest, MinSumSubtracts) {
  auto a = MakeTable("a", {"x"}, {{{0}, 10.0}});
  auto b = MakeTable("b", {"x"}, {{{0}, 4.0}});
  auto result = DivisionJoin(*a, *b, Semiring::MinSum(), "d");
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ((*result)->measure(0), 6.0);
}

TEST(DivisionJoinTest, BooleanSemiringRejected) {
  auto a = MakeTable("a", {"x"}, {{{0}, 1.0}});
  EXPECT_EQ(DivisionJoin(*a, *a, Semiring::BoolOrAnd(), "d").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ProductSemijoinTest, ReducesByMarginal) {
  // t(x,y), s(y,z): t ⋉* s multiplies each t row by s's marginal over y.
  auto t = MakeTable("t", {"x", "y"}, {{{0, 0}, 1.0}, {{0, 1}, 1.0}});
  auto s = MakeTable("s", {"y", "z"},
                     {{{0, 0}, 2.0}, {{0, 1}, 3.0}, {{1, 0}, 10.0}});
  auto result = ProductSemijoin(*t, *s, Semiring::SumProduct(), "r");
  ASSERT_TRUE(result.ok());
  const Table& r = **result;
  // Schema unchanged (t's variables).
  EXPECT_EQ(r.schema().variables(), (std::vector<std::string>{"x", "y"}));
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_DOUBLE_EQ(r.Row(0).measure, 5.0);   // 1 * (2+3)
  EXPECT_DOUBLE_EQ(r.Row(1).measure, 10.0);  // 1 * 10
}

TEST(ProductSemijoinTest, NoSharedVariablesIsError) {
  auto t = MakeTable("t", {"x"}, {{{0}, 1.0}});
  auto s = MakeTable("s", {"y"}, {{{0}, 1.0}});
  EXPECT_EQ(
      ProductSemijoin(*t, *s, Semiring::SumProduct(), "r").status().code(),
      StatusCode::kInvalidArgument);
}

TEST(UpdateSemijoinTest, DoesNotDoubleCount) {
  // Forward pass: s absorbed t's marginal. Backward update of t by s must
  // divide that marginal back out: t_new = t * marg(s)/marg(t).
  Semiring sr = Semiring::SumProduct();
  auto t = MakeTable("t", {"x", "y"}, {{{0, 0}, 2.0}, {{1, 0}, 3.0}});
  auto s = MakeTable("s", {"y", "z"}, {{{0, 0}, 1.0}, {{0, 1}, 4.0}});
  // Forward: s ⋉* t.
  auto s_updated = ProductSemijoin(*s, *t, sr, "s_upd");
  ASSERT_TRUE(s_updated.ok());
  // marg_y(t) = 5, so s_upd measures are {5, 20}.
  EXPECT_DOUBLE_EQ((*s_updated)->measure(0), 5.0);
  EXPECT_DOUBLE_EQ((*s_updated)->measure(1), 20.0);
  // Backward: t ⋉ s_upd. marg_y(s_upd) = 25, marg_y(t) = 5; message = 5.
  auto t_updated = UpdateSemijoin(*t, **s_updated, sr, "t_upd");
  ASSERT_TRUE(t_updated.ok());
  EXPECT_DOUBLE_EQ((*t_updated)->measure(0), 10.0);  // 2 * 5
  EXPECT_DOUBLE_EQ((*t_updated)->measure(1), 15.0);  // 3 * 5
  // Both tables now hold the joint's marginal onto their own variables:
  // joint(x,y,z) = t*s has total 25; t_upd sums to 25.
  auto check = Marginalize(**t_updated, {}, sr, "total");
  ASSERT_TRUE(check.ok());
  EXPECT_DOUBLE_EQ((*check)->measure(0), 25.0);
}

TEST(UpdateSemijoinTest, RequiresDivision) {
  auto t = MakeTable("t", {"x"}, {{{0}, 1.0}});
  EXPECT_EQ(UpdateSemijoin(*t, *t, Semiring::BoolOrAnd(), "r").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(CheckFunctionalDependencyTest, DetectsViolation) {
  auto good = MakeTable("g", {"x"}, {{{0}, 1.0}, {{1}, 2.0}});
  EXPECT_TRUE(CheckFunctionalDependency(*good).ok());
  auto bad = MakeTable("b", {"x"}, {{{0}, 1.0}, {{0}, 2.0}});
  EXPECT_EQ(CheckFunctionalDependency(*bad).code(),
            StatusCode::kFailedPrecondition);
}

TEST(IsCompleteTest, DetectsCompleteness) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterVariable("x", 2).ok());
  ASSERT_TRUE(catalog.RegisterVariable("y", 2).ok());
  auto full = MakeTable("full", {"x", "y"},
                        {{{0, 0}, 1.0}, {{0, 1}, 1.0}, {{1, 0}, 1.0},
                         {{1, 1}, 1.0}});
  auto partial = MakeTable("p", {"x", "y"}, {{{0, 0}, 1.0}});
  EXPECT_TRUE(*IsComplete(*full, catalog));
  EXPECT_FALSE(*IsComplete(*partial, catalog));
}

TEST(NormalizeTest, SumsToOne) {
  auto t = MakeTable("t", {"x"}, {{{0}, 1.0}, {{1}, 3.0}});
  ASSERT_TRUE(NormalizeMeasure(*t, Semiring::SumProduct()).ok());
  EXPECT_DOUBLE_EQ(t->measure(0), 0.25);
  EXPECT_DOUBLE_EQ(t->measure(1), 0.75);
  EXPECT_EQ(NormalizeMeasure(*t, Semiring::MinSum()).code(),
            StatusCode::kFailedPrecondition);
}

TEST(TablesEqualTest, ComparesWithTolerance) {
  auto a = MakeTable("a", {"x"}, {{{0}, 1.0}});
  auto b = MakeTable("b", {"x"}, {{{0}, 1.0 + 1e-12}});
  auto c = MakeTable("c", {"x"}, {{{0}, 1.1}});
  EXPECT_TRUE(TablesEqual(*a, *b));
  EXPECT_FALSE(TablesEqual(*a, *c));
}

TEST(EvaluateNaiveMpfTest, ChainQuery) {
  // joint(x,y,z) = a(x,y) * b(y,z); query marginal over z.
  auto a = MakeTable("a", {"x", "y"},
                     {{{0, 0}, 1.0}, {{0, 1}, 2.0}, {{1, 0}, 3.0},
                      {{1, 1}, 4.0}});
  auto b = MakeTable("b", {"y", "z"},
                     {{{0, 0}, 5.0}, {{0, 1}, 6.0}, {{1, 0}, 7.0},
                      {{1, 1}, 8.0}});
  auto result =
      EvaluateNaiveMpf({a, b}, {"z"}, {}, Semiring::SumProduct(), "q");
  ASSERT_TRUE(result.ok());
  const Table& q = **result;
  ASSERT_EQ(q.NumRows(), 2u);
  // marg_y(a): y=0 -> 4, y=1 -> 6. z=0: 4*5 + 6*7 = 62; z=1: 4*6 + 6*8 = 72.
  EXPECT_DOUBLE_EQ(q.Row(0).measure, 62.0);
  EXPECT_DOUBLE_EQ(q.Row(1).measure, 72.0);
}

TEST(EvaluateNaiveMpfTest, WithSelection) {
  auto a = MakeTable("a", {"x", "y"},
                     {{{0, 0}, 1.0}, {{0, 1}, 2.0}, {{1, 0}, 3.0},
                      {{1, 1}, 4.0}});
  auto b = MakeTable("b", {"y", "z"},
                     {{{0, 0}, 5.0}, {{0, 1}, 6.0}, {{1, 0}, 7.0},
                      {{1, 1}, 8.0}});
  auto result = EvaluateNaiveMpf({a, b}, {"z"}, {{"y", 1}},
                                 Semiring::SumProduct(), "q");
  ASSERT_TRUE(result.ok());
  // Only y=1 rows: z=0 -> 6*7=42, z=1 -> 6*8=48.
  EXPECT_DOUBLE_EQ((*result)->Row(0).measure, 42.0);
  EXPECT_DOUBLE_EQ((*result)->Row(1).measure, 48.0);
}

TEST(MarginalizeTest, EmptyInputYieldsEmptyOutput) {
  auto t = MakeTable("t", {"x", "y"}, {});
  auto result = Marginalize(*t, {"x"}, Semiring::SumProduct(), "m");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->NumRows(), 0u);
  // Even the scalar marginalization of an empty relation is empty (the
  // additive identity is the *implicit* value of absent rows).
  auto scalar = Marginalize(*t, {}, Semiring::SumProduct(), "m");
  ASSERT_TRUE(scalar.ok());
  EXPECT_EQ((*scalar)->NumRows(), 0u);
}

TEST(ProductJoinTest, EmptyOperandYieldsEmptyJoin) {
  auto a = MakeTable("a", {"x"}, {{{0}, 1.0}});
  auto empty = MakeTable("e", {"x"}, {});
  auto joined = ProductJoin(*a, *empty, Semiring::SumProduct(), "j");
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ((*joined)->NumRows(), 0u);
}

TEST(ProductSemijoinTest, MinSumSemantics) {
  // In min-sum, the semijoin adds s's MIN over the shared variables.
  auto t = MakeTable("t", {"x", "y"}, {{{0, 0}, 10.0}, {{1, 1}, 20.0}});
  auto s = MakeTable("s", {"y", "z"},
                     {{{0, 0}, 3.0}, {{0, 1}, 7.0}, {{1, 0}, 5.0}});
  auto result = ProductSemijoin(*t, *s, Semiring::MinSum(), "r");
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ((*result)->measure(0), 13.0);  // 10 + min(3,7)
  EXPECT_DOUBLE_EQ((*result)->measure(1), 25.0);  // 20 + 5
}

TEST(DivisionJoinTest, OperandRolesAreFixed) {
  // Division is not commutative: the left operand is always the dividend,
  // even when it is the larger relation (the hash join may not swap sides).
  auto big = MakeTable("big", {"x"},
                       {{{0}, 8.0}, {{1}, 9.0}, {{2}, 10.0}, {{3}, 12.0}});
  auto small = MakeTable("small", {"x"}, {{{0}, 2.0}, {{1}, 3.0}});
  auto result = DivisionJoin(*big, *small, Semiring::SumProduct(), "d");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ((*result)->NumRows(), 2u);
  EXPECT_DOUBLE_EQ((*result)->measure(0), 4.0);  // 8/2, not 2/8
  EXPECT_DOUBLE_EQ((*result)->measure(1), 3.0);  // 9/3
}

TEST(EvaluateNaiveMpfTest, SingleRelationAndErrors) {
  auto a = MakeTable("a", {"x", "y"}, {{{0, 0}, 1.0}, {{0, 1}, 2.0}});
  auto result = EvaluateNaiveMpf({a}, {"x"}, {}, Semiring::SumProduct(), "q");
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ((*result)->measure(0), 3.0);
  EXPECT_FALSE(
      EvaluateNaiveMpf({}, {"x"}, {}, Semiring::SumProduct(), "q").ok());
}

TEST(TablesEqualTest, DetectsStructuralDifferences) {
  auto a = MakeTable("a", {"x"}, {{{0}, 1.0}, {{1}, 2.0}});
  auto fewer = MakeTable("b", {"x"}, {{{0}, 1.0}});
  auto other_vars = MakeTable("c", {"y"}, {{{0}, 1.0}, {{1}, 2.0}});
  auto other_values = MakeTable("d", {"x"}, {{{0}, 1.0}, {{2}, 2.0}});
  EXPECT_FALSE(TablesEqual(*a, *fewer));
  EXPECT_FALSE(TablesEqual(*a, *other_vars));
  EXPECT_FALSE(TablesEqual(*a, *other_values));
  // Infinities of the same sign compare equal (min/max semirings).
  auto inf1 = MakeTable("i1", {"x"},
                        {{{0}, std::numeric_limits<double>::infinity()}});
  auto inf2 = MakeTable("i2", {"x"},
                        {{{0}, std::numeric_limits<double>::infinity()}});
  EXPECT_TRUE(TablesEqual(*inf1, *inf2));
}

TEST(FilterMeasureTest, KeepsSchemaAndFilters) {
  auto t = MakeTable("t", {"x"}, {{{0}, 1.0}, {{1}, 5.0}});
  auto result =
      FilterMeasure(*t, HavingClause{CompareOp::kGt, 2.0}, "filtered");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->NumRows(), 1u);
  EXPECT_EQ((*result)->schema().variables(), t->schema().variables());
}

// Property sweep: for random instances, marginalization distributing over the
// product join (the GDL) must hold: GroupBy_X(a ⨝* b) computed directly
// equals pushing the group-by of b-only variables into b first.
class GdlPropertyTest : public ::testing::TestWithParam<SemiringKind> {};

TEST_P(GdlPropertyTest, GroupByPushdownIsSound) {
  Semiring sr((GetParam()));
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    // a(x,y), b(y,z) dense random; query var x.
    auto a = std::make_shared<Table>("a", Schema({"x", "y"}, "f"));
    auto b = std::make_shared<Table>("b", Schema({"y", "z"}, "f"));
    auto random_measure = [&]() -> double {
      if (GetParam() == SemiringKind::kBoolOrAnd) {
        return rng.Bernoulli(0.5) ? 1.0 : 0.0;
      }
      return rng.UniformDouble(0.5, 4.0);
    };
    for (VarValue x = 0; x < 3; ++x)
      for (VarValue y = 0; y < 3; ++y) a->AppendRow({x, y}, random_measure());
    for (VarValue y = 0; y < 3; ++y)
      for (VarValue z = 0; z < 4; ++z) b->AppendRow({y, z}, random_measure());

    // Unoptimized: marginalize the full join.
    auto joined = ProductJoin(*a, *b, sr, "j");
    ASSERT_TRUE(joined.ok());
    auto direct = Marginalize(**joined, {"x"}, sr, "direct");
    ASSERT_TRUE(direct.ok());

    // GDL-optimized: eliminate z inside b first.
    auto b_reduced = Marginalize(*b, {"y"}, sr, "b_red");
    ASSERT_TRUE(b_reduced.ok());
    auto joined2 = ProductJoin(*a, **b_reduced, sr, "j2");
    ASSERT_TRUE(joined2.ok());
    auto pushed = Marginalize(**joined2, {"x"}, sr, "pushed");
    ASSERT_TRUE(pushed.ok());

    EXPECT_TRUE(TablesEqual(**direct, **pushed, 1e-7))
        << "semiring=" << sr.name() << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSemirings, GdlPropertyTest,
    ::testing::Values(SemiringKind::kSumProduct, SemiringKind::kMinSum,
                      SemiringKind::kMaxSum, SemiringKind::kMaxProduct,
                      SemiringKind::kBoolOrAnd),
    [](const ::testing::TestParamInfo<SemiringKind>& info) {
      return Semiring(info.param).name();
    });

}  // namespace
}  // namespace mpfdb::fr
