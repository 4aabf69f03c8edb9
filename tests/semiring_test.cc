#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "semiring/semiring.h"
#include "util/rng.h"

namespace mpfdb {
namespace {

// Property-style sweep: every semiring instance must satisfy the commutative
// semiring laws (Section 2 of the paper) on sampled values from its carrier.
class SemiringLawsTest : public ::testing::TestWithParam<SemiringKind> {
 protected:
  Semiring semiring() const { return Semiring(GetParam()); }

  // Sampled carrier values appropriate for the semiring.
  std::vector<double> SampleValues() {
    Rng rng(42);
    std::vector<double> values;
    if (GetParam() == SemiringKind::kBoolOrAnd) {
      values = {0.0, 1.0};
    } else if (GetParam() == SemiringKind::kLogSumProduct) {
      for (int i = 0; i < 24; ++i) values.push_back(rng.UniformDouble(-8, 3));
      values.push_back(0.0);
    } else if (GetParam() == SemiringKind::kMaxProduct ||
               GetParam() == SemiringKind::kSumProduct) {
      for (int i = 0; i < 24; ++i) values.push_back(rng.UniformDouble(0, 10));
      values.push_back(0.0);
      values.push_back(1.0);
    } else {
      for (int i = 0; i < 24; ++i) values.push_back(rng.UniformDouble(-10, 10));
      values.push_back(0.0);
    }
    return values;
  }

  static void ExpectNear(double a, double b) {
    if (std::isinf(a) || std::isinf(b)) {
      EXPECT_EQ(a, b);
    } else {
      EXPECT_NEAR(a, b, 1e-9);
    }
  }
};

TEST_P(SemiringLawsTest, AddCommutativeAssociative) {
  Semiring s = semiring();
  auto values = SampleValues();
  for (double a : values) {
    for (double b : values) {
      ExpectNear(s.Add(a, b), s.Add(b, a));
      for (double c : values) {
        ExpectNear(s.Add(s.Add(a, b), c), s.Add(a, s.Add(b, c)));
      }
    }
  }
}

TEST_P(SemiringLawsTest, MultiplyCommutativeAssociative) {
  Semiring s = semiring();
  auto values = SampleValues();
  for (double a : values) {
    for (double b : values) {
      ExpectNear(s.Multiply(a, b), s.Multiply(b, a));
      for (double c : values) {
        ExpectNear(s.Multiply(s.Multiply(a, b), c),
                   s.Multiply(a, s.Multiply(b, c)));
      }
    }
  }
}

TEST_P(SemiringLawsTest, Distributivity) {
  // The law the whole paper rests on: a * (b + c) == a*b + a*c.
  Semiring s = semiring();
  auto values = SampleValues();
  for (double a : values) {
    for (double b : values) {
      for (double c : values) {
        double lhs = s.Multiply(a, s.Add(b, c));
        double rhs = s.Add(s.Multiply(a, b), s.Multiply(a, c));
        if (std::isinf(lhs) || std::isinf(rhs)) continue;  // inf - inf traps
        EXPECT_NEAR(lhs, rhs, 1e-7);
      }
    }
  }
}

TEST_P(SemiringLawsTest, Identities) {
  Semiring s = semiring();
  auto values = SampleValues();
  for (double a : values) {
    ExpectNear(s.Add(a, s.AddIdentity()), a);
    ExpectNear(s.Multiply(a, s.MultiplyIdentity()), a);
  }
}

TEST_P(SemiringLawsTest, DivisionInvertsMultiply) {
  Semiring s = semiring();
  if (!s.HasDivision()) GTEST_SKIP() << "no division";
  auto values = SampleValues();
  for (double a : values) {
    for (double b : values) {
      if (b == 0.0 && (GetParam() == SemiringKind::kSumProduct ||
                       GetParam() == SemiringKind::kMaxProduct)) {
        continue;  // zero is not invertible
      }
      ExpectNear(s.Divide(s.Multiply(a, b), b), a);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSemirings, SemiringLawsTest,
    ::testing::Values(SemiringKind::kSumProduct, SemiringKind::kMinSum,
                      SemiringKind::kMaxSum, SemiringKind::kMaxProduct,
                      SemiringKind::kBoolOrAnd, SemiringKind::kLogSumProduct),
    [](const ::testing::TestParamInfo<SemiringKind>& info) {
      return Semiring(info.param).name();
    });

TEST(SemiringTest, FromName) {
  EXPECT_EQ(Semiring::FromName("sum_product")->kind(),
            SemiringKind::kSumProduct);
  EXPECT_EQ(Semiring::FromName("SUM")->kind(), SemiringKind::kSumProduct);
  EXPECT_EQ(Semiring::FromName("min_sum")->kind(), SemiringKind::kMinSum);
  EXPECT_EQ(Semiring::FromName("max_sum")->kind(), SemiringKind::kMaxSum);
  EXPECT_EQ(Semiring::FromName("max_product")->kind(),
            SemiringKind::kMaxProduct);
  EXPECT_EQ(Semiring::FromName("or")->kind(), SemiringKind::kBoolOrAnd);
  EXPECT_FALSE(Semiring::FromName("bogus").ok());
}

TEST(SemiringTest, AggregateNames) {
  EXPECT_EQ(Semiring::SumProduct().aggregate_name(), "SUM");
  EXPECT_EQ(Semiring::MinSum().aggregate_name(), "MIN");
  EXPECT_EQ(Semiring::MaxSum().aggregate_name(), "MAX");
  EXPECT_EQ(Semiring::MaxProduct().aggregate_name(), "MAX");
  EXPECT_EQ(Semiring::BoolOrAnd().aggregate_name(), "OR");
}

TEST(SemiringTest, BooleanHasNoDivision) {
  EXPECT_FALSE(Semiring::BoolOrAnd().HasDivision());
  EXPECT_TRUE(Semiring::SumProduct().HasDivision());
  EXPECT_TRUE(Semiring::MinSum().HasDivision());
}

TEST(SemiringTest, DivideByZeroConvention) {
  // 0/0 == 0 keeps zero-probability states at zero during BP updates.
  EXPECT_EQ(Semiring::SumProduct().Divide(0.0, 0.0), 0.0);
  EXPECT_EQ(Semiring::MaxProduct().Divide(5.0, 0.0), 0.0);
}

TEST(SemiringTest, LogSumProductIsIsomorphicToSumProduct) {
  // exp(Add_log(log a, log b)) == a + b and exp(Mul_log(..)) == a * b.
  Semiring log_sr = Semiring::LogSumProduct();
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    double a = rng.UniformDouble(1e-6, 5.0);
    double b = rng.UniformDouble(1e-6, 5.0);
    EXPECT_NEAR(std::exp(log_sr.Add(std::log(a), std::log(b))), a + b,
                1e-9 * (a + b));
    EXPECT_NEAR(std::exp(log_sr.Multiply(std::log(a), std::log(b))), a * b,
                1e-9 * a * b);
    EXPECT_NEAR(std::exp(log_sr.Divide(std::log(a), std::log(b))), a / b,
                1e-9 * a / b);
  }
  // Stability: adding two tiny log-probabilities does not underflow.
  double tiny = -800.0;  // exp(-800) underflows a double
  EXPECT_NEAR(log_sr.Add(tiny, tiny), tiny + std::log(2.0), 1e-9);
  EXPECT_EQ(Semiring::FromName("log_sum_product")->kind(),
            SemiringKind::kLogSumProduct);
  EXPECT_EQ(log_sr.aggregate_name(), "LOGSUM");
}

TEST(SemiringTest, MinSumIdentities) {
  Semiring s = Semiring::MinSum();
  EXPECT_TRUE(std::isinf(s.AddIdentity()));
  EXPECT_GT(s.AddIdentity(), 0);
  EXPECT_EQ(s.MultiplyIdentity(), 0.0);
  EXPECT_EQ(s.Multiply(3.0, 4.0), 7.0);
  EXPECT_EQ(s.Add(3.0, 4.0), 3.0);
}

}  // namespace
}  // namespace mpfdb
