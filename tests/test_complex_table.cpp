#include "numeric/complex_table.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

namespace qadd::num {
namespace {

TEST(ComplexTable, ZeroAndOneArePreinterned) {
  ComplexTable table(0.0);
  EXPECT_EQ(table.lookup(ComplexValue::zero()), table.zeroRef());
  EXPECT_EQ(table.lookup(ComplexValue::one()), table.oneRef());
  EXPECT_EQ(table.size(), 2U);
}

TEST(ComplexTable, ExactModeDistinguishesUlps) {
  ComplexTable table(0.0);
  const double x = 1.0 / std::sqrt(2.0);
  const double xUlp = std::nextafter(x, 1.0);
  const ComplexRef a = table.lookup({x, 0.0});
  const ComplexRef b = table.lookup({xUlp, 0.0});
  EXPECT_NE(a, b) << "epsilon = 0 must be bit-exact";
  EXPECT_EQ(table.lookup({x, 0.0}), a);
}

TEST(ComplexTable, ToleranceUnifiesNearbyValues) {
  ComplexTable table(1e-6);
  const ComplexRef a = table.lookup({0.5, 0.25});
  const ComplexRef b = table.lookup({0.5 + 4e-7, 0.25 - 4e-7});
  EXPECT_EQ(a, b);
  const ComplexRef c = table.lookup({0.5 + 5e-6, 0.25});
  EXPECT_NE(a, c);
}

TEST(ComplexTable, ValuesNearZeroSnapToZero) {
  // The mechanism behind the paper's epsilon = 1e-3 zero-vector collapse.
  ComplexTable table(1e-3);
  EXPECT_EQ(table.lookup({5e-4, -5e-4}), table.zeroRef());
  EXPECT_NE(table.lookup({5e-3, 0.0}), table.zeroRef());
}

TEST(ComplexTable, ValuesNearOneSnapToOne) {
  ComplexTable table(1e-10);
  EXPECT_EQ(table.lookup({1.0 + 1e-11, -1e-11}), table.oneRef());
}

TEST(ComplexTable, FirstInsertedWins) {
  ComplexTable table(1e-4);
  const ComplexRef a = table.lookup({0.70710, 0.0});
  const ComplexRef b = table.lookup({0.70715, 0.0});
  EXPECT_EQ(a, b);
  EXPECT_DOUBLE_EQ(table.value(b).re, 0.70710); // canonical entry is the first one
}

TEST(ComplexTable, NegativeCoordinatesAndCellBoundaries) {
  ComplexTable table(1e-2);
  // Values straddling a grid cell boundary must still unify.
  const ComplexRef a = table.lookup({-0.0100001, 0.0});
  const ComplexRef b = table.lookup({-0.0099999, 0.0});
  EXPECT_EQ(a, b);
}

TEST(ComplexTable, ValuesBeyondTheGridRange) {
  // |value| / cell beyond the int64 grid (PerGate pruning at ε > 0 produces
  // such weights).  They intern, unify with themselves, and stay apart from
  // each other and from ordinary values; the sanitizer build checks that the
  // grid arithmetic stays defined.
  ComplexTable table(1e-10);
  const double huge = 1e300;
  const ComplexRef a = table.lookup({huge, 0.0});
  const ComplexRef b = table.lookup({-huge, 1.0});
  const ComplexRef c = table.lookup({0.5, huge});
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
  EXPECT_EQ(table.lookup({huge, 0.0}), a);
  EXPECT_EQ(table.lookup({-huge, 1.0}), b);
  EXPECT_EQ(table.lookup({0.5, huge}), c);
  EXPECT_NE(table.lookup({0.5, 0.0}), c);
}

TEST(ComplexTable, RejectsInvalidEpsilon) {
  EXPECT_THROW(ComplexTable(-1.0), std::invalid_argument);
  EXPECT_THROW(ComplexTable(std::nan("")), std::invalid_argument);
}

TEST(ComplexTable, SizeCountsDistinctValues) {
  ComplexTable table(0.0);
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  for (int i = 0; i < 100; ++i) {
    (void)table.lookup({d(rng), d(rng)});
  }
  EXPECT_EQ(table.size(), 102U); // 100 random + 0 + 1
  // Re-interning the same values does not grow the table.
  std::mt19937_64 rng2(3);
  for (int i = 0; i < 100; ++i) {
    (void)table.lookup({d(rng2), d(rng2)});
  }
  EXPECT_EQ(table.size(), 102U);
}

TEST(ComplexValue, Arithmetic) {
  const ComplexValue a{1.0, 2.0};
  const ComplexValue b{3.0, -1.0};
  EXPECT_EQ((a + b), (ComplexValue{4.0, 1.0}));
  EXPECT_EQ((a - b), (ComplexValue{-2.0, 3.0}));
  EXPECT_EQ((a * b), (ComplexValue{5.0, 5.0}));
  const ComplexValue q = a / b;
  EXPECT_NEAR(q.re, 0.1, 1e-12);
  EXPECT_NEAR(q.im, 0.7, 1e-12);
  EXPECT_EQ(a.conj(), (ComplexValue{1.0, -2.0}));
  EXPECT_DOUBLE_EQ(a.squaredMagnitude(), 5.0);
}

TEST(ComplexValue, ApproxEqualPerComponent) {
  EXPECT_TRUE(ComplexValue::approxEqual({1.0, 1.0}, {1.0 + 1e-9, 1.0 - 1e-9}, 1e-8));
  EXPECT_FALSE(ComplexValue::approxEqual({1.0, 1.0}, {1.0 + 2e-8, 1.0}, 1e-8));
  EXPECT_TRUE(ComplexValue::approxEqual({1.0, 1.0}, {1.0, 1.0}, 0.0));
}

/// Parameterized sweep over epsilons: interning is idempotent and value()
/// returns something within epsilon of the query.
class ComplexTableEpsilons : public ::testing::TestWithParam<double> {};

TEST_P(ComplexTableEpsilons, LookupIsIdempotentAndClose) {
  const double epsilon = GetParam();
  ComplexTable table(epsilon);
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  for (int i = 0; i < 500; ++i) {
    const ComplexValue v{d(rng), d(rng)};
    const ComplexRef ref = table.lookup(v);
    EXPECT_EQ(table.lookup(table.value(ref)), ref);
    EXPECT_LE(std::abs(table.value(ref).re - v.re), epsilon);
    EXPECT_LE(std::abs(table.value(ref).im - v.im), epsilon);
  }
}

INSTANTIATE_TEST_SUITE_P(Epsilons, ComplexTableEpsilons,
                         ::testing::Values(0.0, 1e-20, 1e-15, 1e-10, 1e-5, 1e-3));

} // namespace
} // namespace qadd::num
