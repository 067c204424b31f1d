#include "algebraic/qomega.hpp"

#include <gtest/gtest.h>

#include <array>
#include <complex>
#include <random>

namespace qadd::alg {
namespace {

constexpr double kTol = 1e-9;

void expectComplexNear(std::complex<double> actual, std::complex<double> expected) {
  EXPECT_NEAR(actual.real(), expected.real(), kTol);
  EXPECT_NEAR(actual.imag(), expected.imag(), kTol);
}

QOmega randomQOmega(std::mt19937_64& rng) {
  std::uniform_int_distribution<std::int64_t> coefficient(-15, 15);
  std::uniform_int_distribution<long> exponent(-4, 6);
  std::uniform_int_distribution<std::int64_t> denominator(0, 6);
  return {ZOmega{BigInt{coefficient(rng)}, BigInt{coefficient(rng)}, BigInt{coefficient(rng)},
                 BigInt{coefficient(rng)}},
          exponent(rng), BigInt{2 * denominator(rng) + 1}};
}

// -- canonical form -------------------------------------------------------------

TEST(QOmega, ZeroCanonicalForm) {
  const QOmega zero{ZOmega::zero(), 5, BigInt{21}};
  EXPECT_TRUE(zero.isZero());
  EXPECT_EQ(zero.k(), 0);
  EXPECT_EQ(zero.den(), BigInt{1});
  EXPECT_EQ(zero, QOmega::zero());
}

TEST(QOmega, PaperExample6And7SmallestDenominatorExponent) {
  // sqrt2 can be written with k in {-1, 0, 1}; the canonical k is -1 with
  // numerator 1 (Example 7).
  const QOmega viaK0{ZOmega::sqrt2(), 0};
  const QOmega viaK1{ZOmega{BigInt{0}, BigInt{0}, BigInt{0}, BigInt{2}}, 1};
  const QOmega viaKminus1{ZOmega::one(), -1};
  EXPECT_EQ(viaK0, viaKminus1);
  EXPECT_EQ(viaK1, viaKminus1);
  EXPECT_EQ(viaK0.k(), -1);
  EXPECT_TRUE(viaK0.num().isOne());
}

TEST(QOmega, CanonicalFormSatisfiesMinimalityCriterion) {
  std::mt19937_64 rng(3);
  for (int i = 0; i < 500; ++i) {
    const QOmega x = randomQOmega(rng);
    if (x.isZero()) {
      continue;
    }
    // Criterion: a != c (mod 2) or b != d (mod 2) — not divisible by sqrt2.
    EXPECT_FALSE(x.num().divisibleBySqrt2())
        << "canonical numerator must not be divisible by sqrt2";
    EXPECT_FALSE(x.den().isNegative());
    EXPECT_TRUE(x.den().isOdd());
    // gcd(content, den) == 1.
    BigInt g = BigInt::gcd(BigInt::gcd(x.num().a(), x.num().b()),
                           BigInt::gcd(x.num().c(), x.num().d()));
    g = BigInt::gcd(g, x.den());
    EXPECT_TRUE(g.isOne());
  }
}

TEST(QOmega, CanonicalFormIsUniquePerValue) {
  std::mt19937_64 rng(5);
  for (int i = 0; i < 300; ++i) {
    const QOmega x = randomQOmega(rng);
    if (x.isZero()) {
      continue;
    }
    // Rescale numerator and denominator by the same junk and re-canonicalize.
    const BigInt junk{(static_cast<std::int64_t>(rng() % 9) + 1) * 3};
    const QOmega rescaled{x.num().scaled(junk), x.k(), x.den() * junk};
    EXPECT_EQ(rescaled, x);
    EXPECT_EQ(rescaled.hash(), x.hash());
    // Multiply numerator by sqrt2 and bump k.
    const QOmega shifted{x.num().timesSqrt2(), x.k() + 1, x.den()};
    EXPECT_EQ(shifted, x);
    // Multiply numerator by 2 and bump k twice.
    const QOmega doubled{x.num().scaled(BigInt{2}), x.k() + 2, x.den()};
    EXPECT_EQ(doubled, x);
  }
}

TEST(QOmega, ContentGcdCancelsExactCommonFactor) {
  // Every case keeps den odd and the numerator off the sqrt2 parity
  // criterion, so step (c) alone decides the canonical form: divide the four
  // coefficients and den by their exact gcd.  Each case runs at word size
  // and, scaled by a large odd M, on the multi-limb path.
  struct Case {
    std::array<std::int64_t, 4> coefficients;
    std::int64_t den;
    std::array<std::int64_t, 4> expectedCoefficients;
    std::int64_t expectedDen;
  };
  const Case cases[] = {
      // The common factor shrinks at the last coefficient: 15, 15, 15, then 3.
      {{15, 30, 45, 3}, 15, {5, 10, 15, 1}, 5},
      {{-15, 30, -45, 3}, 15, {-5, 10, -15, 1}, 5},
      // den is coprime to the first coefficient: nothing cancels, although
      // the other three share den's content.
      {{7, 30, 45, 15}, 15, {7, 30, 45, 15}, 15},
      // Zero coefficients leave the running gcd unchanged.
      {{0, 3, 0, 6}, 9, {0, 1, 0, 2}, 3},
      // den divides every coefficient: the result is dyadic.
      {{15, 30, 60, 0}, 15, {1, 2, 4, 0}, 1},
      // Shrinks at the second coefficient and stops shrinking there.
      {{45, 9, 27, 18}, 45, {5, 1, 3, 2}, 5},
  };
  const auto zomega = [](const std::array<std::int64_t, 4>& c, const BigInt& scale) {
    return ZOmega{BigInt{c[0]} * scale, BigInt{c[1]} * scale, BigInt{c[2]} * scale,
                  BigInt{c[3]} * scale};
  };
  const BigInt wordScale{1};
  const BigInt mersenne61 = pow2(61) - BigInt{1};
  const BigInt mersenne127 = pow2(127) - BigInt{1};
  for (const Case& c : cases) {
    for (const BigInt& scale : {wordScale, mersenne61, mersenne127}) {
      const QOmega value{zomega(c.coefficients, scale), 3, BigInt{c.den} * scale};
      EXPECT_EQ(value.num(), zomega(c.expectedCoefficients, BigInt{1}))
          << "den " << c.den << " scale " << scale;
      EXPECT_EQ(value.den(), BigInt{c.expectedDen}) << "den " << c.den << " scale " << scale;
      EXPECT_EQ(value.k(), 3);
    }
  }
}

TEST(QOmega, IntegersGetNegativeExponent) {
  // 4 = sqrt2^4, canonical numerator 1, k = -4.
  const QOmega four{4};
  EXPECT_EQ(four.k(), -4);
  EXPECT_TRUE(four.num().isOne());
  expectComplexNear(four.toComplex(), {4.0, 0.0});
}

TEST(QOmega, Constants) {
  expectComplexNear(QOmega::invSqrt2().toComplex(), {1.0 / std::sqrt(2.0), 0.0});
  EXPECT_EQ(QOmega::invSqrt2().k(), 1);
  expectComplexNear(QOmega::omegaPower(3).toComplex(), std::polar(1.0, 3 * M_PI / 4));
  expectComplexNear(QOmega::omegaPower(-1).toComplex(), std::polar(1.0, -M_PI / 4));
  EXPECT_EQ(QOmega::omegaPower(8), QOmega::one());
  EXPECT_EQ(QOmega::omegaPower(4), -QOmega::one());
}

// -- arithmetic -------------------------------------------------------------------

TEST(QOmega, FieldAxioms) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 300; ++i) {
    const QOmega x = randomQOmega(rng);
    const QOmega y = randomQOmega(rng);
    const QOmega z = randomQOmega(rng);
    EXPECT_EQ((x + y) + z, x + (y + z));
    EXPECT_EQ((x * y) * z, x * (y * z));
    EXPECT_EQ(x * (y + z), x * y + x * z);
    EXPECT_EQ(x + y, y + x);
    EXPECT_EQ(x * y, y * x);
    EXPECT_EQ(x - x, QOmega::zero());
    if (!x.isZero()) {
      EXPECT_EQ(x * x.inverse(), QOmega::one());
      EXPECT_EQ(x / x, QOmega::one());
    }
  }
}

TEST(QOmega, ArithmeticMatchesComplexDoubles) {
  std::mt19937_64 rng(9);
  for (int i = 0; i < 300; ++i) {
    const QOmega x = randomQOmega(rng);
    const QOmega y = randomQOmega(rng);
    expectComplexNear((x + y).toComplex(), x.toComplex() + y.toComplex());
    expectComplexNear((x * y).toComplex(), x.toComplex() * y.toComplex());
    if (!y.isZero()) {
      expectComplexNear((x / y).toComplex(), x.toComplex() / y.toComplex());
    }
  }
}

TEST(QOmega, PaperExample8Inverse) {
  // z = 1 + i sqrt2; N(z) = 3; 1/z = (1 - i sqrt2)/3.
  const QOmega z = QOmega::one() + QOmega::imaginaryUnit() * QOmega::sqrt2();
  const QOmega inverse = z.inverse();
  EXPECT_EQ(inverse.den(), BigInt{3});
  EXPECT_EQ(inverse, (QOmega::one() - QOmega::imaginaryUnit() * QOmega::sqrt2()) / QOmega{3});
  expectComplexNear(inverse.toComplex(), 1.0 / z.toComplex());
}

TEST(QOmega, InverseOfZeroThrows) {
  EXPECT_THROW(QOmega::zero().inverse(), std::domain_error);
  EXPECT_THROW(QOmega::one() / QOmega::zero(), std::domain_error);
}

TEST(QOmega, DyadicClosure) {
  // D[omega] (den == 1) is closed under + and *; only division leaves it.
  std::mt19937_64 rng(11);
  std::uniform_int_distribution<std::int64_t> c(-9, 9);
  for (int i = 0; i < 200; ++i) {
    const QOmega x{ZOmega{BigInt{c(rng)}, BigInt{c(rng)}, BigInt{c(rng)}, BigInt{c(rng)}},
                   static_cast<long>(rng() % 5)};
    const QOmega y{ZOmega{BigInt{c(rng)}, BigInt{c(rng)}, BigInt{c(rng)}, BigInt{c(rng)}},
                   static_cast<long>(rng() % 5)};
    EXPECT_TRUE(x.isDyadic());
    EXPECT_TRUE((x + y).isDyadic());
    EXPECT_TRUE((x * y).isDyadic());
  }
  // 1/3 is not dyadic.
  EXPECT_FALSE((QOmega{1} / QOmega{3}).isDyadic());
}

TEST(QOmega, ConjugationProperties) {
  std::mt19937_64 rng(13);
  for (int i = 0; i < 200; ++i) {
    const QOmega x = randomQOmega(rng);
    EXPECT_EQ(x.conj().conj(), x);
    expectComplexNear(x.conj().toComplex(), std::conj(x.toComplex()));
    // |x|^2 is real and non-negative.
    const QOmega magnitude = x.squaredMagnitude();
    EXPECT_NEAR(magnitude.toComplex().imag(), 0.0, kTol);
    EXPECT_GE(magnitude.toComplex().real(), -kTol);
  }
}

TEST(QOmega, HadamardEntryAlgebra) {
  // (1/sqrt2)^2 = 1/2; H^2 = I boils down to such identities.
  const QOmega h = QOmega::invSqrt2();
  EXPECT_EQ(h * h + h * h, QOmega::one());
  EXPECT_EQ(h * h - h * h, QOmega::zero());
  // T^8 = I: omega^8 = 1.
  QOmega t = QOmega::one();
  for (int i = 0; i < 8; ++i) {
    t *= QOmega::omega();
  }
  EXPECT_EQ(t, QOmega::one());
}

TEST(QOmega, ToComplexHandlesHugeCoefficients) {
  // (2^400 + 1) / 2^400 ~= 1 without overflow.
  const QOmega x{ZOmega{pow2(400) + BigInt{1}}, 0, BigInt{1}};
  const QOmega y{ZOmega{BigInt{1}}, -800, BigInt{1}}; // sqrt2^800 = 2^400
  const QOmega ratio = x / y;
  EXPECT_NEAR(ratio.toComplex().real(), 1.0, 1e-12);
  EXPECT_NEAR(ratio.toComplex().imag(), 0.0, 1e-12);
}

TEST(QOmega, ToStringSmoke) {
  EXPECT_EQ(QOmega::zero().toString(), "0");
  EXPECT_EQ(QOmega::one().toString(), "1");
  EXPECT_EQ(QOmega::invSqrt2().toString(), "(1)/(sqrt2^1)");
  EXPECT_EQ((QOmega{1} / QOmega{3}).toString(), "(1)/(3)");
}

TEST(QOmega, MaxBitsTracksGrowth) {
  QOmega x = QOmega::one() + QOmega::omega() * QOmega{3};
  std::size_t previous = x.maxBits();
  for (int i = 0; i < 20; ++i) {
    x *= x;
    EXPECT_GE(x.maxBits(), previous);
    previous = x.maxBits();
  }
  EXPECT_GT(previous, 100U); // repeated squaring explodes the coefficients
}

TEST(QOmega, DensityApproximationConverges) {
  // Section IV-A: D[omega] is dense in C.  The constructive approximation
  // must converge with the requested resolution.
  std::mt19937_64 rng(21);
  std::uniform_real_distribution<double> d(-2.0, 2.0);
  for (int i = 0; i < 50; ++i) {
    const std::complex<double> target{d(rng), d(rng)};
    for (const unsigned bits : {4U, 10U, 20U, 40U}) {
      const QOmega approximation = QOmega::approximate(target, bits);
      const double tolerance = std::ldexp(1.5, -static_cast<int>(bits));
      EXPECT_LE(std::abs(approximation.toComplex() - target), tolerance)
          << "bits=" << bits;
    }
  }
  // Exactly representable inputs round-trip exactly.
  const QOmega expected{ZOmega{BigInt{0}, BigInt{-64}, BigInt{0}, BigInt{128}}, 16};
  EXPECT_EQ(QOmega::approximate({0.5, -0.25}, 8), expected);
  EXPECT_THROW((void)QOmega::approximate({1.0, 0.0}, 5000), std::invalid_argument);
}

/// Parameterized: powers of unit values stay exactly on the unit circle.
class QOmegaUnitPowers : public ::testing::TestWithParam<int> {};

TEST_P(QOmegaUnitPowers, OmegaPowersHaveUnitMagnitude) {
  const QOmega u = QOmega::omegaPower(GetParam());
  EXPECT_EQ(u * u.conj(), QOmega::one());
}

INSTANTIATE_TEST_SUITE_P(AllPowers, QOmegaUnitPowers, ::testing::Range(-8, 9));

} // namespace
} // namespace qadd::alg
