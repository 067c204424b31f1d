#include "bigint/bigint.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

namespace qadd {
namespace {

TEST(BigInt, DefaultIsZero) {
  const BigInt zero;
  EXPECT_TRUE(zero.isZero());
  EXPECT_FALSE(zero.isNegative());
  EXPECT_EQ(zero.sign(), 0);
  EXPECT_EQ(zero.toString(), "0");
  EXPECT_EQ(zero.bitLength(), 0U);
}

TEST(BigInt, Int64RoundTrip) {
  for (const std::int64_t value :
       {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1}, std::int64_t{42},
        std::int64_t{-123456789}, std::numeric_limits<std::int64_t>::max(),
        std::numeric_limits<std::int64_t>::min()}) {
    const BigInt b{value};
    ASSERT_TRUE(b.fitsInt64()) << value;
    EXPECT_EQ(b.toInt64(), value);
    EXPECT_EQ(b.toString(), std::to_string(value));
  }
}

TEST(BigInt, DecimalStringRoundTrip) {
  for (const char* text : {"0", "1", "-1", "99999999999999999999999999999999999",
                           "-170141183460469231731687303715884105727", "12345678901234567890"}) {
    EXPECT_EQ(BigInt{std::string_view{text}}.toString(), text);
  }
}

TEST(BigInt, DecimalStringRejectsGarbage) {
  EXPECT_THROW(BigInt{std::string_view{""}}, std::invalid_argument);
  EXPECT_THROW(BigInt{std::string_view{"-"}}, std::invalid_argument);
  EXPECT_THROW(BigInt{std::string_view{"12a3"}}, std::invalid_argument);
  EXPECT_THROW(BigInt{std::string_view{"0x10"}}, std::invalid_argument);
}

TEST(BigInt, FitsInt64Boundaries) {
  const BigInt maxValue{std::numeric_limits<std::int64_t>::max()};
  const BigInt minValue{std::numeric_limits<std::int64_t>::min()};
  EXPECT_TRUE(maxValue.fitsInt64());
  EXPECT_TRUE(minValue.fitsInt64());
  EXPECT_FALSE((maxValue + BigInt{1}).fitsInt64());
  EXPECT_FALSE((minValue - BigInt{1}).fitsInt64());
  EXPECT_EQ((minValue - BigInt{1}).toString(), "-9223372036854775809");
}

TEST(BigInt, SignedArithmeticMatchesInt64) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 3000; ++i) {
    const auto x = static_cast<std::int64_t>(rng()) >> (rng() % 30 + 3);
    const auto y = static_cast<std::int64_t>(rng()) >> (rng() % 30 + 3);
    const BigInt bx{x};
    const BigInt by{y};
    EXPECT_EQ((bx + by).toInt64(), x + y);
    EXPECT_EQ((bx - by).toInt64(), x - y);
    if (std::abs(x) < (std::int64_t{1} << 31) && std::abs(y) < (std::int64_t{1} << 31)) {
      EXPECT_EQ((bx * by).toInt64(), x * y);
    }
    if (y != 0) {
      EXPECT_EQ((bx / by).toInt64(), x / y);
      EXPECT_EQ((bx % by).toInt64(), x % y);
    }
  }
}

TEST(BigInt, DivModIdentityOnHugeOperands) {
  std::mt19937_64 rng(11);
  for (int i = 0; i < 100; ++i) {
    BigInt a{1};
    BigInt b{1};
    const int aLimbs = static_cast<int>(rng() % 24) + 1;
    const int bLimbs = static_cast<int>(rng() % 10) + 1;
    for (int j = 0; j < aLimbs; ++j) {
      a *= BigInt{static_cast<std::int64_t>(rng() | 1)};
    }
    for (int j = 0; j < bLimbs; ++j) {
      b *= BigInt{static_cast<std::int64_t>(rng() | 1)};
    }
    if (rng() % 2 == 0) {
      a = -a;
    }
    if (rng() % 2 == 0) {
      b = -b;
    }
    BigInt q;
    BigInt r;
    BigInt::divMod(a, b, q, r);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r.abs(), b.abs());
    // Truncated semantics: remainder carries the numerator's sign.
    if (!r.isZero()) {
      EXPECT_EQ(r.sign(), a.sign());
    }
  }
}

TEST(BigInt, KaratsubaAgreesWithSquaredStructure) {
  // (10^k + 1)^2 = 10^2k + 2*10^k + 1 for k large enough to cross the
  // Karatsuba threshold.
  std::string digits = "1";
  digits.append(400, '0');
  digits.push_back('1');
  const BigInt x{std::string_view{digits}};
  // x = 10^401 + 1, so x^2 = 10^802 + 2*10^401 + 1.
  std::string expected = "1";
  expected.append(400, '0');
  expected += "2";
  expected.append(400, '0');
  expected += "1";
  EXPECT_EQ((x * x).toString(), expected);
}

TEST(BigInt, MulDivRoundTripLarge) {
  std::mt19937_64 rng(13);
  for (int i = 0; i < 60; ++i) {
    BigInt a{1};
    BigInt b{static_cast<std::int64_t>(rng() | 1)};
    for (int j = 0; j < 40; ++j) {
      a *= BigInt{static_cast<std::int64_t>(rng())};
    }
    if (a.isZero()) {
      continue;
    }
    BigInt q;
    BigInt r;
    BigInt::divMod(a * b, b, q, r);
    EXPECT_EQ(q, a);
    EXPECT_TRUE(r.isZero());
  }
}

TEST(BigInt, DivRoundNearest) {
  EXPECT_EQ(BigInt::divRound(BigInt{7}, BigInt{2}).toInt64(), 4);  // 3.5 -> away from zero
  EXPECT_EQ(BigInt::divRound(BigInt{-7}, BigInt{2}).toInt64(), -4);
  EXPECT_EQ(BigInt::divRound(BigInt{7}, BigInt{-2}).toInt64(), -4);
  EXPECT_EQ(BigInt::divRound(BigInt{6}, BigInt{4}).toInt64(), 2); // 1.5 -> 2
  EXPECT_EQ(BigInt::divRound(BigInt{5}, BigInt{4}).toInt64(), 1);
  EXPECT_EQ(BigInt::divRound(BigInt{3}, BigInt{4}).toInt64(), 1);
  EXPECT_EQ(BigInt::divRound(BigInt{1}, BigInt{4}).toInt64(), 0);
  EXPECT_EQ(BigInt::divRound(BigInt{-1}, BigInt{4}).toInt64(), 0);
  EXPECT_EQ(BigInt::divRound(BigInt{-3}, BigInt{4}).toInt64(), -1);
  EXPECT_EQ(BigInt::divRound(BigInt{0}, BigInt{9}).toInt64(), 0);
}

TEST(BigInt, DivisionByZeroThrows) {
  BigInt q;
  BigInt r;
  EXPECT_THROW(BigInt::divMod(BigInt{1}, BigInt{0}, q, r), std::domain_error);
}

TEST(BigInt, Shifts) {
  const BigInt one{1};
  EXPECT_EQ(one.shiftLeft(100).toString(), "1267650600228229401496703205376");
  EXPECT_EQ(one.shiftLeft(100).shiftRight(100), one);
  EXPECT_EQ(BigInt{-12}.shiftRight(2).toInt64(), -3);
  EXPECT_EQ(BigInt{-13}.shiftRight(2).toInt64(), -3); // magnitude-truncating
  EXPECT_EQ(BigInt{0}.shiftLeft(1000), BigInt{0});
  EXPECT_EQ(pow2(64).toString(), "18446744073709551616");
}

TEST(BigInt, CountTrailingZeroBits) {
  EXPECT_EQ(BigInt{1}.countTrailingZeroBits(), 0U);
  EXPECT_EQ(BigInt{8}.countTrailingZeroBits(), 3U);
  EXPECT_EQ(pow2(100).countTrailingZeroBits(), 100U);
  EXPECT_EQ((pow2(100) * BigInt{3}).countTrailingZeroBits(), 100U);
}

TEST(BigInt, GcdMatchesReference) {
  std::mt19937_64 rng(17);
  const auto referenceGcd = [](std::int64_t a, std::int64_t b) {
    a = std::abs(a);
    b = std::abs(b);
    while (b != 0) {
      const std::int64_t t = a % b;
      a = b;
      b = t;
    }
    return a;
  };
  for (int i = 0; i < 500; ++i) {
    const auto x = static_cast<std::int64_t>(rng() >> 20);
    const auto y = static_cast<std::int64_t>(rng() >> 20);
    EXPECT_EQ(BigInt::gcd(BigInt{x}, BigInt{y}).toInt64(), referenceGcd(x, y));
  }
  EXPECT_EQ(BigInt::gcd(BigInt{0}, BigInt{0}), BigInt{0});
  EXPECT_EQ(BigInt::gcd(BigInt{0}, BigInt{-5}).toInt64(), 5);
  EXPECT_EQ(BigInt::gcd(BigInt{-6}, BigInt{0}).toInt64(), 6);
}

TEST(BigInt, GcdDividesLargeProducts) {
  std::mt19937_64 rng(19);
  for (int i = 0; i < 40; ++i) {
    BigInt g{static_cast<std::int64_t>((rng() >> 30) | 1)};
    BigInt a = g * BigInt{static_cast<std::int64_t>(rng() >> 16)};
    BigInt b = g * BigInt{static_cast<std::int64_t>(rng() >> 16)};
    const BigInt result = BigInt::gcd(a, b);
    if (a.isZero() || b.isZero()) {
      continue;
    }
    EXPECT_TRUE((a % result).isZero());
    EXPECT_TRUE((b % result).isZero());
    EXPECT_TRUE((result % g).isZero()); // g divides gcd
  }
}

/// A random magnitude of exactly `bits` bits (bits >= 1).
BigInt randomBits(std::mt19937_64& rng, std::size_t bits) {
  BigInt value{0};
  for (std::size_t filled = 0; filled < bits; filled += 32) {
    value = value.shiftLeft(32) + BigInt{static_cast<std::int64_t>(rng() >> 32)};
  }
  value = value.shiftRight(value.bitLength() > bits ? value.bitLength() - bits : 0);
  return value.bitLength() == bits ? value : value + pow2(bits - 1);
}

/// Plain Euclid on %: the oracle shares no code with the Lehmer loop.
BigInt euclid(BigInt x, BigInt y) {
  x = x.abs();
  y = y.abs();
  while (!y.isZero()) {
    BigInt remainder = x % y;
    x = std::move(y);
    y = std::move(remainder);
  }
  return x;
}

/// A random magnitude of exactly `limbs` 32-bit limbs (zero for 0).
BigInt randomLimbs(std::mt19937_64& rng, std::size_t limbs) {
  return limbs == 0 ? BigInt{0} : randomBits(rng, 32 * (limbs - 1) + 1 + rng() % 32);
}

/// Run `body` with the word kernels on, then off (the differential oracle).
template <class Body> void withAndWithoutFastPaths(Body body) {
  for (const bool enabled : {true, false}) {
    SCOPED_TRACE(enabled ? "small fast paths on" : "small fast paths off");
    const bool previous = detail::setSmallFastPaths(enabled);
    body();
    detail::setSmallFastPaths(previous);
  }
}

TEST(BigInt, GcdMatchesEuclidOracleMultiLimb) {
  std::mt19937_64 rng(23);
  const auto check = [&](const BigInt& a, const BigInt& b) {
    const BigInt expected = euclid(a, b);
    EXPECT_EQ(BigInt::gcd(a, b), expected) << a << " " << b;
    EXPECT_EQ(BigInt::gcd(b, a), expected) << b << " " << a;
    EXPECT_EQ(BigInt::gcd(-a, b), expected);
    EXPECT_EQ(BigInt::gcd(a, -b), expected);
    EXPECT_EQ(BigInt::gcd(-a, -b), expected);
  };
  const std::size_t sizes[] = {65, 96, 127, 128, 200, 511, 1000, 2048};
  for (const std::size_t bitsA : sizes) {
    for (const std::size_t bitsB : sizes) {
      // Coprime-ish random operands, equal and very unequal sizes.
      check(randomBits(rng, bitsA), randomBits(rng, bitsB));
      // A shared factor of 1-8 limbs.
      const BigInt g = randomBits(rng, 32 * (1 + rng() % 8));
      const BigInt a = g * randomBits(rng, bitsA);
      const BigInt b = g * randomBits(rng, bitsB);
      check(a, b);
      // One operand divides the other.
      check(a, a * randomBits(rng, bitsB));
    }
    const BigInt a = randomBits(rng, bitsA);
    check(a, BigInt{0});
    check(a, a);
    check(a, BigInt{1});
    check(a, BigInt{static_cast<std::int64_t>(rng() >> 1)});
  }
  // Consecutive Fibonacci numbers: every Euclid quotient is 1, the longest
  // remainder sequence for their size.
  BigInt previous{1};
  BigInt current{1};
  for (int i = 0; i < 2000; ++i) {
    BigInt next = previous + current;
    previous = std::move(current);
    current = std::move(next);
  }
  check(current, previous);
  check(current * previous, previous * previous);
  // Values one below and above powers of two, around the limb boundaries.
  for (const std::size_t bits : {64, 95, 96, 97, 128, 1024}) {
    check(pow2(bits) - BigInt{1}, pow2(bits) + BigInt{1});
    check(pow2(bits) - BigInt{1}, pow2(bits / 2) - BigInt{1});
  }
}

TEST(BigInt, GcdOfVeryUnequalOperandsMatchesEuclidOracle) {
  // |a| >> |b|: a b of up to two limbs takes the one-pass 128-bit reduction,
  // a wider b leaves Lehmer's window without a quotient, so the loop takes a
  // remainder-only step.  Both argument orders also run the reduction of
  // the larger operand before the loop.
  std::mt19937_64 rng(37);
  withAndWithoutFastPaths([&] {
    for (const std::size_t smallLimbs : {1, 2, 3, 4, 7}) {
      for (const std::size_t largeLimbs : {6, 20, 64}) {
        const BigInt g = randomLimbs(rng, 1);
        const BigInt b = g * randomLimbs(rng, smallLimbs - 1);
        const BigInt a = g * randomLimbs(rng, largeLimbs);
        for (const auto& [x, y] : {std::pair{a, b}, std::pair{b, a}, std::pair{-a, b},
                                   std::pair{b, -a}, std::pair{a * b, b}}) {
          EXPECT_EQ(BigInt::gcd(x, y), euclid(x, y)) << x << " " << y;
        }
        const BigInt coprime = randomLimbs(rng, smallLimbs) * BigInt{2} + BigInt{1};
        EXPECT_EQ(BigInt::gcd(a, coprime), euclid(a, coprime));
        EXPECT_EQ(BigInt::gcd(coprime, a), euclid(coprime, a));
      }
    }
  });
}

TEST(BigInt, DivExactMatchesDivMod) {
  // Odd divisors of 1-40 limbs times quotients of 0-40 limbs, all signs.
  std::mt19937_64 rng(41);
  withAndWithoutFastPaths([&] {
    for (std::size_t divisorLimbs = 1; divisorLimbs <= 40; ++divisorLimbs) {
      for (std::size_t quotientLimbs = 0; quotientLimbs <= 40; ++quotientLimbs) {
        BigInt divisor = randomLimbs(rng, divisorLimbs);
        if (divisor.isEven()) {
          divisor += BigInt{1};
        }
        BigInt quotient = randomLimbs(rng, quotientLimbs);
        if ((rng() & 1U) != 0) {
          divisor.negate();
        }
        if ((rng() & 1U) != 0) {
          quotient.negate();
        }
        const BigInt dividend = quotient * divisor;
        BigInt expected;
        BigInt remainder;
        BigInt::divMod(dividend, divisor, expected, remainder);
        ASSERT_TRUE(remainder.isZero());
        BigInt exact = dividend;
        exact.divExact(divisor);
        EXPECT_EQ(exact, expected) << dividend << " / " << divisor;
        EXPECT_EQ(exact, quotient);
      }
    }
    // Aliasing and a divisor equal to the numerator.
    BigInt x = randomLimbs(rng, 7);
    if (x.isEven()) {
      x += BigInt{1};
    }
    BigInt copy = x;
    EXPECT_EQ(copy.divExact(x), BigInt{1});
    BigInt negated = -x;
    EXPECT_EQ(negated.divExact(x), BigInt{-1});
    BigInt self = -x;
    EXPECT_EQ(self.divExact(self), BigInt{1});
    BigInt small{-15};
    EXPECT_EQ(small.divExact(small), BigInt{1});
    // Zero stays zero for any odd divisor.
    BigInt zero;
    EXPECT_TRUE(zero.divExact(x).isZero());
    EXPECT_FALSE(zero.isNegative());
  });
}

TEST(BigInt, ToDoubleAccuracy) {
  EXPECT_DOUBLE_EQ(BigInt{0}.toDouble(), 0.0);
  EXPECT_DOUBLE_EQ(BigInt{12345}.toDouble(), 12345.0);
  EXPECT_DOUBLE_EQ(BigInt{-98765}.toDouble(), -98765.0);
  const BigInt big = pow2(300);
  EXPECT_NEAR(big.toDouble() / std::ldexp(1.0, 300), 1.0, 1e-15);
}

TEST(BigInt, ToDoubleScaledRatioOfHugeNumbers) {
  // (2^5000 * 3) / 2^5000 should come out as 3 even though both overflow.
  const BigInt numerator = pow2(5000) * BigInt{3};
  const BigInt denominator = pow2(5000);
  long numExp = 0;
  long denExp = 0;
  const double m1 = numerator.toDoubleScaled(numExp);
  const double m2 = denominator.toDoubleScaled(denExp);
  EXPECT_NEAR(m1 / m2 * std::exp2(static_cast<double>(numExp - denExp)), 3.0, 1e-12);
  EXPECT_GE(std::abs(m1), 0.5);
  EXPECT_LT(std::abs(m1), 1.0);
}

TEST(BigInt, ComparisonTotalOrder) {
  const BigInt values[] = {BigInt{-100}, BigInt{-1}, BigInt{0}, BigInt{1}, BigInt{100},
                           pow2(80), -pow2(80)};
  EXPECT_LT(values[0], values[1]);
  EXPECT_LT(values[1], values[2]);
  EXPECT_LT(values[2], values[3]);
  EXPECT_LT(values[6], values[0]);
  EXPECT_GT(values[5], values[4]);
  EXPECT_EQ(BigInt{5}, BigInt{"5"});
  EXPECT_NE(BigInt{5}, BigInt{-5});
}

TEST(BigInt, HashConsistency) {
  std::mt19937_64 rng(23);
  for (int i = 0; i < 200; ++i) {
    const auto x = static_cast<std::int64_t>(rng());
    EXPECT_EQ(BigInt{x}.hash(), BigInt{std::to_string(x)}.hash());
  }
  EXPECT_NE(BigInt{1}.hash(), BigInt{-1}.hash());
}

TEST(BigInt, OddEven) {
  EXPECT_TRUE(BigInt{0}.isEven());
  EXPECT_TRUE(BigInt{2}.isEven());
  EXPECT_TRUE(BigInt{-2}.isEven());
  EXPECT_TRUE(BigInt{3}.isOdd());
  EXPECT_TRUE(BigInt{-3}.isOdd());
  EXPECT_TRUE((pow2(100) + BigInt{1}).isOdd());
}

TEST(BigIntBytes, ZeroIsSingleHeaderByte) {
  const std::vector<std::uint8_t> bytes = BigInt{0}.toBytes();
  ASSERT_EQ(bytes.size(), 1U);
  EXPECT_EQ(bytes[0], 0x00);
  EXPECT_EQ(BigInt::fromBytes(bytes), BigInt{0});
}

TEST(BigIntBytes, SmallValuesEncodeCompactly) {
  // header = (count << 1) | sign, magnitude little-endian.
  EXPECT_EQ(BigInt{1}.toBytes(), (std::vector<std::uint8_t>{0x02, 0x01}));
  EXPECT_EQ(BigInt{-1}.toBytes(), (std::vector<std::uint8_t>{0x03, 0x01}));
  EXPECT_EQ(BigInt{255}.toBytes(), (std::vector<std::uint8_t>{0x02, 0xFF}));
  EXPECT_EQ(BigInt{256}.toBytes(), (std::vector<std::uint8_t>{0x04, 0x00, 0x01}));
  EXPECT_EQ(BigInt{-0x1234}.toBytes(), (std::vector<std::uint8_t>{0x05, 0x34, 0x12}));
}

TEST(BigIntBytes, NegativeRoundTrip) {
  for (const std::int64_t value : {std::int64_t{-1}, std::int64_t{-255}, std::int64_t{-256},
                                   std::numeric_limits<std::int64_t>::min()}) {
    const BigInt original{value};
    EXPECT_EQ(BigInt::fromBytes(original.toBytes()), original) << value;
  }
}

TEST(BigIntBytes, MultiLimbRoundTripMatchesDecimal) {
  for (const char* text :
       {"99999999999999999999999999999999999", "-170141183460469231731687303715884105727",
        "340282366920938463463374607431768211456"}) {
    const BigInt original{std::string_view{text}};
    const BigInt decoded = BigInt::fromBytes(original.toBytes());
    EXPECT_EQ(decoded, original);
    EXPECT_EQ(decoded.toString(), text);
  }
}

TEST(BigIntBytes, RandomRoundTripAllSizes) {
  std::mt19937_64 rng(29);
  for (int limbs = 1; limbs <= 40; ++limbs) {
    for (int i = 0; i < 10; ++i) {
      BigInt value{static_cast<std::int64_t>(rng())};
      for (int j = 1; j < limbs; ++j) {
        value = value * BigInt{static_cast<std::int64_t>(rng() | 1)};
      }
      if (rng() % 2 == 0) {
        value = -value;
      }
      EXPECT_EQ(BigInt::fromBytes(value.toBytes()), value);
    }
  }
}

TEST(BigIntBytes, StreamingDecodeAdvancesOffset) {
  std::vector<std::uint8_t> stream;
  const BigInt values[] = {BigInt{0}, BigInt{-42}, pow2(200) + BigInt{7}, BigInt{1}};
  for (const BigInt& value : values) {
    value.toBytes(stream);
  }
  std::size_t offset = 0;
  for (const BigInt& value : values) {
    EXPECT_EQ(BigInt::fromBytes(stream, offset), value);
  }
  EXPECT_EQ(offset, stream.size());
}

TEST(BigIntBytes, RejectsMalformedInput) {
  // Truncated: header promises one magnitude byte, buffer ends.
  EXPECT_THROW(BigInt::fromBytes(std::vector<std::uint8_t>{0x02}), std::invalid_argument);
  // Empty buffer.
  EXPECT_THROW(BigInt::fromBytes(std::vector<std::uint8_t>{}), std::invalid_argument);
  // Non-canonical: trailing zero magnitude byte (2 encoded as two bytes).
  EXPECT_THROW(BigInt::fromBytes(std::vector<std::uint8_t>{0x04, 0x02, 0x00}),
               std::invalid_argument);
  // Negative zero: sign bit set with no magnitude bytes.
  EXPECT_THROW(BigInt::fromBytes(std::vector<std::uint8_t>{0x01}), std::invalid_argument);
  // Whole-buffer decode rejects trailing garbage.
  EXPECT_THROW(BigInt::fromBytes(std::vector<std::uint8_t>{0x02, 0x01, 0xFF}),
               std::invalid_argument);
  // Runaway varint header (continuation bits forever).
  EXPECT_THROW(BigInt::fromBytes(std::vector<std::uint8_t>(12, 0x80)), std::invalid_argument);
}

/// Property sweep: (a+b)*c == a*c + b*c over random magnitudes of varying
/// sizes (crossing the Karatsuba threshold).
class BigIntDistributivity : public ::testing::TestWithParam<int> {};

TEST_P(BigIntDistributivity, Holds) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  const auto randomBig = [&rng](int limbs) {
    BigInt v{static_cast<std::int64_t>(rng())};
    for (int i = 1; i < limbs; ++i) {
      v = v * BigInt{static_cast<std::int64_t>(rng() | 1)} + BigInt{static_cast<std::int64_t>(rng() % 1000)};
    }
    return rng() % 2 == 0 ? v : -v;
  };
  const int limbs = GetParam();
  for (int i = 0; i < 20; ++i) {
    const BigInt a = randomBig(limbs);
    const BigInt b = randomBig(limbs);
    const BigInt c = randomBig(limbs);
    EXPECT_EQ((a + b) * c, a * c + b * c);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a - b) + b, a);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BigIntDistributivity, ::testing::Values(1, 2, 4, 8, 20, 40, 70));

// ---------------------------------------------------------------------------
// int64 / storage boundary behaviour.  These pin the edges the word kernels
// and the small-size-optimized storage switch on: INT64_MIN/MAX, 2^63, 2^64,
// and the 62-bit fast-path bounds.
// ---------------------------------------------------------------------------

TEST(BigIntBoundary, Int64EdgesRoundTripExactly) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const struct {
    std::int64_t value;
    const char* text;
  } cases[] = {
      {kMax, "9223372036854775807"},
      {kMin, "-9223372036854775808"},
      {kMax - 1, "9223372036854775806"},
      {kMin + 1, "-9223372036854775807"},
  };
  for (const auto& c : cases) {
    const BigInt b{c.value};
    EXPECT_TRUE(b.fitsInt64()) << c.text;
    EXPECT_EQ(b.toInt64(), c.value);
    EXPECT_EQ(b.toString(), c.text);
    EXPECT_EQ(BigInt::fromBytes(b.toBytes()), b);
  }
}

TEST(BigIntBoundary, JustOutsideInt64DoesNotFit) {
  const BigInt twoPow63 = pow2(63);              // == -INT64_MIN as magnitude
  const BigInt twoPow64 = pow2(64);
  EXPECT_FALSE(twoPow63.fitsInt64());            // 2^63 > INT64_MAX
  EXPECT_TRUE((-twoPow63).fitsInt64());          // -2^63 == INT64_MIN
  EXPECT_EQ((-twoPow63).toInt64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_FALSE((twoPow63 + BigInt{1}).fitsInt64());
  EXPECT_FALSE((-twoPow63 - BigInt{1}).fitsInt64());
  EXPECT_TRUE((twoPow63 - BigInt{1}).fitsInt64());
  EXPECT_EQ((twoPow63 - BigInt{1}).toInt64(), std::numeric_limits<std::int64_t>::max());
  EXPECT_FALSE(twoPow64.fitsInt64());
  EXPECT_FALSE((twoPow64 + BigInt{1}).fitsInt64());
  EXPECT_FALSE((twoPow64 - BigInt{1}).fitsInt64());
  EXPECT_EQ((twoPow64 - BigInt{1}).toString(), "18446744073709551615");
}

TEST(BigIntBoundary, InlineStorageCoversTwoLimbs) {
  // Every <= 64-bit magnitude lives inline; the first 65-bit magnitude
  // spills to the heap.
  const BigInt small{42};
  const BigInt oneLimb{std::int64_t{0x7FFFFFFF}};
  const BigInt twoLimbs = pow2(64) - BigInt{1};
  const BigInt threeLimbs = pow2(64);
  EXPECT_TRUE(BigInt{0}.isInline());
  EXPECT_TRUE(small.isInline());
  EXPECT_TRUE(oneLimb.isInline());
  EXPECT_TRUE(twoLimbs.isInline());
  EXPECT_TRUE((-twoLimbs).isInline());
  EXPECT_FALSE(threeLimbs.isInline());
  // Shrinking a spilled value back under the threshold keeps correctness
  // (re-inlining is not required, only value equality).
  const BigInt shrunk = threeLimbs - pow2(64) + BigInt{7};
  EXPECT_EQ(shrunk.toInt64(), 7);
  EXPECT_EQ(threeLimbs.bitLength(), 65U);
  EXPECT_EQ(twoLimbs.bitLength(), 64U);
}

TEST(BigIntBoundary, FromInt128Edges) {
  const __int128 one = 1;
  EXPECT_EQ(BigInt::fromInt128(0), BigInt{0});
  EXPECT_EQ(BigInt::fromInt128(-1), BigInt{-1});
  EXPECT_EQ(BigInt::fromInt128(one << 64), pow2(64));
  EXPECT_EQ(BigInt::fromInt128(-(one << 64)), -pow2(64));
  EXPECT_EQ(BigInt::fromInt128((one << 126) - 1), pow2(126) - BigInt{1});
  // INT128_MIN = -2^127: the magnitude is not representable as +int128, so
  // the negation must be done in unsigned arithmetic internally.
  const __int128 int128Min = -(one << 126) - (one << 126);
  EXPECT_EQ(BigInt::fromInt128(int128Min), -pow2(127));
  EXPECT_EQ(BigInt::fromInt128(int128Min + 1), -(pow2(127) - BigInt{1}));
  const std::int64_t raw = std::numeric_limits<std::int64_t>::min();
  EXPECT_EQ(BigInt::fromInt128(static_cast<__int128>(raw)), BigInt{raw});
}

TEST(BigIntBoundary, KernelOverflowEdgesAddMul) {
  // Operands on each side of the 62-bit fast-path bound and the 64-bit
  // storage bound: sums/products that overflow the word kernels must be
  // detected and produce the same value the multi-limb path computes.
  const BigInt near62 = pow2(62) - BigInt{1};
  const BigInt at63 = pow2(63);
  const BigInt near64 = pow2(64) - BigInt{1};
  EXPECT_EQ((near62 + near62).toString(), (pow2(63) - BigInt{2}).toString());
  EXPECT_EQ(near64 + BigInt{1}, pow2(64));             // u64 carry-out
  EXPECT_EQ(near64 + near64, pow2(65) - BigInt{2});
  EXPECT_EQ(-near64 - near64, -(pow2(65) - BigInt{2}));
  EXPECT_EQ(at63 - near64, -(pow2(63) - BigInt{1}));   // sign flip on subtract
  EXPECT_EQ(near64 * near64, pow2(128) - pow2(65) + BigInt{1});
  EXPECT_EQ(near62 * BigInt{4} + BigInt{4}, pow2(64)); // product crosses u64
  const BigInt minInt64{std::numeric_limits<std::int64_t>::min()};
  EXPECT_EQ(minInt64 * minInt64, pow2(126));
  EXPECT_EQ(minInt64 * BigInt{-1}, pow2(63));
}

TEST(BigIntBoundary, KernelOverflowEdgesDivShift) {
  const BigInt near64 = pow2(64) - BigInt{1};
  BigInt q, r;
  BigInt::divMod(near64, BigInt{1}, q, r);
  EXPECT_EQ(q, near64);
  EXPECT_TRUE(r.isZero());
  BigInt::divMod(pow2(64), near64, q, r);
  EXPECT_EQ(q.toInt64(), 1);
  EXPECT_EQ(r.toInt64(), 1);
  BigInt::divMod(-pow2(64), near64, q, r);
  EXPECT_EQ(q.toInt64(), -1);
  EXPECT_EQ(r.toInt64(), -1); // remainder carries numerator sign
  EXPECT_EQ(BigInt::divRound(near64, BigInt{2}), pow2(63)); // .5 away from 0
  EXPECT_EQ(BigInt::divRound(-near64, BigInt{2}), -pow2(63));
  // Shifts across the 64-bit word boundary.
  EXPECT_EQ(BigInt{1}.shiftLeft(63).shiftLeft(1), pow2(64));
  EXPECT_EQ(near64.shiftLeft(64).shiftRight(64), near64);
  EXPECT_EQ(near64.shiftRight(63).toInt64(), 1);
  EXPECT_EQ(near64.shiftRight(64).toInt64(), 0);
  EXPECT_EQ(BigInt::gcd(pow2(64), pow2(63)), pow2(63));
  EXPECT_EQ(BigInt::gcd(near64, near64), near64);
}

} // namespace
} // namespace qadd
