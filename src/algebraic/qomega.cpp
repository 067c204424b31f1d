#include "algebraic/qomega.hpp"

#include "algebraic/small_kernels.hpp"

#include <cassert>
#include <cmath>
#include <cstdlib>
#include <initializer_list>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace qadd::alg {

QOmega::QOmega(ZOmega num, long k, BigInt den)
    : num_(std::move(num)), k_(k), den_(std::move(den)) {
  if (den_.isZero()) {
    throw std::domain_error("QOmega: zero denominator");
  }
  canonicalize();
}

QOmega QOmega::omegaPower(long p) {
  long r = p % 8;
  if (r < 0) {
    r += 8;
  }
  ZOmega value = ZOmega::one();
  for (long i = 0; i < r; ++i) {
    value = value.timesOmega();
  }
  return QOmega{std::move(value)};
}

std::size_t QOmega::maxBits() const noexcept {
  return std::max(num_.maxCoefficientBits(), den_.bitLength());
}

bool QOmega::canonicalizeSmall() {
  // Coefficients below 2^62 keep every intermediate (negation, the halving
  // steps of divide-by-sqrt2, the u64 Euclid content GCD) inside int64.
  constexpr std::size_t kCanonBits = 62;
  detail::SmallZ n{};
  std::int64_t den = 0;
  if (!detail::load(num_, n, kCanonBits) || !detail::load(den_, den, kCanonBits)) {
    return false;
  }
  ++detail::smallPathStats().hits;
  // (a) denominator: positive sign, powers of two folded into k (2 = sqrt2^2).
  if (den < 0) {
    den = -den;
    n.a = -n.a;
    n.b = -n.b;
    n.c = -n.c;
    n.d = -n.d;
  }
  if ((den & 1) == 0) {
    const int twos = __builtin_ctzll(static_cast<unsigned long long>(den));
    den >>= twos;
    k_ += 2L * twos;
  }
  // (b) smallest denominator exponent (Algorithm 1): divide by sqrt(2) while
  // the parity criterion a == c, b == d (mod 2) holds.  The differences are
  // even by construction, so the halvings are exact.
  while (((n.a ^ n.c) & 1) == 0 && ((n.b ^ n.d) & 1) == 0) {
    const std::int64_t a2 = (n.b - n.d) / 2;
    const std::int64_t b2 = (n.a + n.c) / 2;
    const std::int64_t c2 = (n.b + n.d) / 2;
    const std::int64_t d2 = (n.c - n.a) / 2;
    n = {a2, b2, c2, d2};
    --k_;
  }
  // (c) cancel the odd content shared between numerator and denominator.
  if (den != 1) {
    const auto absU64 = [](std::int64_t v) {
      return v < 0 ? ~static_cast<std::uint64_t>(v) + 1U : static_cast<std::uint64_t>(v);
    };
    const auto gcdU64 = [](std::uint64_t x, std::uint64_t y) {
      while (y != 0) {
        x %= y;
        std::swap(x, y);
      }
      return x;
    };
    // Same den-first fold with early exit as the big path below.
    std::uint64_t g = static_cast<std::uint64_t>(den);
    for (const std::int64_t coefficient : {n.a, n.b, n.c, n.d}) {
      g = gcdU64(g, absU64(coefficient));
      if (g == 1) {
        break;
      }
    }
    if (g != 1) {
      const auto divisor = static_cast<std::int64_t>(g);
      n.a /= divisor;
      n.b /= divisor;
      n.c /= divisor;
      n.d /= divisor;
      den /= divisor;
    }
  }
  num_ = ZOmega{BigInt{n.a}, BigInt{n.b}, BigInt{n.c}, BigInt{n.d}};
  den_ = BigInt{den};
  return true;
}

void QOmega::canonicalize() {
  if (num_.isZero()) {
    k_ = 0;
    den_ = BigInt{1};
    return;
  }
  if (qadd::detail::smallFastPathsEnabled()) {
    if (canonicalizeSmall()) {
      return;
    }
    ++detail::smallPathStats().spills;
  }
  // (a) denominator: positive sign, powers of two folded into k (2 = sqrt2^2).
  if (den_.isNegative()) {
    den_ = -den_;
    num_ = -num_;
  }
  if (den_.isEven()) {
    const std::size_t twos = den_.countTrailingZeroBits();
    den_ = den_.shiftRight(twos);
    k_ += static_cast<long>(2 * twos);
  }
  // (b) smallest denominator exponent (Algorithm 1 of the paper): divide the
  // numerator by sqrt(2) while the parity criterion allows it.
  while (num_.divisibleBySqrt2()) {
    num_ = num_.divideBySqrt2();
    --k_;
  }
  // (c) cancel the odd content shared between numerator and denominator.
  // (Dividing by an odd integer preserves coefficient parities, so the
  // exponent stays minimal.)  Fold from den_: every partial gcd is bounded
  // by den_'s size, and most calls reach 1 after the first coefficient.
  if (!den_.isOne()) {
    BigInt g = den_;
    for (const BigInt* coefficient : {&num_.a(), &num_.b(), &num_.c(), &num_.d()}) {
      g = BigInt::gcd(std::move(g), *coefficient);
      if (g.isOne()) {
        break;
      }
    }
    if (!g.isOne()) {
      num_ = ZOmega{num_.a() / g, num_.b() / g, num_.c() / g, num_.d() / g};
      den_ /= g;
    }
  }
}

QOmega QOmega::operator-() const {
  QOmega result;
  result.num_ = -num_;
  result.k_ = k_;
  result.den_ = den_;
  return result; // canonical form is preserved under negation
}

QOmega& QOmega::operator+=(const QOmega& rhs) {
  if (rhs.isZero()) {
    return *this;
  }
  if (isZero()) {
    return *this = rhs;
  }
  // Bring both operands to the common denominator sqrt(2)^kc * lcm(e1, e2).
  const long kc = std::max(k_, rhs.k_);
  ZOmega n1 = num_;
  for (long i = k_; i < kc; ++i) {
    n1 = n1.timesSqrt2();
  }
  ZOmega n2 = rhs.num_;
  for (long i = rhs.k_; i < kc; ++i) {
    n2 = n2.timesSqrt2();
  }
  const BigInt g = BigInt::gcd(den_, rhs.den_);
  const BigInt m1 = rhs.den_ / g; // multiply our numerator by this
  const BigInt m2 = den_ / g;
  num_ = n1.scaled(m1) + n2.scaled(m2);
  den_ *= m1;
  k_ = kc;
  canonicalize();
  return *this;
}

QOmega& QOmega::operator-=(const QOmega& rhs) { return *this += -rhs; }

QOmega& QOmega::operator*=(const QOmega& rhs) {
  if (isZero() || rhs.isZero()) {
    return *this = QOmega{};
  }
  num_ *= rhs.num_;
  k_ += rhs.k_;
  den_ *= rhs.den_;
  canonicalize();
  return *this;
}

QOmega QOmega::inverse() const {
  if (isZero()) {
    throw std::domain_error("QOmega: inverse of zero");
  }
  // z = n / (sqrt2^k e);  N(n) = n conj(n) = u + v sqrt2;
  // 1/z = e sqrt2^k conj(n) (u - v sqrt2) / (u^2 - 2 v^2).
  BigInt u;
  BigInt v;
  num_.norm(u, v);
  const ZOmega uMinusVSqrt2{v, BigInt{0}, -v, u};
  BigInt bigDen = u * u - (v * v).shiftLeft(1);
  assert(!bigDen.isZero());
  ZOmega numerator = num_.conj() * uMinusVSqrt2;
  numerator = numerator.scaled(den_);
  return QOmega{std::move(numerator), -k_, std::move(bigDen)};
}

QOmega& QOmega::operator/=(const QOmega& rhs) { return *this *= rhs.inverse(); }

QOmega QOmega::conj() const {
  // conj(n) / (sqrt2^k e): conjugation preserves canonicity (parities of the
  // coefficient multiset are unchanged).
  QOmega result;
  result.num_ = num_.conj();
  result.k_ = k_;
  result.den_ = den_;
  return result;
}

std::complex<double> QOmega::toComplex() const {
  if (isZero()) {
    return {0.0, 0.0};
  }
  // Each coefficient contributes  coeff/den * 2^(-k/2); form the ratio in
  // scaled (mantissa, exponent) space so huge BigInts never overflow.
  long denExp = 0;
  const double denMantissa = den_.toDoubleScaled(denExp);
  const auto ratio = [&](const BigInt& x) -> double {
    if (x.isZero()) {
      return 0.0;
    }
    long xExp = 0;
    const double xMantissa = x.toDoubleScaled(xExp);
    const double exponent =
        static_cast<double>(xExp - denExp) - 0.5 * static_cast<double>(k_);
    return xMantissa / denMantissa * std::exp2(exponent);
  };
  constexpr double invSqrt2 = 0.70710678118654752440;
  // value = [d + (c-a)/sqrt2] + i [b + (c+a)/sqrt2]   (all over den*sqrt2^k).
  const double re = ratio(num_.d()) + ratio(num_.c() - num_.a()) * invSqrt2;
  const double im = ratio(num_.b()) + ratio(num_.c() + num_.a()) * invSqrt2;
  return {re, im};
}

QOmega QOmega::approximate(std::complex<double> z, unsigned bits) {
  if (bits > 1000) {
    throw std::invalid_argument("QOmega::approximate: resolution out of range");
  }
  // re + i*im ~= (a + b*omega^2) / 2^bits with a = round(re * 2^bits) etc.
  const double scale = std::ldexp(1.0, static_cast<int>(bits));
  const auto toBig = [](double value) {
    // Doubles this large are exact integers after llround only below 2^63;
    // clamp the usable range accordingly.
    if (std::abs(value) >= 9.0e18) {
      throw std::domain_error("QOmega::approximate: value out of range");
    }
    return BigInt{static_cast<std::int64_t>(std::llround(value))};
  };
  ZOmega numerator{BigInt{0}, toBig(z.imag() * scale), BigInt{0}, toBig(z.real() * scale)};
  return QOmega{std::move(numerator), static_cast<long>(2 * bits)};
}

std::string QOmega::toString() const {
  std::ostringstream os;
  const bool trivialDen = k_ == 0 && den_.isOne();
  if (trivialDen) {
    os << num_.toString();
    return os.str();
  }
  os << "(" << num_.toString() << ")/(";
  bool needStar = false;
  if (k_ != 0) {
    os << "sqrt2^" << k_;
    needStar = true;
  }
  if (!den_.isOne()) {
    if (needStar) {
      os << " * ";
    }
    os << den_.toString();
  } else if (!needStar) {
    os << "1";
  }
  os << ")";
  return os.str();
}

std::size_t QOmega::hash() const noexcept {
  std::size_t h = num_.hash();
  h = h * 31 + static_cast<std::size_t>(k_) * 0x9e3779b97f4a7c15ULL;
  h = h * 31 + den_.hash();
  return h;
}

std::ostream& operator<<(std::ostream& os, const QOmega& value) {
  return os << value.toString();
}

} // namespace qadd::alg
