#include "algebraic/zomega.hpp"

#include "algebraic/small_kernels.hpp"

#include <cassert>
#include <cmath>
#include <ostream>
#include <sstream>
#include <utility>

namespace qadd::alg {

namespace {

using detail::I128;
using detail::SmallZ;

/// Coefficients below 2^62 keep int64 sums below 2^63 and keep the four-term
/// int128 accumulations of mul/norm below 2^126.
constexpr std::size_t kAddBits = 62;
constexpr std::size_t kMulBits = 62;
/// euclideanValue squares the norm components (themselves quadratic in the
/// coefficients):  u, |v| <= 4 * (2^30)^2 = 2^62, so u^2, 2v^2 < 2^126.
constexpr std::size_t kEuclideanBits = 30;

} // namespace

std::size_t ZOmega::maxCoefficientBits() const noexcept {
  return std::max(std::max(a_.bitLength(), b_.bitLength()),
                  std::max(c_.bitLength(), d_.bitLength()));
}

ZOmega ZOmega::operator-() const { return {-a_, -b_, -c_, -d_}; }

ZOmega& ZOmega::operator+=(const ZOmega& rhs) {
  if (qadd::detail::smallFastPathsEnabled()) {
    SmallZ x;
    SmallZ y;
    if (detail::load(*this, x, kAddBits) && detail::load(rhs, y, kAddBits)) {
      ++detail::smallPathStats().hits;
      a_ = BigInt{x.a + y.a};
      b_ = BigInt{x.b + y.b};
      c_ = BigInt{x.c + y.c};
      d_ = BigInt{x.d + y.d};
      return *this;
    }
    ++detail::smallPathStats().spills;
  }
  a_ += rhs.a_;
  b_ += rhs.b_;
  c_ += rhs.c_;
  d_ += rhs.d_;
  return *this;
}

ZOmega& ZOmega::operator-=(const ZOmega& rhs) {
  if (qadd::detail::smallFastPathsEnabled()) {
    SmallZ x;
    SmallZ y;
    if (detail::load(*this, x, kAddBits) && detail::load(rhs, y, kAddBits)) {
      ++detail::smallPathStats().hits;
      a_ = BigInt{x.a - y.a};
      b_ = BigInt{x.b - y.b};
      c_ = BigInt{x.c - y.c};
      d_ = BigInt{x.d - y.d};
      return *this;
    }
    ++detail::smallPathStats().spills;
  }
  a_ -= rhs.a_;
  b_ -= rhs.b_;
  c_ -= rhs.c_;
  d_ -= rhs.d_;
  return *this;
}

ZOmega operator*(const ZOmega& lhs, const ZOmega& rhs) {
  if (qadd::detail::smallFastPathsEnabled()) {
    SmallZ x;
    SmallZ y;
    if (detail::load(lhs, x, kMulBits) && detail::load(rhs, y, kMulBits)) {
      // Four products of < 2^62 magnitudes sum to < 2^126: no int128 overflow.
      ++detail::smallPathStats().hits;
      const I128 a = I128{x.a} * y.d + I128{x.b} * y.c + I128{x.c} * y.b + I128{x.d} * y.a;
      const I128 b = I128{x.b} * y.d + I128{x.c} * y.c + I128{x.d} * y.b - I128{x.a} * y.a;
      const I128 c = I128{x.c} * y.d + I128{x.d} * y.c - I128{x.a} * y.b - I128{x.b} * y.a;
      const I128 d = I128{x.d} * y.d - I128{x.a} * y.c - I128{x.b} * y.b - I128{x.c} * y.a;
      return {BigInt::fromInt128(a), BigInt::fromInt128(b), BigInt::fromInt128(c),
              BigInt::fromInt128(d)};
    }
    ++detail::smallPathStats().spills;
  }
  // Expand on the basis {w^3, w^2, w, 1} using w^4 = -1:
  //   w^3*w^3 = -w^2, w^3*w^2 = -w, w^3*w = -1, w^2*w^2 = -1, w^2*w = w^3.
  const BigInt& a1 = lhs.a_;
  const BigInt& b1 = lhs.b_;
  const BigInt& c1 = lhs.c_;
  const BigInt& d1 = lhs.d_;
  const BigInt& a2 = rhs.a_;
  const BigInt& b2 = rhs.b_;
  const BigInt& c2 = rhs.c_;
  const BigInt& d2 = rhs.d_;
  ZOmega product;
  product.a_.addMul(a1, d2).addMul(b1, c2).addMul(c1, b2).addMul(d1, a2);
  product.b_.addMul(b1, d2).addMul(c1, c2).addMul(d1, b2).subMul(a1, a2);
  product.c_.addMul(c1, d2).addMul(d1, c2).subMul(a1, b2).subMul(b1, a2);
  product.d_.addMul(d1, d2).subMul(a1, c2).subMul(b1, b2).subMul(c1, a2);
  return product;
}

ZOmega ZOmega::scaled(const BigInt& factor) const {
  ZOmega result;
  result.a_.addMul(a_, factor);
  result.b_.addMul(b_, factor);
  result.c_.addMul(c_, factor);
  result.d_.addMul(d_, factor);
  return result;
}

void ZOmega::divExact(const BigInt& divisor) {
  a_.divExact(divisor);
  b_.divExact(divisor);
  c_.divExact(divisor);
  d_.divExact(divisor);
}

void ZOmega::negate() noexcept {
  a_.negate();
  b_.negate();
  c_.negate();
  d_.negate();
}

ZOmega ZOmega::conj() const { return {-c_, -b_, -a_, d_}; }

ZOmega ZOmega::sqrt2Conj() const { return {c_, -b_, a_, d_}; }

ZOmega ZOmega::timesOmega() const {
  // w*(a w^3 + b w^2 + c w + d) = -a + b w^3 + c w^2 + d w.
  return {b_, c_, d_, -a_};
}

ZOmega ZOmega::timesSqrt2() && {
  // (w - w^3)*(a w^3 + b w^2 + c w + d)
  //   = (b-d) w^3 + (c+a) w^2 + (b+d) w + (c-a).
  // In place: (b, d) -> (b-d, b+d) and (c, a) -> (c+a, c-a), then rotate.
  BigInt t = b_;
  b_ -= d_;
  d_ += t;
  t = c_;
  c_ += a_;
  a_.negate();
  a_ += t;
  std::swap(a_, b_); // (b-d, c-a, c+a, b+d)
  std::swap(b_, c_); // (b-d, c+a, c-a, b+d)
  std::swap(c_, d_); // (b-d, c+a, b+d, c-a)
  return std::move(*this);
}

bool ZOmega::divisibleBySqrt2() const noexcept {
  return (a_.isOdd() == c_.isOdd()) && (b_.isOdd() == d_.isOdd());
}

ZOmega ZOmega::divideBySqrt2() && {
  assert(divisibleBySqrt2());
  // Inverse of timesSqrt2: solve (b'-d', c'+a', b'+d', c'-a') = (a, b, c, d),
  // i.e. (a', b', c', d') = ((b-d)/2, (a+c)/2, (b+d)/2, (c-a)/2).
  BigInt t = b_;
  b_ -= d_;
  d_ += t;
  t = a_;
  a_ += c_;
  c_ -= t;
  std::swap(a_, b_); // (b-d, a+c, c-a, b+d)
  std::swap(c_, d_); // (b-d, a+c, b+d, c-a)
  // The parity preconditions make every sum and difference even, so the
  // halvings (magnitude shifts) are exact.
  a_ >>= 1;
  b_ >>= 1;
  c_ >>= 1;
  d_ >>= 1;
  return std::move(*this);
}

void ZOmega::norm(BigInt& u, BigInt& v) const {
  if (qadd::detail::smallFastPathsEnabled()) {
    SmallZ z;
    if (detail::load(*this, z, kMulBits)) {
      ++detail::smallPathStats().hits;
      u = BigInt::fromInt128(I128{z.a} * z.a + I128{z.b} * z.b + I128{z.c} * z.c +
                             I128{z.d} * z.d);
      v = BigInt::fromInt128(I128{z.a} * z.b + I128{z.b} * z.c + I128{z.c} * z.d -
                             I128{z.d} * z.a);
      return;
    }
    ++detail::smallPathStats().spills;
  }
  // N(z) = z*conj(z) = (a^2+b^2+c^2+d^2) + (ab + bc + cd - da) * sqrt(2).
  u = BigInt{};
  u.addMul(a_, a_).addMul(b_, b_).addMul(c_, c_).addMul(d_, d_);
  v = BigInt{};
  v.addMul(a_, b_).addMul(b_, c_).addMul(c_, d_).subMul(d_, a_);
}

BigInt ZOmega::euclideanValue() const {
  if (qadd::detail::smallFastPathsEnabled()) {
    SmallZ z;
    if (detail::load(*this, z, kEuclideanBits)) {
      ++detail::smallPathStats().hits;
      const I128 u = I128{z.a} * z.a + I128{z.b} * z.b + I128{z.c} * z.c + I128{z.d} * z.d;
      const I128 v = I128{z.a} * z.b + I128{z.b} * z.c + I128{z.c} * z.d - I128{z.d} * z.a;
      const I128 value = u * u - 2 * (v * v);
      return BigInt::fromInt128(value < 0 ? -value : value);
    }
    ++detail::smallPathStats().spills;
  }
  BigInt u;
  BigInt v;
  norm(u, v);
  return (u * u - (v * v).shiftLeft(1)).abs();
}

std::complex<double> ZOmega::toComplex() const {
  // w = (1+i)/sqrt2, w^2 = i, w^3 = (-1+i)/sqrt2.
  constexpr double invSqrt2 = 0.70710678118654752440;
  const double av = a_.toDouble();
  const double bv = b_.toDouble();
  const double cv = c_.toDouble();
  const double dv = d_.toDouble();
  return {dv + (cv - av) * invSqrt2, bv + (cv + av) * invSqrt2};
}

std::string ZOmega::toString() const {
  if (isZero()) {
    return "0";
  }
  std::ostringstream os;
  bool first = true;
  const auto term = [&](const BigInt& coefficient, const char* basis) {
    if (coefficient.isZero()) {
      return;
    }
    if (!first) {
      os << (coefficient.isNegative() ? " - " : " + ");
    } else if (coefficient.isNegative()) {
      os << "-";
    }
    first = false;
    const BigInt magnitude = coefficient.abs();
    if (!magnitude.isOne() || basis[0] == '\0') {
      os << magnitude.toString();
    }
    os << basis;
  };
  term(a_, "w3");
  term(b_, "w2");
  term(c_, "w");
  term(d_, "");
  return os.str();
}

std::size_t ZOmega::hash() const noexcept {
  std::size_t h = a_.hash();
  h = h * 31 + b_.hash();
  h = h * 31 + c_.hash();
  h = h * 31 + d_.hash();
  return h;
}

std::ostream& operator<<(std::ostream& os, const ZOmega& value) {
  return os << value.toString();
}

} // namespace qadd::alg
