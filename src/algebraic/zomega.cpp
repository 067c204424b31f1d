#include "algebraic/zomega.hpp"

#include "algebraic/small_kernels.hpp"

#include <cassert>
#include <cmath>
#include <ostream>
#include <sstream>

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

ZOmega& ZOmega::operator*=(const ZOmega& rhs) {
  if (qadd::detail::smallFastPathsEnabled()) {
    SmallZ x;
    SmallZ y;
    if (detail::load(*this, x, kMulBits) && detail::load(rhs, y, kMulBits)) {
      // Four products of < 2^62 magnitudes sum to < 2^126: no int128 overflow.
      ++detail::smallPathStats().hits;
      const I128 a = I128{x.a} * y.d + I128{x.b} * y.c + I128{x.c} * y.b + I128{x.d} * y.a;
      const I128 b = I128{x.b} * y.d + I128{x.c} * y.c + I128{x.d} * y.b - I128{x.a} * y.a;
      const I128 c = I128{x.c} * y.d + I128{x.d} * y.c - I128{x.a} * y.b - I128{x.b} * y.a;
      const I128 d = I128{x.d} * y.d - I128{x.a} * y.c - I128{x.b} * y.b - I128{x.c} * y.a;
      a_ = BigInt::fromInt128(a);
      b_ = BigInt::fromInt128(b);
      c_ = BigInt::fromInt128(c);
      d_ = BigInt::fromInt128(d);
      return *this;
    }
    ++detail::smallPathStats().spills;
  }
  // Expand on the basis {w^3, w^2, w, 1} using w^4 = -1:
  //   w^3*w^3 = -w^2, w^3*w^2 = -w, w^3*w = -1, w^2*w^2 = -1, w^2*w = w^3.
  const BigInt& a1 = a_;
  const BigInt& b1 = b_;
  const BigInt& c1 = c_;
  const BigInt& d1 = d_;
  const BigInt& a2 = rhs.a_;
  const BigInt& b2 = rhs.b_;
  const BigInt& c2 = rhs.c_;
  const BigInt& d2 = rhs.d_;
  BigInt a = a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2;
  BigInt b = b1 * d2 + c1 * c2 + d1 * b2 - a1 * a2;
  BigInt c = c1 * d2 + d1 * c2 - a1 * b2 - b1 * a2;
  BigInt d = d1 * d2 - a1 * c2 - b1 * b2 - c1 * a2;
  a_ = std::move(a);
  b_ = std::move(b);
  c_ = std::move(c);
  d_ = std::move(d);
  return *this;
}

ZOmega ZOmega::scaled(const BigInt& factor) const {
  return {a_ * factor, b_ * factor, c_ * factor, d_ * factor};
}

ZOmega ZOmega::conj() const { return {-c_, -b_, -a_, d_}; }

ZOmega ZOmega::sqrt2Conj() const { return {c_, -b_, a_, d_}; }

ZOmega ZOmega::timesOmega() const {
  // w*(a w^3 + b w^2 + c w + d) = -a + b w^3 + c w^2 + d w.
  return {b_, c_, d_, -a_};
}

ZOmega ZOmega::timesSqrt2() const {
  // (w - w^3)*(a w^3 + b w^2 + c w + d)
  //   = (b-d) w^3 + (c+a) w^2 + (b+d) w + (c-a).
  return {b_ - d_, c_ + a_, b_ + d_, c_ - a_};
}

bool ZOmega::divisibleBySqrt2() const noexcept {
  return (a_.isOdd() == c_.isOdd()) && (b_.isOdd() == d_.isOdd());
}

ZOmega ZOmega::divideBySqrt2() const {
  assert(divisibleBySqrt2());
  // Inverse of timesSqrt2: solve (b'-d', c'+a', b'+d', c'-a') = (a, b, c, d).
  BigInt a = (b_ - d_).shiftRight(1);
  BigInt b = (a_ + c_).shiftRight(1);
  BigInt c = (b_ + d_).shiftRight(1);
  BigInt d = (c_ - a_).shiftRight(1);
  // shiftRight truncates magnitudes toward zero, which matches exact halving
  // because the preconditions guarantee the sums/differences are even.
  return {std::move(a), std::move(b), std::move(c), std::move(d)};
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
  u = a_ * a_ + b_ * b_ + c_ * c_ + d_ * d_;
  v = a_ * b_ + b_ * c_ + c_ * d_ - d_ * a_;
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
