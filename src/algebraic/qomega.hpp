/// \file qomega.hpp
/// The field Q[omega] (and its subring D[omega]) in the paper's canonical form.
///
/// Every value is stored as
///
///     value = (a*w^3 + b*w^2 + c*w + d) / (sqrt(2)^k * e)
///
/// with a,b,c,d in Z (BigInt), k in Z, and e an odd positive integer, subject
/// to the canonicity invariants:
///   (1) k is the *smallest denominator exponent* (paper, Algorithm 1): the
///       numerator is not divisible by sqrt(2), i.e. a != c (mod 2) or
///       b != d (mod 2)  — except for zero, canonically (0,0,0,0)/1, k=0;
///   (2) gcd(a, b, c, d, e) = 1 and e > 0 is odd.
///
/// Values with e == 1 are exactly the elements of D[omega]; these are closed
/// under +,-,* and are all that ever occurs when simulating Clifford+T
/// circuits with GCD normalization.  Division (needed by the Q[omega]-inverse
/// normalization, Algorithm 2) introduces odd denominators e.
///
/// Because the representation is canonical, equality is coefficient-wise and
/// hashing is well defined — the property that lets the algebraic QMDD detect
/// every redundancy that is mathematically present.
#pragma once

#include "algebraic/zomega.hpp"
#include "bigint/bigint.hpp"

#include <complex>
#include <iosfwd>
#include <string>

namespace qadd::alg {

/// Canonical element of Q[omega]; see file comment for the invariants.
class QOmega {
public:
  /// Zero.
  QOmega() = default;

  /// num / (sqrt(2)^k * den); canonicalizes.
  QOmega(ZOmega num, long k, BigInt den);

  /// num / sqrt(2)^k; canonicalizes (a D[omega] value).
  QOmega(ZOmega num, long k) : QOmega(std::move(num), k, BigInt{1}) {}

  /// The cyclotomic integer num itself.
  explicit QOmega(ZOmega num) : QOmega(std::move(num), 0, BigInt{1}) {}

  /// The rational integer value.
  explicit QOmega(std::int64_t value) : QOmega(ZOmega{BigInt{value}}, 0, BigInt{1}) {}

  // -- named constants --------------------------------------------------------

  [[nodiscard]] static QOmega zero() { return {}; }
  [[nodiscard]] static QOmega one() { return QOmega{1}; }
  [[nodiscard]] static QOmega omega() { return QOmega{ZOmega::omega()}; }
  [[nodiscard]] static QOmega imaginaryUnit() { return QOmega{ZOmega::imaginaryUnit()}; }
  [[nodiscard]] static QOmega sqrt2() { return QOmega{ZOmega::sqrt2()}; }
  /// 1/sqrt(2), the Hadamard factor; canonical form (0,0,0,1)/sqrt(2)^1.
  [[nodiscard]] static QOmega invSqrt2() { return {ZOmega::one(), 1}; }
  /// omega^p for any integer p (period 8).
  [[nodiscard]] static QOmega omegaPower(long p);

  // -- observers ---------------------------------------------------------------

  [[nodiscard]] const ZOmega& num() const noexcept { return num_; }
  [[nodiscard]] long k() const noexcept { return k_; }
  [[nodiscard]] const BigInt& den() const noexcept { return den_; }

  [[nodiscard]] bool isZero() const noexcept { return num_.isZero(); }
  [[nodiscard]] bool isOne() const noexcept {
    return num_.isOne() && k_ == 0 && den_.isOne();
  }
  /// True iff the value lies in D[omega] (denominator e == 1).
  [[nodiscard]] bool isDyadic() const noexcept { return den_.isOne(); }

  /// Largest bit width across numerator coefficients and denominator — the
  /// cost driver of algebraic arithmetic (paper, Section V-B).
  [[nodiscard]] std::size_t maxBits() const noexcept;

  // -- field arithmetic ---------------------------------------------------------

  [[nodiscard]] QOmega operator-() const;
  QOmega& operator+=(const QOmega& rhs);
  QOmega& operator-=(const QOmega& rhs);
  QOmega& operator*=(const QOmega& rhs) {
    *this = *this * rhs;
    return *this;
  }
  /// Exact division. \throws std::domain_error when rhs is zero.
  QOmega& operator/=(const QOmega& rhs);

  friend QOmega operator+(QOmega lhs, const QOmega& rhs) {
    lhs += rhs;
    return lhs;
  }
  friend QOmega operator-(QOmega lhs, const QOmega& rhs) {
    lhs -= rhs;
    return lhs;
  }
  /// The canonical product, built from the operands without copying either.
  friend QOmega operator*(const QOmega& lhs, const QOmega& rhs);
  friend QOmega operator/(QOmega lhs, const QOmega& rhs) {
    lhs /= rhs;
    return lhs;
  }

  /// Multiplicative inverse via the squared-norm construction of Section IV-B:
  /// 1/z = conj(z) / N(z) with 1/N(z) = (u - v sqrt2)/(u^2 - 2 v^2).
  /// \throws std::domain_error for zero.
  [[nodiscard]] QOmega inverse() const;

  [[nodiscard]] QOmega conj() const;

  /// Squared magnitude |z|^2 as an exact (real, non-negative) Q[omega] value.
  [[nodiscard]] QOmega squaredMagnitude() const { return *this * conj(); }

  /// Closest complex double (safe for huge coefficients via scaled ratios).
  [[nodiscard]] std::complex<double> toComplex() const;

  /// Constructive witness of the density of D[omega] in C (Section IV-A of
  /// the paper): the dyadic-grid approximation of `z` with 2^-bits
  /// resolution per component (error <= 2^-bits per real/imaginary part).
  [[nodiscard]] static QOmega approximate(std::complex<double> z, unsigned bits);

  /// e.g. "(w + 1)/(sqrt2^3 * 5)".
  [[nodiscard]] std::string toString() const;

  friend bool operator==(const QOmega& lhs, const QOmega& rhs) noexcept = default;

  [[nodiscard]] std::size_t hash() const noexcept;

  friend std::ostream& operator<<(std::ostream& os, const QOmega& value);

private:
  void canonicalize();
  /// int64 kernel for canonicalize() (Algorithm 1): sign-fix + 2-folding of
  /// the denominator, sqrt2 divisions, and odd-content cancellation on
  /// machine words.  Returns false (leaving *this untouched) when a
  /// coefficient exceeds the kernel bound.
  /// \pre !num_.isZero() && !den_.isZero()
  bool canonicalizeSmall();

  ZOmega num_;
  long k_ = 0;
  BigInt den_{1};
};

} // namespace qadd::alg

template <> struct std::hash<qadd::alg::QOmega> {
  std::size_t operator()(const qadd::alg::QOmega& value) const noexcept { return value.hash(); }
};
