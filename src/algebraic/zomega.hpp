/// \file zomega.hpp
/// The ring Z[omega] of cyclotomic integers for omega = e^{i*pi/4}.
///
/// Every element is written on the integral basis {omega^3, omega^2, omega, 1}
/// as  z = a*omega^3 + b*omega^2 + c*omega + d  with BigInt coefficients.
/// This is the integer layer underneath the paper's D[omega] / Q[omega]
/// representation (Section IV-A): sqrt(2) = omega - omega^3 and i = omega^2
/// live here, and the Euclidean structure of Z[omega] (Section IV-B, option 2)
/// is what makes GCD-based normalization possible.
#pragma once

#include "bigint/bigint.hpp"

#include <complex>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace qadd::alg {

/// An element of Z[omega], omega = (1+i)/sqrt(2).
///
/// Regular value type with exact ring arithmetic.  The basis powers satisfy
/// omega^4 = -1, which drives all the multiplication identities below.
class ZOmega {
public:
  /// Zero.
  ZOmega() = default;

  /// The rational integer d.
  explicit ZOmega(BigInt d) : d_(std::move(d)) {}

  /// a*omega^3 + b*omega^2 + c*omega + d.
  ZOmega(BigInt a, BigInt b, BigInt c, BigInt d)
      : a_(std::move(a)), b_(std::move(b)), c_(std::move(c)), d_(std::move(d)) {}

  // -- named constants --------------------------------------------------------

  [[nodiscard]] static ZOmega zero() { return {}; }
  [[nodiscard]] static ZOmega one() { return ZOmega{BigInt{1}}; }
  /// omega = e^{i pi/4}.
  [[nodiscard]] static ZOmega omega() { return {BigInt{0}, BigInt{0}, BigInt{1}, BigInt{0}}; }
  /// i = omega^2.
  [[nodiscard]] static ZOmega imaginaryUnit() { return {BigInt{0}, BigInt{1}, BigInt{0}, BigInt{0}}; }
  /// sqrt(2) = omega - omega^3.
  [[nodiscard]] static ZOmega sqrt2() { return {BigInt{-1}, BigInt{0}, BigInt{1}, BigInt{0}}; }

  // -- observers ---------------------------------------------------------------

  [[nodiscard]] const BigInt& a() const noexcept { return a_; }
  [[nodiscard]] const BigInt& b() const noexcept { return b_; }
  [[nodiscard]] const BigInt& c() const noexcept { return c_; }
  [[nodiscard]] const BigInt& d() const noexcept { return d_; }

  [[nodiscard]] bool isZero() const noexcept {
    return a_.isZero() && b_.isZero() && c_.isZero() && d_.isZero();
  }
  [[nodiscard]] bool isOne() const noexcept {
    return a_.isZero() && b_.isZero() && c_.isZero() && d_.isOne();
  }

  /// Largest coefficient bit width; the quantity whose growth explains the
  /// paper's GSE run-time blow-up (Section V-B).
  [[nodiscard]] std::size_t maxCoefficientBits() const noexcept;

  // -- ring arithmetic ----------------------------------------------------------

  [[nodiscard]] ZOmega operator-() const;
  /// Flip every coefficient's sign in place.
  void negate() noexcept;
  ZOmega& operator+=(const ZOmega& rhs);
  ZOmega& operator-=(const ZOmega& rhs);
  ZOmega& operator*=(const ZOmega& rhs) {
    *this = *this * rhs;
    return *this;
  }

  friend ZOmega operator+(ZOmega lhs, const ZOmega& rhs) {
    lhs += rhs;
    return lhs;
  }
  friend ZOmega operator-(ZOmega lhs, const ZOmega& rhs) {
    lhs -= rhs;
    return lhs;
  }
  /// The product, each coefficient built in one accumulator.
  friend ZOmega operator*(const ZOmega& lhs, const ZOmega& rhs);

  /// Multiply by a rational integer.
  [[nodiscard]] ZOmega scaled(const BigInt& factor) const;

  /// Divide every coefficient by an odd integer that divides them all (see
  /// BigInt::divExact).
  void divExact(const BigInt& divisor);

  /// Complex conjugate: (a,b,c,d) -> (-c,-b,-a,d).
  [[nodiscard]] ZOmega conj() const;

  /// The sqrt(2) |-> -sqrt(2) automorphism (omega |-> omega^3):
  /// (a,b,c,d) -> (c,-b,a,d).
  [[nodiscard]] ZOmega sqrt2Conj() const;

  /// Multiply by omega (a cyclic coefficient rotation with one sign flip).
  [[nodiscard]] ZOmega timesOmega() const;

  /// Multiply by sqrt(2) = omega - omega^3.  The rvalue form reuses the
  /// coefficients' storage: `z = std::move(z).timesSqrt2()`.
  [[nodiscard]] ZOmega timesSqrt2() const& { return ZOmega{*this}.timesSqrt2(); }
  [[nodiscard]] ZOmega timesSqrt2() &&;

  /// True iff the value is divisible by sqrt(2) in Z[omega]; this is exactly
  /// the paper's minimality criterion from Algorithm 1:
  /// a == c (mod 2) and b == d (mod 2).
  [[nodiscard]] bool divisibleBySqrt2() const noexcept;

  /// Exact division by sqrt(2); the rvalue form works in place like
  /// timesSqrt2's. \pre divisibleBySqrt2()
  [[nodiscard]] ZOmega divideBySqrt2() const& { return ZOmega{*this}.divideBySqrt2(); }
  [[nodiscard]] ZOmega divideBySqrt2() &&;

  /// Squared complex norm N(z) = z * conj(z) = u + v*sqrt(2), u,v in Z.
  void norm(BigInt& u, BigInt& v) const;

  /// Euclidean function E(z) = |u^2 - 2 v^2| = |N_{Q[omega]/Q}(z)|; it is
  /// multiplicative, zero only at zero, and makes Z[omega] a Euclidean ring
  /// (Section IV-B).
  [[nodiscard]] BigInt euclideanValue() const;

  /// Closest complex double.
  [[nodiscard]] std::complex<double> toComplex() const;

  /// Human-readable form such as "2w3 - w + 5".
  [[nodiscard]] std::string toString() const;

  friend bool operator==(const ZOmega& lhs, const ZOmega& rhs) noexcept = default;

  [[nodiscard]] std::size_t hash() const noexcept;

  friend std::ostream& operator<<(std::ostream& os, const ZOmega& value);

private:
  BigInt a_;
  BigInt b_;
  BigInt c_;
  BigInt d_;
};

} // namespace qadd::alg

template <> struct std::hash<qadd::alg::ZOmega> {
  std::size_t operator()(const qadd::alg::ZOmega& value) const noexcept { return value.hash(); }
};
