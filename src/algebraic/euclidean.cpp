#include "algebraic/euclidean.hpp"

#include "algebraic/small_kernels.hpp"

#include <array>
#include <cassert>
#include <utility>

namespace qadd::alg {

namespace {

using detail::I128;
using detail::SmallZ;

/// Bound for the Euclidean-division inner loop.  With |coefficients| < 2^30:
/// the product z1 * conj(z2) and the norm components u, v of z2 stay below
/// 4 * 2^60 = 2^62; the rationalized numerator (a four-term sum of products
/// of those) stays below 4 * 2^124 = 2^126; and |den| = |u^2 - 2 v^2| stays
/// below 2^125 — everything fits a signed int128.
constexpr std::size_t kQuotientBits = 30;

/// Word-kernel version of rationalizedQuotient + divRound.  Returns false
/// when the operands exceed the bound (or the general path must run).
bool euclideanQuotientSmall(const ZOmega& z1, const ZOmega& z2, ZOmega& out) {
  SmallZ x;
  SmallZ y;
  if (!detail::load(z1, x, kQuotientBits) || !detail::load(z2, y, kQuotientBits)) {
    return false;
  }
  ++detail::smallPathStats().hits;
  // p = z1 * conj(z2), conj(z2) = (-c2, -b2, -a2, d2).
  const auto mul = [](const SmallZ& l, const SmallZ& r) {
    return SmallZ{
        static_cast<std::int64_t>(l.a * r.d + l.b * r.c + l.c * r.b + l.d * r.a),
        static_cast<std::int64_t>(l.b * r.d + l.c * r.c + l.d * r.b - l.a * r.a),
        static_cast<std::int64_t>(l.c * r.d + l.d * r.c - l.a * r.b - l.b * r.a),
        static_cast<std::int64_t>(l.d * r.d - l.a * r.c - l.b * r.b - l.c * r.a)};
  };
  const SmallZ conj2{-y.c, -y.b, -y.a, y.d};
  const SmallZ p = mul(x, conj2);
  // N(z2) = u + v sqrt2.
  const std::int64_t u = y.a * y.a + y.b * y.b + y.c * y.c + y.d * y.d;
  const std::int64_t v = y.a * y.b + y.b * y.c + y.c * y.d - y.d * y.a;
  // numerator = p * (v w^3 - v w + u);  denominator = u^2 - 2 v^2.
  const SmallZ uMinusVSqrt2{v, 0, -v, u};
  const I128 na = I128{p.a} * uMinusVSqrt2.d + I128{p.b} * uMinusVSqrt2.c +
                  I128{p.c} * uMinusVSqrt2.b + I128{p.d} * uMinusVSqrt2.a;
  const I128 nb = I128{p.b} * uMinusVSqrt2.d + I128{p.c} * uMinusVSqrt2.c +
                  I128{p.d} * uMinusVSqrt2.b - I128{p.a} * uMinusVSqrt2.a;
  const I128 nc = I128{p.c} * uMinusVSqrt2.d + I128{p.d} * uMinusVSqrt2.c -
                  I128{p.a} * uMinusVSqrt2.b - I128{p.b} * uMinusVSqrt2.a;
  const I128 nd = I128{p.d} * uMinusVSqrt2.d - I128{p.a} * uMinusVSqrt2.c -
                  I128{p.b} * uMinusVSqrt2.b - I128{p.c} * uMinusVSqrt2.a;
  const I128 den = I128{u} * u - 2 * (I128{v} * v);
  out = ZOmega{BigInt::fromInt128(detail::divRoundI128(na, den)),
               BigInt::fromInt128(detail::divRoundI128(nb, den)),
               BigInt::fromInt128(detail::divRoundI128(nc, den)),
               BigInt::fromInt128(detail::divRoundI128(nd, den))};
  return true;
}

/// Numerator and (rational, possibly negative) denominator of z1/z2 so that
/// z1/z2 = numerator / denominator with numerator in Z[omega], denominator in Z.
void rationalizedQuotient(const ZOmega& z1, const ZOmega& z2, ZOmega& numerator,
                          BigInt& denominator) {
  BigInt u;
  BigInt v;
  z2.norm(u, v);
  const ZOmega uMinusVSqrt2{v, BigInt{0}, -v, u};
  numerator = z1 * z2.conj() * uMinusVSqrt2;
  denominator = u * u - (v * v).shiftLeft(1);
}

/// The paper's norm-pair key (property (b)): with N(z) = u + v sqrt2, the
/// lexicographic minimum of the two derived pairs (|u|,|v|) and (|2v|,|u|)
/// after factoring powers of two out of each pair.
struct NormPairKey {
  BigInt first;
  BigInt second;

  friend bool operator==(const NormPairKey&, const NormPairKey&) = default;
  friend bool operator<(const NormPairKey& lhs, const NormPairKey& rhs) {
    if (lhs.first != rhs.first) {
      return lhs.first < rhs.first;
    }
    return lhs.second < rhs.second;
  }
};

NormPairKey reducePair(BigInt x, BigInt y) {
  if (x.isZero() && y.isZero()) {
    return {std::move(x), std::move(y)};
  }
  const auto evenish = [](const BigInt& value) { return value.isZero() || value.isEven(); };
  while (evenish(x) && evenish(y)) {
    x = x.shiftRight(1);
    y = y.shiftRight(1);
  }
  return {std::move(x), std::move(y)};
}

NormPairKey normPairKey(const ZOmega& z) {
  BigInt u;
  BigInt v;
  z.norm(u, v);
  NormPairKey p1 = reducePair(u.abs(), v.abs());
  NormPairKey p2 = reducePair(v.abs().shiftLeft(1), u.abs());
  return p1 < p2 ? p1 : p2;
}

/// Divide by sqrt2 as often as possible (stays in the associate class since
/// sqrt2 is a unit of D[omega]).
ZOmega stripSqrt2(ZOmega z) {
  while (!z.isZero() && z.divisibleBySqrt2()) {
    z = std::move(z).divideBySqrt2();
  }
  return z;
}

/// Signed coefficient tuple comparison, used as the final deterministic
/// tie-break.
bool coefficientsLess(const ZOmega& lhs, const ZOmega& rhs) {
  if (lhs.a() != rhs.a()) {
    return lhs.a() < rhs.a();
  }
  if (lhs.b() != rhs.b()) {
    return lhs.b() < rhs.b();
  }
  if (lhs.c() != rhs.c()) {
    return lhs.c() < rhs.c();
  }
  return lhs.d() < rhs.d();
}

/// Property (c): pick among the eight rotations z * omega^j the one whose
/// absolute coefficient quadruple is lexicographically minimal, preferring a
/// positive d and finally the smallest signed tuple.
ZOmega rotationCanonical(const ZOmega& z) {
  ZOmega best = z;
  ZOmega current = z;
  const auto betterThan = [](const ZOmega& x, const ZOmega& y) {
    const std::array<BigInt, 4> kx{x.a().abs(), x.b().abs(), x.c().abs(), x.d().abs()};
    const std::array<BigInt, 4> ky{y.a().abs(), y.b().abs(), y.c().abs(), y.d().abs()};
    if (kx != ky) {
      return kx < ky;
    }
    const int sx = x.d().sign();
    const int sy = y.d().sign();
    if (sx != sy) {
      return sx > sy; // positive d preferred
    }
    return coefficientsLess(x, y);
  };
  for (int j = 1; j < 8; ++j) {
    current = current.timesOmega();
    if (betterThan(current, best)) {
      best = current;
    }
  }
  return best;
}

} // namespace

ZOmega euclideanQuotient(const ZOmega& z1, const ZOmega& z2) {
  assert(!z2.isZero());
  if (qadd::detail::smallFastPathsEnabled()) {
    ZOmega quotient;
    if (euclideanQuotientSmall(z1, z2, quotient)) {
      return quotient;
    }
    ++detail::smallPathStats().spills;
  }
  ZOmega numerator;
  BigInt denominator;
  rationalizedQuotient(z1, z2, numerator, denominator);
  return {BigInt::divRound(numerator.a(), denominator),
          BigInt::divRound(numerator.b(), denominator),
          BigInt::divRound(numerator.c(), denominator),
          BigInt::divRound(numerator.d(), denominator)};
}

ZOmega euclideanRemainder(const ZOmega& z1, const ZOmega& z2) {
  return z1 - euclideanQuotient(z1, z2) * z2;
}

ZOmega gcdZOmega(ZOmega z1, ZOmega z2) {
  while (!z2.isZero()) {
    ZOmega remainder = euclideanRemainder(z1, z2);
    z1 = std::move(z2);
    z2 = std::move(remainder);
  }
  return z1;
}

bool tryExactDivide(const ZOmega& z1, const ZOmega& z2, ZOmega& quotient) {
  assert(!z2.isZero());
  ZOmega numerator;
  BigInt denominator;
  rationalizedQuotient(z1, z2, numerator, denominator);
  BigInt q;
  BigInt r;
  std::array<BigInt, 4> result;
  const std::array<const BigInt*, 4> coefficients{&numerator.a(), &numerator.b(),
                                                  &numerator.c(), &numerator.d()};
  for (std::size_t i = 0; i < 4; ++i) {
    BigInt::divMod(*coefficients[i], denominator, q, r);
    if (!r.isZero()) {
      return false;
    }
    result[i] = std::move(q);
  }
  quotient = ZOmega{std::move(result[0]), std::move(result[1]), std::move(result[2]),
                    std::move(result[3])};
  return true;
}

ZOmega canonicalAssociate(const QOmega& z) {
  assert(!z.isZero());
  // Property (a): the canonical QOmega numerator is already the k = 0
  // representative of the associate class (minimal denominator exponent).
  ZOmega n = z.num();

  // Property (b): greedy descent along the unit line generated by
  // (omega +- 1) (norm factors 2 +- sqrt2), stripping sqrt2 powers.
  const ZOmega unitPlus = ZOmega::omega() + ZOmega::one();
  const ZOmega unitMinus = ZOmega::omega() - ZOmega::one();
  NormPairKey key = normPairKey(n);
  while (true) {
    ZOmega up = stripSqrt2(n * unitPlus);
    ZOmega down = stripSqrt2(n * unitMinus);
    NormPairKey keyUp = normPairKey(up);
    NormPairKey keyDown = normPairKey(down);
    if (keyUp < key && !(keyDown < keyUp)) {
      n = std::move(up);
      key = std::move(keyUp);
    } else if (keyDown < key) {
      n = std::move(down);
      key = std::move(keyDown);
    } else {
      // Local minimum.  Adjacent associates may tie on the norm-pair key;
      // resolve the plateau deterministically through the rotation canonical
      // form so the result depends only on the associate class.
      ZOmega best = rotationCanonical(n);
      if (keyUp == key) {
        ZOmega candidate = rotationCanonical(up);
        if (coefficientsLess(candidate, best)) {
          best = std::move(candidate);
        }
      }
      if (keyDown == key) {
        ZOmega candidate = rotationCanonical(down);
        if (coefficientsLess(candidate, best)) {
          best = std::move(candidate);
        }
      }
      return best;
    }
  }
}

QOmega canonicalAssociateUnit(const QOmega& z) {
  return QOmega{canonicalAssociate(z)} / z;
}

ZOmega gcdDyadic(std::span<const QOmega> values) {
  ZOmega g;
  for (const QOmega& value : values) {
    if (value.isZero()) {
      continue;
    }
    assert(value.isDyadic());
    // The Z[omega] representative of the associate class of the value is its
    // canonical numerator (sqrt2 powers are units and do not affect GCDs).
    g = g.isZero() ? value.num() : gcdZOmega(g, value.num());
    if (g.euclideanValue().isOne()) {
      break; // the GCD is a unit; no smaller it can get
    }
  }
  if (g.isZero()) {
    return g;
  }
  return canonicalAssociate(QOmega{g});
}

} // namespace qadd::alg
