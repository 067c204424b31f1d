#include "core/algebraic_system.hpp"

#include <algorithm>
#include <array>
#include <cassert>

namespace qadd::dd {

using alg::QOmega;
using alg::ZOmega;

AlgebraicSystem::AlgebraicSystem(Config config) : config_(config) {
  const Weight z = intern(QOmega::zero());
  const Weight o = intern(QOmega::one());
  assert(z == 0 && o == 1);
  (void)z;
  (void)o;
}

AlgebraicSystem::Weight AlgebraicSystem::intern(const QOmega& value) {
  const auto [it, inserted] = pool_.try_emplace(value, static_cast<Weight>(entries_.size()));
  if (inserted) {
    entries_.push_back(&it->first);
    const std::size_t bits = value.maxBits();
    maxBits_ = std::max(maxBits_, bits);
    if constexpr (obs::kEnabled) {
      if (bitWidthHistogram_.size() <= bits) {
        bitWidthHistogram_.resize(bits + 1, 0);
      }
      ++bitWidthHistogram_[bits];
    }
  }
  return it->second;
}

AlgebraicSystem::Weight AlgebraicSystem::add(Weight a, Weight b) {
  if (isZero(a)) {
    return b;
  }
  if (isZero(b)) {
    return a;
  }
  return cachedOp(addCache_, commutativeKey(a, b), [&] { return intern(value(a) + value(b)); });
}

AlgebraicSystem::Weight AlgebraicSystem::sub(Weight a, Weight b) {
  if (isZero(b)) {
    return a;
  }
  return cachedOp(subCache_, WeightPairKey{a, b}, [&] { return intern(value(a) - value(b)); });
}

AlgebraicSystem::Weight AlgebraicSystem::mul(Weight a, Weight b) {
  if (isZero(a) || isZero(b)) {
    return 0;
  }
  if (isOne(a)) {
    return b;
  }
  if (isOne(b)) {
    return a;
  }
  return cachedOp(mulCache_, commutativeKey(a, b), [&] { return intern(value(a) * value(b)); });
}

AlgebraicSystem::Weight AlgebraicSystem::div(Weight a, Weight b) {
  if (isZero(a)) {
    return 0;
  }
  if (isOne(b)) {
    return a;
  }
  return cachedOp(divCache_, WeightPairKey{a, b},
                  [&] { return intern(value(a) * value(inverseOf(b))); });
}

AlgebraicSystem::Weight AlgebraicSystem::inverseOf(Weight w) {
  assert(!isZero(w));
  if (isOne(w)) {
    return 1;
  }
  return cachedOp(invCache_, WeightPairKey{w, w}, [&] { return intern(value(w).inverse()); });
}

AlgebraicSystem::Weight AlgebraicSystem::neg(Weight a) {
  if (isZero(a)) {
    return 0;
  }
  return intern(-value(a));
}

AlgebraicSystem::Weight AlgebraicSystem::conj(Weight a) {
  if (isZero(a)) {
    return 0;
  }
  return intern(value(a).conj());
}

AlgebraicSystem::Weight AlgebraicSystem::normalize(std::span<Weight> weights) {
  std::size_t pivot = weights.size();
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (!isZero(weights[i])) {
      pivot = i;
      break;
    }
  }
  assert(pivot < weights.size() && "normalize requires a non-zero weight");

  Weight factor = 0;
  if (config_.normalization == Normalization::UnitPart) {
    // Experimental: divide by the unit part of the leftmost non-zero weight
    // only.  eta = pivot / canonicalAssociate(pivot) is a D[omega] unit, so
    // every weight stays dyadic and the pivot becomes its canonical
    // associate; non-unit content is left in place (not canonical across
    // scalar multiples — see the header).
    const QOmega pivotValue = value(weights[pivot]);
    const QOmega unit = alg::canonicalAssociateUnit(pivotValue); // pivot*unit canonical
    if (!unit.isOne()) {
      for (Weight& w : weights) {
        if (isZero(w)) {
          continue;
        }
        w = intern(value(w) * unit);
      }
    }
    factor = intern(unit.inverse());
  } else if (config_.normalization == Normalization::QOmegaInverse) {
    // Algorithm 2: divide all weights by the leftmost non-zero one; every
    // non-zero Q[omega] value has an exact inverse.
    factor = weights[pivot];
    if (!isOne(factor)) {
      const QOmega& inverse = value(inverseOf(factor));
      for (std::size_t i = 0; i < weights.size(); ++i) {
        if (isZero(weights[i])) {
          continue;
        }
        weights[i] = i == pivot ? one() : intern(value(weights[i]) * inverse);
      }
    }
  } else {
    // Algorithm 3: determine a GCD of all weights in D[omega], then adjust it
    // by a unit so the leftmost non-zero weight becomes the canonical
    // associate of (leftmost / gcd) — properties (a)-(c) of Section IV-B.
    std::vector<QOmega> values;
    values.reserve(weights.size());
    for (const Weight w : weights) {
      values.push_back(value(w));
    }
    const ZOmega g = alg::gcdDyadic(values);
    assert(!g.isZero());
    const QOmega leftmost = values[pivot];
    const QOmega quotient = leftmost / QOmega{g};
    const ZOmega canonical = alg::canonicalAssociate(quotient);
    // eta = leftmost / canonical: dividing by eta maps the leftmost weight to
    // its canonical associate and keeps every weight inside D[omega].
    const QOmega eta = leftmost / QOmega{canonical};
    factor = intern(eta);
    if (!eta.isOne()) {
      const QOmega& etaInverse = value(inverseOf(factor));
      for (Weight& w : weights) {
        if (isZero(w)) {
          continue;
        }
        const QOmega updated = value(w) * etaInverse;
        assert(updated.isDyadic());
        w = intern(updated);
      }
    }
  }

  std::uint64_t trivial = 0;
  for (const Weight w : weights) {
    if (isZero(w) || isOne(w)) {
      ++trivial;
    }
  }
  weightsProduced_ += weights.size();
  trivialWeightsProduced_ += trivial;
  return factor;
}

std::string AlgebraicSystem::describe() const {
  switch (config_.normalization) {
  case Normalization::QOmegaInverse:
    return "algebraic(Q[w]-inverse)";
  case Normalization::GcdDOmega:
    return "algebraic(D[w]-gcd)";
  case Normalization::UnitPart:
    return "algebraic(unit-part)";
  }
  return "algebraic(?)";
}

} // namespace qadd::dd
