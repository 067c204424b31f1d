/// \file numeric_system.hpp
/// The state-of-the-art *numerical* weight system for QMDDs (the baseline the
/// paper evaluates): IEEE-754 floating-point complex numbers interned in a
/// tolerance table, with the two normalization flavors from Section II-B
/// (divide by the leftmost non-zero weight, or by the leftmost weight of
/// maximal magnitude as proposed in [29]).
///
/// Templated on the float type: `NumericSystem` (double) is the paper's
/// baseline; `ExtendedNumericSystem` (long double, 64-bit mantissa on x86)
/// backs the precision-scaling experiment of Section V-A's closing remark —
/// a wider mantissa lowers the error floor but can never reach zero.
#pragma once

#include "core/computed_table.hpp"
#include "core/dd_node.hpp"
#include "numeric/complex_table.hpp"
#include "numeric/complex_value.hpp"
#include "obs/stats.hpp"

#include <cassert>
#include <complex>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>

namespace qadd::dd {

template <class FloatT> class BasicNumericSystem {
public:
  using Weight = num::ComplexRef;
  using Float = FloatT;
  using Value = num::BasicComplexValue<FloatT>;
  static constexpr bool kExact = false;

  enum class Normalization { LeftmostNonzero, MaxMagnitude };

  struct Config {
    /// Tolerance epsilon for unifying weights (the paper's central knob).
    double epsilon = 0.0;
    Normalization normalization = Normalization::LeftmostNonzero;
  };

  explicit BasicNumericSystem(Config config)
      : config_(config), table_(static_cast<FloatT>(config.epsilon)) {}

  [[nodiscard]] Weight zero() const { return table_.zeroRef(); }
  [[nodiscard]] Weight one() const { return table_.oneRef(); }
  [[nodiscard]] bool isZero(Weight w) const { return w == table_.zeroRef(); }
  [[nodiscard]] bool isOne(Weight w) const { return w == table_.oneRef(); }

  [[nodiscard]] Weight add(Weight a, Weight b) {
    return cachedOp(addCache_, commutativeKey(a, b),
                    [&] { return table_.lookup(table_.value(a) + table_.value(b)); });
  }
  [[nodiscard]] Weight sub(Weight a, Weight b) {
    return cachedOp(subCache_, WeightPairKey{a, b},
                    [&] { return table_.lookup(table_.value(a) - table_.value(b)); });
  }
  [[nodiscard]] Weight mul(Weight a, Weight b) {
    if (isZero(a) || isZero(b)) {
      return zero();
    }
    if (isOne(a)) {
      return b;
    }
    if (isOne(b)) {
      return a;
    }
    return cachedOp(mulCache_, commutativeKey(a, b),
                    [&] { return table_.lookup(table_.value(a) * table_.value(b)); });
  }
  [[nodiscard]] Weight div(Weight a, Weight b) {
    if (isZero(a)) {
      return zero();
    }
    if (isOne(b)) {
      return a;
    }
    return cachedOp(divCache_, WeightPairKey{a, b},
                    [&] { return table_.lookup(table_.value(a) / table_.value(b)); });
  }
  [[nodiscard]] Weight neg(Weight a) {
    const auto v = table_.value(a);
    return table_.lookup({-v.re, -v.im});
  }
  [[nodiscard]] Weight conj(Weight a) { return table_.lookup(table_.value(a).conj()); }

  /// Normalize the outgoing weights of a node in place and return the factor
  /// to propagate to incoming edges.  \pre at least one weight is non-zero.
  Weight normalize(std::span<Weight> weights) {
    std::size_t pivot = weights.size();
    if (config_.normalization == Normalization::LeftmostNonzero) {
      for (std::size_t i = 0; i < weights.size(); ++i) {
        if (!isZero(weights[i])) {
          pivot = i;
          break;
        }
      }
    } else {
      FloatT best = -1;
      for (std::size_t i = 0; i < weights.size(); ++i) {
        if (isZero(weights[i])) {
          continue;
        }
        const FloatT magnitude = table_.value(weights[i]).squaredMagnitude();
        if (magnitude > best) { // strictly greater keeps the leftmost among equals
          best = magnitude;
          pivot = i;
        }
      }
    }
    assert(pivot < weights.size() && "normalize requires a non-zero weight");
    const Weight factor = weights[pivot];
    if (isOne(factor)) {
      return factor;
    }
    for (std::size_t i = 0; i < weights.size(); ++i) {
      if (isZero(weights[i])) {
        continue;
      }
      // The pivot divides to exactly one by construction; forcing it avoids
      // 0.999999... pivots from floating-point division.
      weights[i] = i == pivot ? one() : div(weights[i], factor);
    }
    return factor;
  }

  /// Raw interned component pair of a weight handle, at full FloatT
  /// precision.  The qadd::io snapshot codecs use this (instead of
  /// toComplex, which narrows to double) so serialized weights round-trip
  /// bit-exactly.
  [[nodiscard]] Value valueOf(Weight w) const { return table_.value(w); }
  /// Intern a raw component pair (the ordinary ε-tolerance lookup).
  [[nodiscard]] Weight fromValue(const Value& v) { return table_.lookup(v); }

  [[nodiscard]] std::complex<double> toComplex(Weight w) const {
    const auto v = table_.value(w);
    return {static_cast<double>(v.re), static_cast<double>(v.im)};
  }
  [[nodiscard]] Weight fromComplex(std::complex<FloatT> z) {
    return table_.lookup(Value::fromStd(z));
  }

  /// True iff memoized results of this system's operations may differ from
  /// a later recomputation (tolerance-mode interning is insertion-order
  /// dependent).  The package keeps its operation caches lossless in that
  /// case so a result, once computed, is never recomputed.
  [[nodiscard]] bool memoizationOrderDependent() const { return !table_.exactMode(); }

  [[nodiscard]] std::size_t distinctValues() const { return table_.size(); }
  /// Interface parity with AlgebraicSystem for the timeline sampler: the
  /// numeric table never touches the algebraic word kernels.
  [[nodiscard]] std::uint64_t smallPathHits() const { return 0; }
  [[nodiscard]] std::uint64_t smallPathSpills() const { return 0; }
  /// Bit width of the representation (fixed for floats); interface parity
  /// with AlgebraicSystem.
  [[nodiscard]] std::size_t maxBits() const { return sizeof(FloatT) * 8; }

  /// Telemetry view of the ε-table (entry count, near-miss unifications,
  /// bucket occupancy); see obs::WeightTableStats.
  void collectObs(obs::WeightTableStats& out) const {
    out.system = describe();
    out.entries = table_.size();
    out.nearMissUnifications = table_.nearMissUnifications();
    out.bucketOccupancy = table_.bucketOccupancyHistogram();
    out.bitWidthHistogram.clear();
    out.opCache = opStats_;
    out.smallPathHits = 0; // word kernels are an algebraic-layer concern
    out.smallPathSpills = 0;
  }

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] std::string describe() const {
    std::ostringstream os;
    os << "numeric" << (sizeof(FloatT) > 8 ? "-ext" : "") << "(eps=" << config_.epsilon << ", "
       << (config_.normalization == Normalization::LeftmostNonzero ? "leftmost" : "max-magnitude")
       << ")";
    return os.str();
  }

private:
  static constexpr std::size_t kOpCacheEntries = std::size_t{1} << 16U;
  using OpCache = ComputedTable<WeightPairKey, Weight, kOpCacheEntries>;

  [[nodiscard]] static WeightPairKey commutativeKey(Weight a, Weight b) {
    return a <= b ? WeightPairKey{a, b} : WeightPairKey{b, a};
  }

  /// Memoize a weight operation — but only under bit-exact interning.  With
  /// a tolerance, the ref a value unifies onto depends on what was interned
  /// in the meantime (the 3x3 grid scan can match a later entry), so a
  /// cached result could differ from a recomputation and perturb the
  /// diagrams; the tolerant path always recomputes.
  template <class Compute>
  [[nodiscard]] Weight cachedOp(OpCache& cache, WeightPairKey key, Compute&& compute) {
    if (!table_.exactMode()) {
      return compute();
    }
    Weight hit;
    if (cache.lookup(key, hit)) {
      opStats_.hits.inc();
      return hit;
    }
    opStats_.misses.inc();
    const Weight result = compute();
    if (cache.insert(key, result)) {
      opStats_.evictions.inc();
    }
    return result;
  }

  Config config_;
  num::BasicComplexTable<FloatT> table_;
  OpCache addCache_;
  OpCache subCache_;
  OpCache mulCache_;
  OpCache divCache_;
  obs::CacheStats opStats_;
};

/// The paper's baseline: IEEE-754 double precision.
using NumericSystem = BasicNumericSystem<double>;
/// Extended precision (x87 long double): the "scaling up the bit width"
/// thought experiment of Section V-A, made runnable.
using ExtendedNumericSystem = BasicNumericSystem<long double>;

} // namespace qadd::dd
