/// \file algebraic_system.hpp
/// The paper's contribution: an *algebraic* weight system for QMDDs.  Edge
/// weights are exact elements of Q[omega] in canonical form, interned so that
/// equality/hashing of weights is O(1) and every mathematically present
/// redundancy is detected — perfect accuracy and perfect compactness at once
/// (Section IV).
///
/// Two normalization schemes are provided, mirroring Section IV-B:
///  - QOmegaInverse (Algorithm 2): divide by the leftmost non-zero weight
///    using its exact multiplicative inverse in the field Q[omega];
///  - GcdDOmega (Algorithm 3): stay in D[omega] and divide by the canonical
///    GCD of the weights (adjusted by a unit to the canonical associate).
#pragma once

#include "algebraic/euclidean.hpp"
#include "algebraic/qomega.hpp"
#include "algebraic/small_kernels.hpp"
#include "core/computed_table.hpp"
#include "core/dd_node.hpp"
#include "obs/stats.hpp"

#include <complex>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace qadd::dd {

class AlgebraicSystem {
public:
  using Weight = std::uint32_t;
  static constexpr bool kExact = true;

  /// Normalization schemes:
  ///  - QOmegaInverse: Algorithm 2 (divide by the leftmost non-zero weight;
  ///    exact inverses in the field Q[omega]).  Canonical.  Default.
  ///  - GcdDOmega: Algorithm 3 (divide by the canonical GCD of the weights;
  ///    stays in D[omega]).  Canonical.
  ///  - UnitPart (EXPERIMENTAL, this repository's exploration of the paper's
  ///    future-work direction): extract only the *unit part* of the leftmost
  ///    non-zero weight (sqrt2/omega/(1+sqrt2) factors via the canonical
  ///    associate).  Cheapest of the three and stays in D[omega], but
  ///    canonical only up to non-unit common scalars: equal-up-to-scalar
  ///    subdiagrams may fail to merge, so compactness can degrade and O(1)
  ///    equivalence checking is lost.  Simulated values remain exact.
  enum class Normalization { QOmegaInverse, GcdDOmega, UnitPart };

  struct Config {
    Normalization normalization = Normalization::QOmegaInverse;
  };

  AlgebraicSystem() : AlgebraicSystem(Config{}) {}
  explicit AlgebraicSystem(Config config);

  AlgebraicSystem(const AlgebraicSystem&) = delete;
  AlgebraicSystem& operator=(const AlgebraicSystem&) = delete;

  [[nodiscard]] Weight zero() const { return 0; }
  [[nodiscard]] Weight one() const { return 1; }
  [[nodiscard]] bool isZero(Weight w) const { return w == 0; }
  [[nodiscard]] bool isOne(Weight w) const { return w == 1; }

  [[nodiscard]] Weight add(Weight a, Weight b);
  [[nodiscard]] Weight sub(Weight a, Weight b);
  [[nodiscard]] Weight mul(Weight a, Weight b);
  [[nodiscard]] Weight div(Weight a, Weight b);
  [[nodiscard]] Weight neg(Weight a);
  [[nodiscard]] Weight conj(Weight a);

  /// Normalize the outgoing weights of a node in place and return the factor
  /// to propagate (Algorithm 2 or 3).  \pre at least one weight is non-zero.
  Weight normalize(std::span<Weight> weights);

  [[nodiscard]] const alg::QOmega& value(Weight w) const { return *entries_[w]; }
  /// Handle of `value`; an rvalue moves into the pool when it is new.
  [[nodiscard]] Weight intern(const alg::QOmega& value);
  [[nodiscard]] Weight intern(alg::QOmega&& value);

  [[nodiscard]] std::complex<double> toComplex(Weight w) const {
    return value(w).toComplex();
  }

  /// Interning is exact and handles are stable, so memoized results always
  /// equal a recomputation; lossy caches are safe.
  [[nodiscard]] bool memoizationOrderDependent() const { return false; }

  [[nodiscard]] std::size_t distinctValues() const { return entries_.size(); }
  /// This system's word-kernel fast-path tallies (see collectObs): the ring
  /// operations its own weight operations ran.  O(1), cheap enough for
  /// per-gate timeline sampling.
  [[nodiscard]] std::uint64_t smallPathHits() const { return smallPaths_.hits; }
  [[nodiscard]] std::uint64_t smallPathSpills() const { return smallPaths_.spills; }
  /// Largest coefficient/denominator bit width ever interned — the cost
  /// driver the paper identifies for the GSE blow-up (Section V-B).
  [[nodiscard]] std::size_t maxBits() const { return maxBits_; }
  /// Fraction of normalizations whose produced weights were all 0 or 1
  /// (trivial); the paper reports Q[omega]-inverse normalization keeps at
  /// least half the weights trivial.
  [[nodiscard]] double trivialWeightFraction() const {
    return weightsProduced_ == 0 ? 1.0
                                 : static_cast<double>(trivialWeightsProduced_) /
                                       static_cast<double>(weightsProduced_);
  }

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] std::string describe() const;

  /// Telemetry view of the intern pool: entry count plus the bit-width
  /// histogram of the interned coefficients (histogram[b] = values whose
  /// widest coefficient/denominator is exactly b bits); see
  /// obs::WeightTableStats.
  void collectObs(obs::WeightTableStats& out) const {
    out.system = describe();
    out.entries = entries_.size();
    out.nearMissUnifications = 0; // interning is exact: no accuracy-loss events
    out.bucketOccupancy.clear();
    out.bitWidthHistogram = bitWidthHistogram_;
    out.opCache = opStats_;
    out.smallPathHits = smallPaths_.hits;
    out.smallPathSpills = smallPaths_.spills;
  }

private:
  static constexpr std::size_t kOpCacheEntries = std::size_t{1} << 16U;
  using OpCache = ComputedTable<WeightPairKey, Weight, kOpCacheEntries>;

  [[nodiscard]] static WeightPairKey commutativeKey(Weight a, Weight b) {
    return a <= b ? WeightPairKey{a, b} : WeightPairKey{b, a};
  }

  /// Adds this thread's small-path tally delta (alg::detail::smallPathStats)
  /// over a weight operation to this system's counts.  Only the outermost
  /// scope adds, so an operation that runs others (div, normalize) counts
  /// each ring operation once.
  class TallyScope {
  public:
    explicit TallyScope(AlgebraicSystem& system)
        : system_(system), start_(alg::detail::smallPathStats()) {
      ++system_.tallyDepth_;
    }
    TallyScope(const TallyScope&) = delete;
    TallyScope& operator=(const TallyScope&) = delete;
    ~TallyScope() {
      if (--system_.tallyDepth_ == 0) {
        const alg::detail::SmallPathStats& now = alg::detail::smallPathStats();
        system_.smallPaths_.hits += now.hits - start_.hits;
        system_.smallPaths_.spills += now.spills - start_.spills;
      }
    }

  private:
    AlgebraicSystem& system_;
    alg::detail::SmallPathStats start_;
  };

  template <class Value> [[nodiscard]] Weight internValue(Value&& value);

  /// Interned handle of 1/value(w), memoized per handle.  The Q[omega]
  /// inverse (norm computation + gcd canonicalization over huge integers)
  /// dominates algebraic normalization cost, and the same pivot weights
  /// recur constantly.  \pre !isZero(w)
  [[nodiscard]] Weight inverseOf(Weight w);

  /// Memoize a weight operation over interned handles.  Interning is exact
  /// and handles are stable, so this is strictly behavior-preserving; it
  /// short-circuits the Q[omega] big-integer arithmetic (+ canonicalization)
  /// that dominates algebraic simulation.
  template <class Compute> [[nodiscard]] Weight cachedOp(OpCache& cache, WeightPairKey key, Compute&& compute) {
    Weight hit;
    if (cache.lookup(key, hit)) {
      opStats_.hits.inc();
      return hit;
    }
    opStats_.misses.inc();
    const TallyScope tally(*this);
    const Weight result = compute();
    if (cache.insert(key, result)) {
      opStats_.evictions.inc();
    }
    return result;
  }

  Config config_;
  // Intern pool: map owns the values; entries_ gives O(1) handle -> value.
  // The map's nodes never move, so value(w) references stay valid while
  // entries_ grows.
  std::unordered_map<alg::QOmega, Weight> pool_;
  std::vector<const alg::QOmega*> entries_;
  std::vector<std::uint64_t> bitWidthHistogram_;
  std::size_t maxBits_ = 0;
  std::uint64_t weightsProduced_ = 0;
  std::uint64_t trivialWeightsProduced_ = 0;
  OpCache addCache_;
  OpCache subCache_;
  OpCache mulCache_;
  OpCache divCache_;
  OpCache invCache_;
  obs::CacheStats opStats_;
  alg::detail::SmallPathStats smallPaths_;
  unsigned tallyDepth_ = 0;
};

} // namespace qadd::dd
