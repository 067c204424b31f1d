/// \file complex_table.hpp
/// Interning table for floating-point complex edge weights with a
/// configurable tolerance epsilon — the data structure at the heart of the
/// accuracy/compactness trade-off the paper analyses (Section III).
///
/// Two values whose components differ by at most epsilon are unified to the
/// same table entry (the first one inserted wins).  epsilon == 0 degrades to
/// bit-exact interning, which maximizes precision but misses redundancies;
/// large epsilon merges genuinely different amplitudes and loses information.
///
/// Complexity note: in tolerance mode the stored entries are pairwise more
/// than epsilon apart (any closer candidate would have been unified), so a
/// spatial hash with cell size epsilon has O(1) occupancy per cell and
/// lookups are O(1).  Tolerances below ~2^-40 are finer than the spacing of
/// the doubles occurring in practice; they are served by bit-exact hashing
/// instead (a dense sub-epsilon grid would degenerate to linear scans).
///
/// Templated on the floating-point type (double is the baseline; long
/// double backs the precision-scaling experiment).
#pragma once

#include "numeric/complex_value.hpp"
#include "obs/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace qadd::num {

/// Handle to an interned complex value (index into the table).
using ComplexRef = std::uint32_t;

template <class FloatT> class BasicComplexTable {
public:
  using Value = BasicComplexValue<FloatT>;

  /// \param epsilon tolerance for unifying values (>= 0).
  explicit BasicComplexTable(FloatT epsilon) : epsilon_(epsilon) {
    if (epsilon < 0 || !std::isfinite(static_cast<double>(epsilon))) {
      throw std::invalid_argument("ComplexTable: epsilon must be finite and >= 0");
    }
    // Below ~2^-40 a tolerance is finer than the spacing of the floats that
    // occur in normalized amplitudes, so the lookup degrades to bit-exact
    // interning (and stays O(1) — see the file comment on bucket density).
    exactMode_ = epsilon_ < kMinCell;
    cell_ = exactMode_ ? kMinCell : epsilon_;
    entries_.push_back(Value::zero()); // kZeroRef
    entries_.push_back(Value::one());  // kOneRef
    if (exactMode_) {
      exact_[bitKeyOf(entries_[0])].push_back(kZeroRef);
      exact_[bitKeyOf(entries_[1])].push_back(kOneRef);
    } else {
      grid_[cellOf(entries_[0])].push_back(kZeroRef);
      grid_[cellOf(entries_[1])].push_back(kOneRef);
    }
  }

  BasicComplexTable(const BasicComplexTable&) = delete;
  BasicComplexTable& operator=(const BasicComplexTable&) = delete;

  /// Canonical handle for `value`, unifying within the tolerance.
  [[nodiscard]] ComplexRef lookup(Value value) {
    if (exactMode_) {
      if (epsilon_ > 0) {
        if (Value::approxEqual(value, Value::zero(), epsilon_)) {
          noteUnification(kZeroRef, value);
          return kZeroRef;
        }
        if (Value::approxEqual(value, Value::one(), epsilon_)) {
          noteUnification(kOneRef, value);
          return kOneRef;
        }
      }
      // The bucket key is the double-rounded bit pattern; entries inside a
      // bucket are distinguished by exact FloatT comparison, so extended
      // precision values that differ only below double resolution stay
      // distinct (essential for the precision-scaling experiment).
      auto& bucket = exact_[bitKeyOf(value)];
      for (const ComplexRef ref : bucket) {
        if (entries_[ref] == value) {
          return ref;
        }
      }
      const auto ref = static_cast<ComplexRef>(entries_.size());
      entries_.push_back(value);
      bucket.push_back(ref);
      return ref;
    }
    const CellKey center = cellOf(value);
    for (std::int64_t dx = -1; dx <= 1; ++dx) {
      for (std::int64_t dy = -1; dy <= 1; ++dy) {
        const auto it = grid_.find(CellKey{center.x + dx, center.y + dy});
        if (it == grid_.end()) {
          continue;
        }
        for (const ComplexRef ref : it->second) {
          if (Value::approxEqual(entries_[ref], value, epsilon_)) {
            noteUnification(ref, value);
            return ref;
          }
        }
      }
    }
    const auto ref = static_cast<ComplexRef>(entries_.size());
    entries_.push_back(value);
    grid_[center].push_back(ref);
    return ref;
  }

  [[nodiscard]] Value value(ComplexRef ref) const { return entries_[ref]; }

  [[nodiscard]] ComplexRef zeroRef() const { return kZeroRef; }
  [[nodiscard]] ComplexRef oneRef() const { return kOneRef; }

  [[nodiscard]] FloatT epsilon() const { return epsilon_; }

  /// True iff interning is bit-exact (ε below the float resolution floor):
  /// the ref returned for a given value is then stable over the table's
  /// lifetime, which makes memoizing weight operations behavior-preserving.
  /// In tolerance mode a later lookup of the same value may unify onto an
  /// entry inserted in the meantime, so results are insertion-order
  /// dependent and must not be memoized.
  [[nodiscard]] bool exactMode() const { return exactMode_; }

  /// Number of distinct interned values (a compactness statistic).
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Number of lookups that unified within ε onto an entry that was *not*
  /// bit-identical — the paper's accuracy-loss event: information about the
  /// looked-up value is silently discarded.  Always 0 when telemetry is
  /// compiled out or ε == 0.
  [[nodiscard]] std::uint64_t nearMissUnifications() const { return nearMisses_; }

  /// Histogram of bucket occupancy: result[k] = number of hash buckets
  /// (spatial-grid cells in tolerance mode, bit-pattern buckets in exact
  /// mode) currently holding exactly k entries; k is clamped to the last
  /// bin.  Empty buckets are not represented (result[0] == 0).
  [[nodiscard]] std::vector<std::uint64_t> bucketOccupancyHistogram(std::size_t maxBin = 8) const {
    std::vector<std::uint64_t> histogram(maxBin + 1, 0);
    const auto note = [&](std::size_t occupancy) {
      ++histogram[std::min(occupancy, maxBin)];
    };
    if (exactMode_) {
      for (const auto& [key, bucket] : exact_) {
        note(bucket.size());
      }
    } else {
      for (const auto& [key, bucket] : grid_) {
        note(bucket.size());
      }
    }
    return histogram;
  }

private:
  /// Telemetry hook for a tolerant hit: counts it as a near miss unless the
  /// match was bit-exact.
  void noteUnification(ComplexRef ref, Value value) {
    if constexpr (qadd::obs::kEnabled) {
      if (!(entries_[ref] == value)) {
        ++nearMisses_;
      }
    } else {
      (void)ref;
      (void)value;
    }
  }

  static constexpr ComplexRef kZeroRef = 0;
  static constexpr ComplexRef kOneRef = 1;
  static constexpr FloatT kMinCell = static_cast<FloatT>(0x1p-40);

  struct CellKey {
    std::int64_t x;
    std::int64_t y;
    friend bool operator==(CellKey, CellKey) = default;
  };
  struct CellKeyHash {
    std::size_t operator()(CellKey key) const noexcept {
      auto h = static_cast<std::size_t>(key.x) * 0x9e3779b97f4a7c15ULL;
      h ^= static_cast<std::size_t>(key.y) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      return h;
    }
  };
  struct BitKey {
    std::uint64_t re;
    std::uint64_t im;
    friend bool operator==(BitKey, BitKey) = default;
  };
  struct BitKeyHash {
    std::size_t operator()(BitKey key) const noexcept {
      return key.re * 0x9e3779b97f4a7c15ULL ^ (key.im + (key.re << 7));
    }
  };

  /// Bucket key: bit pattern of the value rounded to double.
  /// -0.0 canonicalizes with +0.0.
  [[nodiscard]] static BitKey bitKeyOf(Value value) {
    const auto bits = [](FloatT component) {
      double canonical = static_cast<double>(component);
      if (canonical == 0.0) {
        canonical = 0.0;
      }
      std::uint64_t pattern = 0;
      std::memcpy(&pattern, &canonical, sizeof(pattern));
      return pattern;
    };
    return {bits(value.re), bits(value.im)};
  }

  [[nodiscard]] CellKey cellOf(Value value) const {
    return {static_cast<std::int64_t>(std::floor(static_cast<double>(value.re / cell_))),
            static_cast<std::int64_t>(std::floor(static_cast<double>(value.im / cell_)))};
  }

  FloatT epsilon_;
  FloatT cell_;            // spatial-hash cell edge length (>= epsilon, > 0)
  bool exactMode_ = false; // epsilon below float resolution: bit-exact interning
  std::uint64_t nearMisses_ = 0;
  std::vector<Value> entries_;
  std::unordered_map<CellKey, std::vector<ComplexRef>, CellKeyHash> grid_;
  std::unordered_map<BitKey, std::vector<ComplexRef>, BitKeyHash> exact_;
};

using ComplexTable = BasicComplexTable<double>;

} // namespace qadd::num
