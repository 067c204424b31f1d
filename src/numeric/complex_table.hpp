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
/// Storage: entries live in insertion order in `entries_`, the handle being
/// the index.  Entries that share a key — the double-rounded bit pattern in
/// exact mode, the ε-cell in tolerance mode — form a chain through `next_`,
/// also in insertion order.  One open-addressing array of 8-byte slots
/// (linear probing, at most half full) maps each key to its chain's first
/// entry plus a 32-bit hash tag; the key itself is recomputed from that
/// entry, so a probe touches one or two contiguous slots and, on a tag
/// match, the entry it would read anyway.  An insert allocates only when an
/// array doubles.
///
/// Complexity note: in tolerance mode the stored entries are pairwise more
/// than epsilon apart (any closer candidate would have been unified), so a
/// spatial hash with cell size epsilon has O(1) occupancy per cell and
/// lookups are O(1): nine slot probes and short chains.  Tolerances below
/// ~2^-40 are finer than the spacing of the doubles occurring in practice;
/// they are served by bit-exact keys instead (a dense sub-epsilon grid would
/// degenerate to linear scans), one probe per lookup.
///
/// Templated on the floating-point type (double is the baseline; long
/// double backs the precision-scaling experiment).
#pragma once

#include "numeric/complex_value.hpp"
#include "numeric/handle.hpp"
#include "obs/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace qadd::num {

/// Handle to an interned complex value (index into the table).
using ComplexRef = std::uint32_t;

template <class FloatT> class BasicComplexTable {
public:
  using Value = BasicComplexValue<FloatT>;

  /// \param epsilon tolerance for unifying values (>= 0).
  explicit BasicComplexTable(FloatT epsilon) : epsilon_(epsilon), slots_(kInitialSlots) {
    if (epsilon < 0 || !std::isfinite(static_cast<double>(epsilon))) {
      throw std::invalid_argument("ComplexTable: epsilon must be finite and >= 0");
    }
    // Below ~2^-40 a tolerance is finer than the spacing of the floats that
    // occur in normalized amplitudes, so the lookup degrades to bit-exact
    // interning (and stays O(1) — see the file comment on bucket density).
    exactMode_ = epsilon_ < kMinCell;
    cell_ = exactMode_ ? kMinCell : epsilon_;
    for (const Value preinterned : {Value::zero(), Value::one()}) { // kZeroRef, kOneRef
      const Key key = keyOf(preinterned);
      (void)append(probe(key), key, preinterned);
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
      // The key is the double-rounded bit pattern; entries sharing it are
      // distinguished by exact FloatT comparison, so extended precision
      // values that differ only below double resolution stay distinct
      // (essential for the precision-scaling experiment).
      const Key key = bitKeyOf(value);
      const std::size_t slot = probe(key);
      for (ComplexRef ref = slots_[slot].head; ref != kNoHandle; ref = next_[ref]) {
        if (entries_[ref] == value) {
          return ref;
        }
      }
      return append(slot, key, value);
    }
    const std::int64_t x = cellIndex(value.re);
    const std::int64_t y = cellIndex(value.im);
    for (std::int64_t dx = -1; dx <= 1; ++dx) {
      for (std::int64_t dy = -1; dy <= 1; ++dy) {
        for (ComplexRef ref = slots_[probe(cellKey(x + dx, y + dy))].head; ref != kNoHandle;
             ref = next_[ref]) {
          if (Value::approxEqual(entries_[ref], value, epsilon_)) {
            noteUnification(ref, value);
            return ref;
          }
        }
      }
    }
    const Key center = cellKey(x, y);
    return append(probe(center), center, value);
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

  /// Histogram of bucket occupancy: result[k] = number of keys (spatial-grid
  /// cells in tolerance mode, double-rounded bit patterns in exact mode)
  /// currently holding exactly k entries; k is clamped to the last bin.
  /// Empty buckets are not represented (result[0] == 0).  Computed on demand
  /// by walking the chains, O(entries + slots).
  [[nodiscard]] std::vector<std::uint64_t> bucketOccupancyHistogram(std::size_t maxBin = 8) const {
    std::vector<std::uint64_t> histogram(maxBin + 1, 0);
    for (const Slot& slot : slots_) {
      std::size_t occupancy = 0;
      for (ComplexRef ref = slot.head; ref != kNoHandle; ref = next_[ref]) {
        ++occupancy;
      }
      if (occupancy > 0) {
        ++histogram[std::min(occupancy, maxBin)];
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
  static constexpr std::int64_t kFarCell = -(std::int64_t{1} << 62) - 2; ///< see cellIndex
  /// A power of two, and small: packages are constructed in loops.
  static constexpr std::size_t kInitialSlots = 64;

  /// A chain key: a bit-pattern pair in exact mode, a cell pair in tolerance
  /// mode (the int64 cell indices reinterpreted as unsigned).
  struct Key {
    std::uint64_t re;
    std::uint64_t im;
    friend bool operator==(Key, Key) = default;
  };
  /// One open-addressing slot: the first entry of a chain and 32 bits of
  /// its key's hash (a slot whose tag differs is skipped without reading
  /// the entry).  head == kNoHandle marks an empty slot.
  struct Slot {
    ComplexRef head = kNoHandle;
    std::uint32_t tag = 0;
  };

  /// Bit key: bit pattern of the value rounded to double.
  /// -0.0 canonicalizes with +0.0.
  [[nodiscard]] static Key bitKeyOf(Value value) {
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

  [[nodiscard]] Key keyOf(Value value) const {
    return exactMode_ ? bitKeyOf(value) : cellKey(cellIndex(value.re), cellIndex(value.im));
  }
  [[nodiscard]] static Key cellKey(std::int64_t x, std::int64_t y) {
    return {static_cast<std::uint64_t>(x), static_cast<std::uint64_t>(y)};
  }
  /// Grid coordinate of one component.  A component whose cell index lies
  /// beyond ±2^62 (a huge weight — PerGate pruning at ε > 0 produces them —
  /// or a non-finite one) goes to one sentinel cell instead, so the int64
  /// conversion and the ±1 neighbour probes in lookup() stay defined.
  [[nodiscard]] std::int64_t cellIndex(FloatT component) const {
    const auto scaled = static_cast<double>(component / cell_);
    if (scaled >= -0x1p62 && scaled < 0x1p62) [[likely]] {
      return static_cast<std::int64_t>(std::floor(scaled));
    }
    return kFarCell;
  }

  /// Multiply-xorshift mix of both key halves: the top bits index the slot
  /// array, the low 32 bits are the slot tag, and every bit of the key
  /// reaches both.  Dyadic amplitudes (±1/2) have all-zero low mantissa
  /// bits, and a negated value differs from its original only in the two
  /// sign bits, which a sum of linear terms would cancel.
  [[nodiscard]] static std::uint64_t hashOf(Key key) {
    std::uint64_t h = key.re * 0x9e3779b97f4a7c15ULL;
    h = ((h ^ (h >> 32)) + key.im) * 0xd6e8feb86659fd93ULL;
    return h ^ (h >> 32);
  }

  /// Slot index of `key`'s chain, or of the empty slot where it would go.
  [[nodiscard]] std::size_t probe(Key key) const {
    const std::uint64_t h = hashOf(key);
    const auto tag = static_cast<std::uint32_t>(h);
    const std::size_t mask = slots_.size() - 1;
    for (auto i = static_cast<std::size_t>(h >> slotShift_);; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.head == kNoHandle || (slot.tag == tag && keyOf(entries_[slot.head]) == key)) {
        return i;
      }
    }
  }

  /// Append `value` as a new entry at the end of the chain in slots_[slot]
  /// (a fresh chain for `key` if that slot is empty).
  ComplexRef append(std::size_t slot, Key key, Value value) {
    const ComplexRef ref = mintHandle(entries_.size());
    entries_.push_back(value);
    next_.push_back(kNoHandle);
    Slot& target = slots_[slot];
    if (target.head == kNoHandle) {
      target = {ref, static_cast<std::uint32_t>(hashOf(key))};
      if (++usedSlots_ * 2 > slots_.size()) {
        grow();
      }
      return ref;
    }
    ComplexRef last = target.head;
    while (next_[last] != kNoHandle) {
      last = next_[last];
    }
    next_[last] = ref;
    return ref;
  }

  /// Double the slot array and reinsert every chain under its head's key.
  void grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    --slotShift_;
    for (const Slot& slot : old) {
      if (slot.head != kNoHandle) {
        slots_[probe(keyOf(entries_[slot.head]))] = slot;
      }
    }
  }

  FloatT epsilon_;
  FloatT cell_;            // spatial-hash cell edge length (>= epsilon, > 0)
  bool exactMode_ = false; // epsilon below float resolution: bit-exact interning
  std::uint64_t nearMisses_ = 0;
  std::vector<Value> entries_;
  std::vector<ComplexRef> next_; ///< next entry with the same key, or kNoHandle
  std::vector<Slot> slots_;      ///< power-of-two open-addressing array
  std::size_t usedSlots_ = 0;    ///< distinct keys (non-empty slots)
  unsigned slotShift_ = 64 - std::countr_zero(kInitialSlots); ///< 64 - log2(slots_.size())
};

using ComplexTable = BasicComplexTable<double>;

} // namespace qadd::num
