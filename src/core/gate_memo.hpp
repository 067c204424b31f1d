/// \file gate_memo.hpp
/// The package's gate memo: every distinct gate DD built since the last
/// garbage collection, keyed by what fixes the gate — a gate-kind tag, the
/// bit pattern of its parameter, the target and the control list.  Circuits
/// repeat a handful of gates (Grover-10: 1060 gates, 24 distinct), so
/// Package::memoizedGate builds each one once and answers every repetition
/// from here, without recomputing its 2x2 weights or re-running makeGate.
///
/// Entries hold no node references.  GC is the only path that frees nodes,
/// and Package::garbageCollect() clears the memo with the operation caches;
/// until then every node an entry points to is still allocated, so each
/// entry's nodes count toward the GC watermark like any other node.
///
/// Storage: entries are appended to a vector, their controls to one shared
/// control pool, and a power-of-two index of 32-bit entry numbers (linear
/// probing, at most half full) maps a key's hash to its entry.  A lookup
/// allocates nothing; an insert allocates only when an array grows.
#pragma once

#include "core/dd_node.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace qadd::dd {

/// What fixes a gate DD.  `kind` and `parameter` are opaque to the package:
/// the caller guarantees that equal (kind, parameter) pairs always name the
/// same 2x2 matrix (qc::makeOperationDD passes the GateKind and the angle's
/// bit pattern).  Controls compare in order.
struct GateKey {
  std::uint32_t kind = 0;
  std::uint64_t parameter = 0;
  Qubit target = 0;
  std::span<const ControlSpec> controls;

  [[nodiscard]] std::uint64_t hash() const noexcept {
    std::uint64_t h = detail::mix64((static_cast<std::uint64_t>(kind) << 32U) | target);
    h = detail::hashCombine(h, parameter);
    for (const ControlSpec& control : controls) {
      h = detail::hashCombine(h, (static_cast<std::uint64_t>(control.qubit) << 1U) |
                                     (control.positive ? 1U : 0U));
    }
    return h;
  }
};

template <class EdgeT> class GateMemo {
public:
  /// Copy the memoized DD of `key` into `out` and return true, or return
  /// false when the gate has not been built since the last clear().
  [[nodiscard]] bool lookup(const GateKey& key, EdgeT& out) const {
    if (slots_.empty()) {
      return false;
    }
    const std::uint64_t hash = key.hash();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t slot = hash & mask;; slot = (slot + 1) & mask) {
      const std::uint32_t index = slots_[slot];
      if (index == kEmpty) {
        return false;
      }
      const Entry& entry = entries_[index];
      if (entry.hash == hash && matches(entry, key)) {
        out = entry.edge;
        return true;
      }
    }
  }

  /// Remember `edge` as the DD of `key`.  \pre lookup(key) is false.
  void insert(const GateKey& key, const EdgeT& edge) {
    assert(entries_.size() < kEmpty && controls_.size() + key.controls.size() <= kEmpty);
    if (2 * (entries_.size() + 1) > slots_.size()) {
      grow();
    }
    const std::uint64_t hash = key.hash();
    entries_.push_back({hash, key.parameter, key.kind, key.target,
                        static_cast<std::uint32_t>(controls_.size()),
                        static_cast<std::uint32_t>(key.controls.size()), edge});
    controls_.insert(controls_.end(), key.controls.begin(), key.controls.end());
    place(hash, static_cast<std::uint32_t>(entries_.size() - 1));
  }

  /// Forget every entry (the arrays keep their capacity).
  void clear() {
    entries_.clear();
    controls_.clear();
    std::fill(slots_.begin(), slots_.end(), kEmpty);
  }

private:
  static constexpr std::uint32_t kEmpty = std::numeric_limits<std::uint32_t>::max();

  struct Entry {
    std::uint64_t hash;
    std::uint64_t parameter;
    std::uint32_t kind;
    Qubit target;
    std::uint32_t firstControl; ///< offset into controls_
    std::uint32_t controlCount;
    EdgeT edge;
  };

  [[nodiscard]] bool matches(const Entry& entry, const GateKey& key) const {
    const auto first = controls_.begin() + entry.firstControl;
    return entry.kind == key.kind && entry.parameter == key.parameter &&
           entry.target == key.target &&
           std::equal(first, first + entry.controlCount, key.controls.begin(),
                      key.controls.end());
  }

  void place(std::uint64_t hash, std::uint32_t index) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = hash & mask;
    while (slots_[slot] != kEmpty) {
      slot = (slot + 1) & mask;
    }
    slots_[slot] = index;
  }

  void grow() {
    slots_.assign(std::max<std::size_t>(16, 2 * slots_.size()), kEmpty);
    for (std::size_t index = 0; index < entries_.size(); ++index) {
      place(entries_[index].hash, static_cast<std::uint32_t>(index));
    }
  }

  std::vector<Entry> entries_;
  std::vector<ControlSpec> controls_;
  std::vector<std::uint32_t> slots_; ///< entry index, or kEmpty
};

} // namespace qadd::dd
