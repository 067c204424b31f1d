/// \file dd_node.hpp
/// The unified edge/node templates of the QMDD core.  A `Node<Weight, N>` has
/// N weighted successor edges (N = 2 for state vectors, N = 4 for unitary
/// matrices); an `Edge<Node, Weight>` is a (node pointer, weight) pair where
/// node == nullptr denotes the terminal.  Writing both arities through one
/// template lets the package implement addition, multiplication, Kronecker
/// product, the GC sweep and node counting once, instantiated per arity.
///
/// Nodes carry four pieces of intrusive bookkeeping so that the storage
/// layers need no auxiliary maps:
///  - `next`: the unique-table chain link (and, for freed nodes, the
///    memory-manager free-list link);
///  - `ref`: the reference count (one per parent edge plus external
///    incRef/decRef references);
///  - `seq`: the package's insert serial, a heap-layout-independent stand-in
///    for address order wherever a total order over nodes is needed
///    (add-operand canonicalization);
///  - `visit`: a visit-epoch mark enabling allocation-free traversals
///    (node counting, export) — a node is "seen" iff its mark equals the
///    package's current traversal epoch.  Package::prune reserves a whole
///    range of epochs instead and stores `base + ordinal` (the node's DFS
///    preorder number); a node is numbered in that call iff its mark is
///    >= base.  Marks never exceed the package's current epoch afterwards,
///    so both uses coexist.  Read and written only by Package.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace qadd::dd {

/// Variable index; 0 is the topmost qubit (root level), as in the paper.
using Qubit = std::uint32_t;

/// A control qubit of a gate, with polarity (positive = active on |1>).
/// The one control type of the circuit IR (qc::ControlSpec), of
/// Package::makeGate and of the gate memo.
struct ControlSpec {
  Qubit qubit;
  bool positive = true;
  friend bool operator==(const ControlSpec&, const ControlSpec&) = default;
};

/// Weighted edge into a DD.  node == nullptr means the edge goes to the
/// terminal.
///
/// Skip-level edges: `var` is the level the edge *enters* (the variable the
/// edge's context expects next).  For vector edges and for materialized
/// matrix edges, var equals node->var.  A *matrix* edge whose var lies above
/// its node's variable (var < node->var; level 0 is the top) denotes an
/// implicit identity on every skipped level: the represented operator is
/// I ⊗ ... ⊗ I ⊗ M over [var, node->var) ⊗ [node->var, ...).  Two canonical
/// special cases close the invariant:
///  - a zero edge is always {nullptr, 0, var = 0};
///  - a non-zero *terminal* matrix edge {nullptr, w, var = 0} denotes w times
///    the identity on every level remaining in its context (a plain scalar
///    when the context has already reached the bottom) — its var is
///    meaningless and canonically 0.
/// Package::makeNode enforces the canonical var on every stored child edge
/// (entering level of a child of a level-k node is k+1 by definition), so the
/// skip information itself lives in the *difference* between the edge's
/// entering level and its node's variable.
template <class NodeT, class WeightT> struct Edge {
  using Node = NodeT;
  using Weight = WeightT;

  NodeT* node = nullptr;
  WeightT w{};
  Qubit var = 0; ///< entering level (== node->var unless the edge skips)

  [[nodiscard]] bool isTerminal() const { return node == nullptr; }
  friend bool operator==(const Edge&, const Edge&) = default;
};

/// DD node with N weighted successors.
template <class WeightT, std::size_t N> struct Node {
  using Weight = WeightT;
  using EdgeT = Edge<Node, WeightT>;
  static constexpr std::size_t kBranching = N;

  std::array<EdgeT, N> e;
  Node* next = nullptr;            ///< unique-table chain / free-list link
  Qubit var = 0;
  std::uint32_t ref = 0;
  std::uint64_t seq = 0;           ///< per-package insert serial (stable operand order)
  mutable std::uint64_t visit = 0; ///< visit-epoch mark, or prune's base + ordinal
};

namespace detail {

/// Finalizer of splitmix64 / MurmurHash3: full-avalanche 64-bit mixing.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 33U;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33U;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33U;
  return x;
}

/// Fold `value` into the running hash `h`.
[[nodiscard]] constexpr std::uint64_t hashCombine(std::uint64_t h, std::uint64_t value) noexcept {
  return mix64(h ^ (value + 0x9e3779b97f4a7c15ULL + (h << 6U) + (h >> 2U)));
}

/// Pointers are arena addresses with identical low alignment bits; shift
/// them out before mixing.
[[nodiscard]] inline std::uint64_t pointerBits(const void* p) noexcept {
  return reinterpret_cast<std::uintptr_t>(p) >> 3U;
}

} // namespace detail

/// Key memoizing a binary operation over interned weight handles — the
/// weight-op caches both weight systems layer over their intern pools.
/// Commutative operations should order the operands (min, max) before
/// building the key so (a, b) and (b, a) share a slot.
struct WeightPairKey {
  std::uint32_t a;
  std::uint32_t b;
  friend bool operator==(const WeightPairKey&, const WeightPairKey&) = default;
  [[nodiscard]] std::uint64_t hash() const noexcept {
    return detail::mix64((static_cast<std::uint64_t>(a) << 32U) | b);
  }
};

/// Content hash of a prospective node: its variable plus each child's
/// (pointer, weight, entering level) triple.  Weights must be integral
/// handles (both weight systems intern their values to std::uint32_t refs).
/// The child var is folded into the pointer word (arena addresses never
/// reach the high bits) so skip-level edges hash as the canonical content
/// the unique table's operator== compares — at zero extra mixing cost.
template <class EdgeT, std::size_t N>
[[nodiscard]] std::uint64_t hashNodeContents(Qubit var, const std::array<EdgeT, N>& children) noexcept {
  std::uint64_t h = detail::mix64(var);
  for (const EdgeT& child : children) {
    h = detail::hashCombine(h, detail::pointerBits(child.node) ^
                                   (static_cast<std::uint64_t>(child.var) << 48U));
    h = detail::hashCombine(h, static_cast<std::uint64_t>(child.w));
  }
  return h;
}

} // namespace qadd::dd
