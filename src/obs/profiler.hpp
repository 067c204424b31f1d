/// \file profiler.hpp
/// Structural DD profiler (qadd::obs): walks a vector or matrix QMDD — a
/// live package root or a QDDS snapshot via the qadd::io loader — and
/// reports, per level, the node/edge counts, fan-out and sharing factors,
/// and the weight-complexity distribution (ℚ[ω] coefficient bit widths for
/// the algebraic system, magnitude bands for the numeric ones).  This is the
/// per-level view of the paper's compactness story: *where* in the diagram
/// the nodes, the sharing, and the coefficient blow-up live, not just how
/// many nodes there are in total.
///
/// Exposed as `qadd_snapshot profile|dot|metrics` (tools/qadd_snapshot.cpp)
/// and as the --profile-final flag of the figure drivers.  Profiling is a
/// diagnostic walk (hash-set visited marking, O(nodes + edges)); it never
/// mutates the package and is not meant for hot loops.
#pragma once

#include "core/package.hpp"

#include <cmath>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

namespace qadd::obs {

/// Per-level slice of a DD profile.  Level k holds the nodes with var == k;
/// level 0 is the root (top qubit) level, as in core/dd_node.hpp.
struct LevelProfile {
  std::size_t nodes = 0;
  std::size_t edges = 0;           ///< non-zero outgoing edges of this level's nodes
  std::size_t edgesToTerminal = 0; ///< subset of `edges` that end at the terminal
  std::size_t zeroEdges = 0;       ///< zero-weight (absent) successors
  std::size_t incomingEdges = 0;   ///< parent edges into this level (root edge included)
  /// Non-zero edges whose implicit-identity span covers this level: skip
  /// edges passing over it plus non-zero terminal matrix edges whose
  /// identity tail includes it.  Always 0 for vector DDs (quasi-reduced)
  /// and for packages with identity skipping disabled.
  std::size_t skippedBy = 0;
  /// weightHistogram[b] = outgoing non-zero edges whose weight falls in
  /// complexity class b; see DdProfile::weightHistogramKind.
  std::vector<std::uint64_t> weightHistogram;

  /// Average non-zero successors per node (≤ 2 for vectors, ≤ 4 for matrices).
  [[nodiscard]] double fanOut() const {
    return nodes == 0 ? 0.0 : static_cast<double>(edges) / static_cast<double>(nodes);
  }
  /// Average parents per node — the sharing the DD achieves at this level
  /// (1.0 = a tree, larger = more reuse).
  [[nodiscard]] double sharing() const {
    return nodes == 0 ? 0.0 : static_cast<double>(incomingEdges) / static_cast<double>(nodes);
  }
};

/// Full structural profile of one diagram.
struct DdProfile {
  std::string system; ///< System::describe() of the profiled package
  std::string kind;   ///< "vector" or "matrix"
  std::size_t qubits = 0;
  std::size_t totalNodes = 0;
  std::size_t totalEdges = 0;          ///< non-zero edges, root edge included
  std::size_t distinctEdgeWeights = 0; ///< distinct weight handles on those edges
  /// Meaning of the per-level weight histograms: "bits" (algebraic — widest
  /// coefficient/denominator bit width of the ℚ[ω] value) or
  /// "neglog2magnitude" (numeric — band k holds weights with
  /// 2^-(k+1) < |w| <= 2^-k; band 0 also holds |w| >= 1).
  std::string weightHistogramKind;
  std::vector<LevelProfile> levels; ///< levels[k] = qubit level k (0 = top)
};

/// Machine-readable JSON object of a profile (one self-contained object,
/// histograms as arrays).
void writeProfileJson(std::ostream& os, const DdProfile& profile);

/// Human-readable per-level table (the `qadd_snapshot profile` /
/// --profile-final console rendering).
void printProfileTable(std::ostream& os, const DdProfile& profile);

namespace detail {

/// Complexity class of one weight: coefficient bit width for the algebraic
/// system, negative-log2 magnitude band for the numeric ones.
template <class System>
[[nodiscard]] std::size_t weightClass(const System& system, typename System::Weight w) {
  if constexpr (System::kExact) {
    const auto& q = system.value(w);
    std::size_t bits = q.den().bitLength();
    for (const auto* coefficient : {&q.num().a(), &q.num().b(), &q.num().c(), &q.num().d()}) {
      bits = std::max(bits, coefficient->bitLength());
    }
    return bits;
  } else {
    const auto z = system.toComplex(w);
    const double magnitude = std::abs(z);
    if (!(magnitude > 0.0) || magnitude >= 1.0) {
      return 0;
    }
    const int exponent = std::ilogb(magnitude); // magnitude in [2^e, 2^{e+1})
    return static_cast<std::size_t>(std::min(255, std::max(0, -exponent - 1)));
  }
}

inline void bumpHistogram(std::vector<std::uint64_t>& histogram, std::size_t bucket) {
  if (histogram.size() <= bucket) {
    histogram.resize(bucket + 1, 0);
  }
  ++histogram[bucket];
}

} // namespace detail

/// Profile a live DD rooted at `root` (VEdge or MEdge of `package`).
template <class System, class EdgeT>
[[nodiscard]] DdProfile profileDd(const dd::Package<System>& package, const EdgeT& root) {
  using NodeT = typename EdgeT::Node;
  DdProfile profile;
  profile.system = package.system().describe();
  profile.kind = NodeT::kBranching == 2 ? "vector" : "matrix";
  profile.qubits = package.qubits();
  profile.weightHistogramKind = System::kExact ? "bits" : "neglog2magnitude";
  profile.levels.resize(profile.qubits);

  std::unordered_set<const NodeT*> visited;
  std::unordered_set<typename System::Weight> weights;
  std::vector<const NodeT*> stack;

  // Levels an edge passes over implicitly (skip-level edges; matrix DDs
  // only in practice).  `from` is the level below the edge's origin, `to`
  // the level its node materializes at — qubits (context end) for non-zero
  // terminal edges, whose tail is an implicit identity.
  const auto countSkips = [&](dd::Qubit from, const EdgeT& edge) {
    const std::size_t to =
        edge.node != nullptr ? edge.node->var : (NodeT::kBranching == 4 ? profile.qubits : from);
    for (std::size_t k = from; k < to; ++k) {
      ++profile.levels[k].skippedBy;
    }
  };

  const auto countEdge = [&](const NodeT* parent, const EdgeT& edge) {
    LevelProfile& level = profile.levels[parent->var];
    if (package.system().isZero(edge.w)) {
      ++level.zeroEdges;
      return;
    }
    ++level.edges;
    ++profile.totalEdges;
    weights.insert(edge.w);
    detail::bumpHistogram(level.weightHistogram, detail::weightClass(package.system(), edge.w));
    countSkips(parent->var + 1, edge);
    if (edge.node == nullptr) {
      ++level.edgesToTerminal;
      return;
    }
    ++profile.levels[edge.node->var].incomingEdges;
    if (visited.insert(edge.node).second) {
      stack.push_back(edge.node);
    }
  };

  if (!package.system().isZero(root.w)) {
    // The root edge counts toward totals and the root level's sharing, but
    // has no parent node, so it joins no level's outgoing-weight histogram.
    ++profile.totalEdges;
    weights.insert(root.w);
    countSkips(root.var, root);
    if (root.node != nullptr) {
      ++profile.levels[root.node->var].incomingEdges;
      if (visited.insert(root.node).second) {
        stack.push_back(root.node);
      }
    }
  }
  while (!stack.empty()) {
    const NodeT* node = stack.back();
    stack.pop_back();
    ++profile.levels[node->var].nodes;
    ++profile.totalNodes;
    for (const auto& child : node->e) {
      countEdge(node, child);
    }
  }
  profile.distinctEdgeWeights = weights.size();
  return profile;
}

/// Profile a QDDS snapshot (unwrap a QCKP checkpoint first with
/// io::snapshotOf): loads the diagram into a package matching the snapshot's
/// system meta (io::withMatchingPackage) and profiles the rebuilt root.
/// \throws io::SnapshotError on corruption or an unsupported float precision.
[[nodiscard]] DdProfile profileSnapshot(std::span<const std::uint8_t> bytes);

/// Graphviz DOT text of a snapshot's diagram (dd::toDot on the rebuilt
/// root).  \throws io::SnapshotError like profileSnapshot.
[[nodiscard]] std::string snapshotToDot(std::span<const std::uint8_t> bytes);

} // namespace qadd::obs
