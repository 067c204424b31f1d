/// \file package.hpp
/// The QMDD package: weighted decision diagrams for quantum state vectors
/// (2 successors per node) and unitary matrices (4 successors per node),
/// templated over the weight system (NumericSystem or AlgebraicSystem).
///
/// Follows the QMDD construction of [15]/Section II-B: nodes are normalized
/// (the normalization policy lives in the weight system), stored in unique
/// tables for canonicity, and manipulated through cached recursive algorithms
/// (addition, matrix-vector / matrix-matrix multiplication, Kronecker
/// product, conjugate transpose, inner product).  Vector diagrams are
/// quasi-reduced: every root-to-terminal path visits every variable.  Matrix
/// diagrams use *skip-level edges* (see core/dd_node.hpp and
/// docs/CORE_STORAGE.md): an edge entering above its node's variable denotes
/// an implicit identity on the skipped levels, so a single-qubit gate on an
/// n-qubit register is one node instead of an O(n) identity tower and the
/// multiply recursion touches only the active levels.  makeNode collapses
/// the diag(c, 0, 0, c) pattern unconditionally, which makes the skip form
/// the one canonical representation: an explicit identity level can never
/// enter the unique table.
///
/// Storage architecture (see docs/CORE_STORAGE.md):
///  - nodes live in chunked arenas (core/memory_manager.hpp) with stable
///    addresses and intrusive free-list reuse;
///  - canonicity is enforced by bucket-chained unique tables over node
///    contents (core/unique_table.hpp), chained through Node::next;
///  - the operation caches are fixed-size, direct-mapped, lossy
///    (core/computed_table.hpp); clearing them — on garbageCollect() or
///    clearCaches() — is an O(1) epoch bump per table;
///  - both node arities share one set of templated algorithms via the
///    Edge/Node templates of core/dd_node.hpp.
///
/// Reference counting: a node holds one reference per parent edge plus any
/// external references (incRef/decRef).  garbageCollect() invalidates the
/// operation caches and the gate memo (memoizedGate, core/gate_memo.hpp)
/// and sweeps ref == 0 nodes; it also auto-triggers from
/// decRef() when the live node count crosses the watermark set by
/// setGcWatermark() (0, the default, = only on demand; every qc::Simulator
/// installs its Options::gcNodeThreshold).
///
/// A package is thread-confined: parallelism lives one level up, where
/// independent packages run side by side (sweep points, serve sessions; see
/// docs/PARALLELISM.md).
#pragma once

#include "algebraic/qomega.hpp" // exact amplitude accumulation (algebraic system)
#include "core/computed_table.hpp"
#include "core/dd_node.hpp"
#include "core/gate_memo.hpp"
#include "core/memory_manager.hpp"
#include "core/unique_table.hpp"
#include "exec/thread_pool.hpp"
#include "obs/stats.hpp"
#include "obs/timeline.hpp"
#include "obs/tracer.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace qadd::dd {

/// Result of one garbage-collection run.
struct GcReport {
  std::size_t swept = 0;      ///< nodes returned to the free lists
  std::size_t liveBefore = 0; ///< allocated nodes before the sweep
  std::size_t liveAfter = 0;  ///< allocated nodes after the sweep
  double seconds = 0.0;       ///< wall time of cache invalidation + sweeping
};

/// Bitmask selecting operation caches for Package::clearCaches().
enum class CacheKind : std::uint16_t {
  VAdd = 1U << 0,
  MAdd = 1U << 1,
  MV = 1U << 2,
  MM = 1U << 3,
  VKron = 1U << 4,
  MKron = 1U << 5,
  Transpose = 1U << 6,
  Inner = 1U << 7,
  Trace = 1U << 8,
  All = (1U << 9) - 1,
};

[[nodiscard]] constexpr CacheKind operator|(CacheKind a, CacheKind b) {
  return static_cast<CacheKind>(static_cast<std::uint16_t>(a) | static_cast<std::uint16_t>(b));
}
[[nodiscard]] constexpr bool contains(CacheKind mask, CacheKind kind) {
  return (static_cast<std::uint16_t>(mask) & static_cast<std::uint16_t>(kind)) != 0;
}

template <class System> class Package {
public:
  using Weight = typename System::Weight;
  static_assert(std::is_integral_v<Weight>,
                "Package requires interned integral weight handles (both weight systems "
                "intern to std::uint32_t refs)");

  using VNode = dd::Node<Weight, 2>;
  using MNode = dd::Node<Weight, 4>;
  /// Weighted edge into a vector DD.  node == nullptr means the edge goes to
  /// the terminal.
  using VEdge = dd::Edge<VNode, Weight>;
  /// Weighted edge into a matrix DD.
  using MEdge = dd::Edge<MNode, Weight>;

  /// 2x2 gate matrix given as weights [u00, u01, u10, u11].
  using GateMatrix = std::array<Weight, 4>;

  // Operation-cache geometry: the add and multiply caches carry the
  // simulation hot path and get the large tables; Kronecker/inner/unary
  // traffic is lighter.  All lossy and direct-mapped; sizes are powers of 2.
  static constexpr std::size_t kAddCacheEntries = std::size_t{1} << 16U;
  static constexpr std::size_t kMulCacheEntries = std::size_t{1} << 16U;
  static constexpr std::size_t kKronCacheEntries = std::size_t{1} << 13U;
  static constexpr std::size_t kInnerCacheEntries = std::size_t{1} << 13U;
  static constexpr std::size_t kUnaryCacheEntries = std::size_t{1} << 12U;

  explicit Package(Qubit nqubits, typename System::Config config = {})
      : nqubits_(nqubits), system_(config) {
    if (system_.memoizationOrderDependent()) {
      // A recomputed result could differ from the cached one (tolerance-mode
      // interning): keep every memoized result so nothing is ever recomputed.
      forEachCache([](CacheKind, auto& cache) { cache.setLossless(true); });
    }
  }

  Package(const Package&) = delete;
  Package& operator=(const Package&) = delete;

  [[nodiscard]] Qubit qubits() const { return nqubits_; }
  [[nodiscard]] System& system() { return system_; }
  [[nodiscard]] const System& system() const { return system_; }

  /// No-op, kept only for perfbench/; goes with the next benchmark change.
  void setExecutor(exec::ThreadPool* /*pool*/) {}
  /// Always false, kept only for perfbench/; goes with the next benchmark change.
  [[nodiscard]] bool concurrentKernels() const { return false; }

  // -- canonical edges ---------------------------------------------------------

  [[nodiscard]] VEdge zeroVector() const { return {nullptr, system_.zero()}; }
  [[nodiscard]] MEdge zeroMatrix() const { return {nullptr, system_.zero()}; }

  // -- node construction (normalizing + unique table) ---------------------------

  /// Create/lookup the canonical vector node; normalizes the children weights
  /// and folds the extracted factor into the returned edge weight.
  [[nodiscard]] VEdge makeVNode(Qubit var, std::array<VEdge, 2> children) {
    return makeNode<VEdge, 2>(var, children);
  }

  /// Create/lookup the canonical matrix node (children in the paper's order:
  /// top-left, top-right, bottom-left, bottom-right).
  [[nodiscard]] MEdge makeMNode(Qubit var, std::array<MEdge, 4> children) {
    return makeNode<MEdge, 4>(var, children);
  }

  // -- reference counting / garbage collection ---------------------------------

  void incRef(const VEdge& e) {
    if (e.node != nullptr) {
      ++e.node->ref;
    }
  }
  void incRef(const MEdge& e) {
    if (e.node != nullptr) {
      ++e.node->ref;
    }
  }
  /// Release an external reference.  May auto-trigger garbageCollect() when
  /// the live node count exceeds the watermark — callers must hold an incRef
  /// on every edge they still need across a decRef (the discipline the
  /// simulator and unitary builders already follow).
  void decRef(const VEdge& e) {
    if (e.node != nullptr) {
      assert(e.node->ref > 0);
      --e.node->ref;
      maybeGarbageCollect();
    }
  }
  void decRef(const MEdge& e) {
    if (e.node != nullptr) {
      assert(e.node->ref > 0);
      --e.node->ref;
      maybeGarbageCollect();
    }
  }

  /// Invalidate all operation caches and the gate memo, and free every node
  /// that is no longer reachable from an externally referenced edge.
  GcReport garbageCollect() {
    const auto span = obs::Tracer::global().span("gc", "dd");
    const auto start = std::chrono::steady_clock::now();
    GcReport report;
    report.liveBefore = allocatedNodes();
    clearCaches(); // O(1) epoch bumps — GC no longer pays a cache teardown
    gateMemo_.clear(); // its entries hold no references: the sweep may free their nodes
    std::apply([](auto&... tables) { (tables.sweep(), ...); }, tables_);
    report.liveAfter = allocatedNodes();
    report.swept = report.liveBefore - report.liveAfter;
    report.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    ++gcRuns_;
    lastGcReport_ = report;
    stats_.gc.runs.inc();
    stats_.gc.nodesSwept.inc(report.swept);
    if constexpr (obs::kEnabled) {
      stats_.gc.seconds += report.seconds;
    }
    return report;
  }

  /// Run garbageCollect() iff the live node count exceeds the watermark.
  /// Returns true when a collection ran.
  bool maybeGarbageCollect() {
    if (gcWatermark_ != 0 && allocatedNodes() > gcWatermark_) {
      garbageCollect();
      return true;
    }
    return false;
  }

  /// Watermark for auto-GC (0, the default, disables).
  void setGcWatermark(std::size_t watermark) { gcWatermark_ = watermark; }
  [[nodiscard]] std::size_t gcWatermark() const { return gcWatermark_; }
  /// Collections run so far (manual + auto); always maintained, even with
  /// telemetry compiled out.
  [[nodiscard]] std::size_t gcRuns() const { return gcRuns_; }
  /// Report of the most recent collection (all zeros before the first run).
  [[nodiscard]] const GcReport& lastGcReport() const { return lastGcReport_; }

  /// Invalidate the selected operation caches (all of them by default),
  /// driven by the cache registry forEachCache() — each is an O(1) epoch bump.
  void clearCaches(CacheKind kinds = CacheKind::All) {
    forEachCache([kinds](CacheKind kind, auto& cache) {
      if (contains(kinds, kind)) {
        cache.clear();
      }
    });
  }

  /// Number of live (allocated, not freed) nodes across both node types.
  [[nodiscard]] std::size_t allocatedNodes() const {
    const auto& [vectors, matrices] = tables_;
    return vectors.mem.inUse() + matrices.mem.inUse();
  }
  [[nodiscard]] std::size_t peakNodes() const { return peakNodes_; }
  /// Node-arena capacity in bytes across both pools (O(1)).
  [[nodiscard]] std::size_t arenaBytes() const {
    const auto& [vectors, matrices] = tables_;
    return vectors.mem.arenaBytes() + matrices.mem.arenaBytes();
  }

  // -- telemetry ----------------------------------------------------------------

  /// Raw counter block (no gauges filled); cheap, suitable for sampling in
  /// tight loops.
  [[nodiscard]] const obs::PackageStats& counters() const { return stats_; }

  /// Snapshot of all counters plus the gauges: live/peak node counts, the
  /// unique-table fill (entries/buckets), and the weight-table view of the
  /// active system (entry count, ε near-misses and bucket occupancy for the
  /// numeric table; bit-width histogram for the algebraic intern pool).
  [[nodiscard]] obs::PackageStats stats() const {
    obs::PackageStats snapshot = stats_;
    snapshot.liveNodes = allocatedNodes();
    snapshot.peakNodes = peakNodes_;
    snapshot.arenaBytes = arenaBytes();
    const auto& [vectors, matrices] = tables_;
    snapshot.vUnique.entries = vectors.unique.size();
    snapshot.vUnique.buckets = vectors.unique.bucketCount();
    snapshot.mUnique.entries = matrices.unique.size();
    snapshot.mUnique.buckets = matrices.unique.bucketCount();
    system_.collectObs(snapshot.weights);
    return snapshot;
  }

  /// Fill the gauge fields of a timeline sample from this package — every
  /// read is O(1) (no DD traversals, no histogram walks), so this is cheap
  /// enough to run after every gate.  The caller sets the context fields
  /// (series, kind, gateIndex, epsilon); record() stamps tid and seconds.
  void sampleTimeline(obs::Timeline::Sample& sample) const {
    sample.liveNodes = allocatedNodes();
    sample.peakNodes = peakNodes_;
    sample.arenaBytes = arenaBytes();
    const auto& [vectors, matrices] = tables_;
    sample.uniqueEntries = vectors.unique.size() + matrices.unique.size();
    sample.uniqueBuckets = vectors.unique.bucketCount() + matrices.unique.bucketCount();
    sample.uniqueCollisions =
        stats_.vUnique.collisions.value() + stats_.mUnique.collisions.value();
    sample.cacheHitRate = stats_.combinedCacheHitRate();
    sample.gcRuns = gcRuns_;
    sample.smallPathHits = system_.smallPathHits();
    sample.smallPathSpills = system_.smallPathSpills();
    sample.weightEntries = system_.distinctValues();
    sample.prunedNodes = stats_.approx.nodesRemoved.value();
  }

  /// Zero all counters (gauges are derived, so they are unaffected).
  void resetStats() { stats_ = {}; }

  /// Mutable snapshot-I/O counter block, maintained by the qadd::io layer
  /// (save/load volume, load dedup); part of stats()/counters() snapshots.
  [[nodiscard]] obs::IoStats& ioCounters() { return stats_.io; }

  // -- builders -----------------------------------------------------------------

  /// |b_0 b_1 ... b_{n-1}> with b_0 the top qubit.
  [[nodiscard]] VEdge makeBasisState(std::span<const bool> bits) {
    assert(bits.size() == nqubits_);
    VEdge e{nullptr, system_.one()};
    for (Qubit var = nqubits_; var-- > 0;) {
      if (bits[var]) {
        e = makeVNode(var, {zeroVector(), e});
      } else {
        e = makeVNode(var, {e, zeroVector()});
      }
    }
    return e;
  }

  /// |00...0>.
  [[nodiscard]] VEdge makeZeroState() {
    VEdge e{nullptr, system_.one()};
    for (Qubit var = nqubits_; var-- > 0;) {
      e = makeVNode(var, {e, zeroVector()});
    }
    return e;
  }

  /// Identity on all qubits: the canonical terminal edge {nullptr, 1, 0} —
  /// identity on every level of the context — built in O(1).
  [[nodiscard]] MEdge makeIdentity() const { return {nullptr, system_.one()}; }

  /// Build the DD of an arbitrary state vector given its 2^n amplitudes as
  /// weights (index 0 = |0...0>, qubit 0 is the most significant bit).
  /// Performs the usual bottom-up construction with normalization, so equal
  /// (sub-)vectors share nodes.  \pre amplitudes.size() == 2^qubits()
  [[nodiscard]] VEdge makeStateFromWeights(std::span<const Weight> amplitudes) {
    assert(amplitudes.size() == (std::size_t{1} << nqubits_));
    return buildStateRange(0, amplitudes);
  }

  /// DD of the n-qubit unitary applying `u` to `target`, conditioned on the
  /// given controls; identity on every other qubit.  Built as
  /// I + P_controls (x) (U - I), which handles arbitrary control sets.
  /// \pre no control is the target, and no qubit is controlled twice
  /// (qc::Circuit::append rejects both).
  [[nodiscard]] MEdge makeGate(const GateMatrix& u, Qubit target,
                               std::span<const ControlSpec> controls = {}) {
    assert(target < nqubits_);
    if (controls.empty()) {
      // One node at the target level; the identity above and below stays
      // implicit (the below-identity is the terminal children, the
      // above-identity is the root edge's skip span).
      const MEdge e = makeIdentity();
      return enteringAt(
          makeMNode(target, {scale(e, u[0]), scale(e, u[1]), scale(e, u[2]), scale(e, u[3])}), 0);
    }
    // Controlled: G = I + C where C applies (U - I) on the target restricted
    // to the subspace selected by the controls.  C acts as the identity on
    // every level that is neither the target nor a control, so with
    // skip-level edges only the active levels materialize a node — the cost
    // is O(active qubits), independent of the register width and of the
    // gaps between the active qubits.
    const GateMatrix uMinusI{system_.sub(u[0], system_.one()), u[1], u[2],
                             system_.sub(u[3], system_.one())};
    MEdge c{nullptr, system_.one()};
    for (Qubit var = nqubits_; var-- > 0;) {
      const ControlSpec* control = nullptr;
      for (const ControlSpec& candidate : controls) {
        assert(candidate.qubit < nqubits_ && candidate.qubit != target);
        if (candidate.qubit == var) {
          assert(control == nullptr && "qubit controlled twice");
          control = &candidate;
        }
      }
      if (var == target) {
        c = makeMNode(var, {scale(c, uMinusI[0]), scale(c, uMinusI[1]), scale(c, uMinusI[2]),
                            scale(c, uMinusI[3])});
      } else if (control != nullptr) {
        if (control->positive) {
          c = makeMNode(var, {zeroMatrix(), zeroMatrix(), zeroMatrix(), c});
        } else {
          c = makeMNode(var, {c, zeroMatrix(), zeroMatrix(), zeroMatrix()});
        }
      }
      // else: inactive level — the identity stays implicit in the edge.
    }
    return add(makeIdentity(), enteringAt(c, 0));
  }

  /// makeGate through the gate memo (core/gate_memo.hpp): the first call
  /// for a key builds makeGate(matrix(), key.target, key.controls), every
  /// later one until the next garbageCollect() returns that edge.  A hit
  /// neither allocates nor touches the weight system: `matrix` runs only on
  /// a build.  Under a tolerance-mode system this fixes a gate's weights at
  /// their first interning, as the lossless operation caches fix results.
  template <class MatrixFn>
  [[nodiscard]] MEdge memoizedGate(const GateKey& key, MatrixFn&& matrix) {
    MEdge gate;
    if (gateMemo_.lookup(key, gate)) {
      stats_.gateMemo.hits.inc();
      return gate;
    }
    stats_.gateMemo.builds.inc();
    gate = makeGate(std::forward<MatrixFn>(matrix)(), key.target, key.controls);
    gateMemo_.insert(key, gate);
    return gate;
  }

  // -- arithmetic ---------------------------------------------------------------

  [[nodiscard]] VEdge add(const VEdge& a, const VEdge& b) { return addImpl(a, b); }
  [[nodiscard]] MEdge add(const MEdge& a, const MEdge& b) { return addImpl(a, b); }

  /// Matrix-vector product M|v>.
  [[nodiscard]] VEdge multiply(const MEdge& m, const VEdge& v) { return multiplyImpl(m, v); }
  /// Matrix-matrix product A*B.
  [[nodiscard]] MEdge multiply(const MEdge& a, const MEdge& b) { return multiplyImpl(a, b); }

  /// |top> (x) |bottom>; top's variables must all lie above bottom's.
  [[nodiscard]] VEdge kronecker(const VEdge& top, const VEdge& bottom) {
    return kroneckerImpl(top, bottom);
  }
  /// A (x) B for matrices; same variable discipline as the vector overload.
  [[nodiscard]] MEdge kronecker(const MEdge& top, const MEdge& bottom) {
    return kroneckerImpl(top, bottom);
  }

  /// Conjugate transpose (adjoint) of a matrix DD.  Skip spans transpose to
  /// themselves (identity is self-adjoint), so the result re-enters at the
  /// input's level; the cache stores the node-level adjoint.
  [[nodiscard]] MEdge conjugateTranspose(const MEdge& a) {
    if (system_.isZero(a.w)) {
      return zeroMatrix();
    }
    const Weight w = system_.conj(a.w);
    if (a.isTerminal()) {
      return {nullptr, w};
    }
    const NodeKey key{a.node};
    MEdge hit;
    if (transposeCache_.lookup(key, hit)) {
      stats_.transpose.hits.inc();
      return enteringAt(weighted(hit, w), a.var);
    }
    stats_.transpose.misses.inc();
    std::array<MEdge, 4> children{
        conjugateTranspose(a.node->e[0]), conjugateTranspose(a.node->e[2]),
        conjugateTranspose(a.node->e[1]), conjugateTranspose(a.node->e[3])};
    const MEdge result = makeMNode(a.node->var, children);
    if (transposeCache_.insert(key, result)) {
      stats_.transpose.evictions.inc();
    }
    return enteringAt(weighted(result, w), a.var);
  }

  /// True iff the two matrix DDs represent the same unitary up to a global
  /// phase: canonical diagrams make this a root comparison plus one
  /// magnitude check on the root-weight ratio.  (Useful when comparing
  /// against Solovay-Kitaev output, which is projective.)
  [[nodiscard]] bool equalUpToGlobalPhase(const MEdge& a, const MEdge& b) {
    if (a.node != b.node || a.var != b.var) {
      // Same node entered at different levels = different identity padding:
      // different operators, phase notwithstanding.
      return false;
    }
    if (a.w == b.w) {
      return true;
    }
    if (system_.isZero(a.w) || system_.isZero(b.w)) {
      return false;
    }
    // ratio = a.w / b.w must have |ratio| == 1.
    const Weight ratio = system_.div(a.w, b.w);
    const Weight magnitude = system_.mul(ratio, system_.conj(ratio));
    return system_.isOne(magnitude);
  }

  /// Fidelity |<a|b>|^2 as a double (exact up to the final conversion for
  /// the algebraic system).
  [[nodiscard]] double fidelity(const VEdge& a, const VEdge& b) {
    const auto overlap = system_.toComplex(innerProduct(a, b));
    return std::norm(overlap);
  }

  /// Expectation value <psi| M |psi> as a weight.
  [[nodiscard]] Weight expectationValue(const MEdge& observable, const VEdge& state) {
    const VEdge applied = multiply(observable, state);
    return innerProduct(state, applied);
  }

  /// Matrix trace tr(A) as a weight (sum of the 2^n diagonal entries,
  /// computed in O(|DD|) with memoization).
  [[nodiscard]] Weight trace(const MEdge& a) { return traceImpl(a, 0); }

  /// Process fidelity |tr(A^dagger B)| / 2^n — the standard "equal up to
  /// global phase" metric of DD-based equivalence checkers.  1.0 iff the
  /// unitaries coincide up to phase.
  [[nodiscard]] double processFidelity(const MEdge& a, const MEdge& b) {
    const auto overlap = multiply(conjugateTranspose(a), b);
    const auto traced = system_.toComplex(trace(overlap));
    return std::abs(traced) / std::ldexp(1.0, static_cast<int>(nqubits_));
  }

  /// <a|b> (conjugate-linear in a).
  [[nodiscard]] Weight innerProduct(const VEdge& a, const VEdge& b) {
    if (system_.isZero(a.w) || system_.isZero(b.w)) {
      return system_.zero();
    }
    const Weight w = system_.mul(system_.conj(a.w), b.w);
    if (a.isTerminal() && b.isTerminal()) {
      return w;
    }
    assert(!a.isTerminal() && !b.isTerminal() && a.node->var == b.node->var);
    const NodePairKey key{a.node, b.node};
    Weight hit;
    if (innerCache_.lookup(key, hit)) {
      stats_.inner.hits.inc();
      return system_.mul(w, hit);
    }
    stats_.inner.misses.inc();
    Weight sum = system_.zero();
    for (std::size_t i = 0; i < 2; ++i) {
      sum = system_.add(sum, innerProduct(a.node->e[i], b.node->e[i]));
    }
    if (innerCache_.insert(key, sum)) {
      stats_.inner.evictions.inc();
    }
    return system_.mul(w, sum);
  }

  // -- approximation (fidelity-bounded pruning, arXiv 2002.04904) ---------------

  /// Outcome of one prune() run.  When nothing was pruned (budget too small
  /// for even the lightest subtree, zero/terminal input, or pruning would
  /// have removed all remaining mass) `edge` is the input edge unchanged —
  /// same node pointer, same weight — and achievedFidelity stays 1.
  struct PruneResult {
    VEdge edge;                    ///< pruned + renormalized state (or the input)
    double achievedFidelity = 1.0; ///< |<pruned|input>|^2, measured in raw doubles
    double budgetSpent = 0.0;      ///< contribution mass of the removed edges
    std::size_t edgesPruned = 0;   ///< child edges redirected to the zero vector
    std::size_t nodesBefore = 0;   ///< countNodes(input)
    std::size_t nodesAfter = 0;    ///< countNodes(edge)
  };

  /// Remove the lowest-contribution subtrees of a state DD until the removed
  /// |amplitude|^2 mass would exceed `fidelityBudget`, then renormalize.
  ///
  /// The contribution of edge (v, i) is the total squared amplitude mass the
  /// state routes through it: in(v) * |w_i|^2 * norm2(child_i), where norm2
  /// is the squared subtree norm (one upward pass) and in(v) is the squared
  /// product of edge weights over all root-to-v paths (one downward pass in
  /// variable order, seeded with |w_root|^2).  Contributions across any cut
  /// sum to the squared state norm, so greedily removing edges while the
  /// running sum stays <= budget guarantees fidelity >= 1 - budget against
  /// the input state (for a normalized input).  Ties are broken by a DFS
  /// preorder ordinal of the owning node — a structural order, so the result
  /// depends only on the diagram, not on the history that built it.
  ///
  /// The surviving diagram is rebuilt bottom-up through makeVNode (pruned
  /// edges become the zero vector), which keeps it canonical: snapshots of a
  /// pruned state round-trip byte-identically.  Numeric systems only — the
  /// algebraic system is exact by contract and throws std::logic_error.
  ///
  /// Cost: every per-node quantity lives in package-owned vectors indexed by
  /// the preorder ordinal (see PruneScratch), so a call allocates nothing
  /// once the scratch has grown to the diagram, and a call whose budget is
  /// below every contribution ends after the two passes.
  [[nodiscard]] PruneResult prune(const VEdge& root, double fidelityBudget) {
    if constexpr (System::kExact) {
      (void)root;
      (void)fidelityBudget;
      throw std::logic_error("Package::prune: the algebraic system is exact; "
                             "fidelity-bounded approximation is numeric-only");
    } else {
      PruneResult result;
      result.edge = root;
      if (fidelityBudget <= 0.0 || root.isTerminal() || system_.isZero(root.w)) {
        result.nodesBefore = countNodes(root);
        result.nodesAfter = result.nodesBefore;
        return result;
      }
      PruneScratch& s = pruneScratch_;

      // Upward pass: number the nodes in DFS preorder and compute squared
      // subtree norms.  The ordinal is stored as node->visit = base + ordinal
      // in a range of visit epochs reserved up front (no diagram has more
      // nodes than the arena holds), so every later traversal's epoch is
      // fresh even if this call throws.
      s.base = visitEpoch_ + 1;
      visitEpoch_ += 1 + std::get<ArityTables<VNode>>(tables_).mem.inUse();
      s.preorder.clear();
      s.norm2.clear();
      (void)pruneNumber(root.node);
      const std::size_t count = s.preorder.size();
      assert(s.base + count <= visitEpoch_ + 1);
      result.nodesBefore = count;
      result.nodesAfter = count;

      // Downward pass in variable order (vector DDs are quasi-reduced, so
      // var-ascending is topological): a stable counting sort of the
      // preorder by var, then accumulate the in-mass of every node and emit
      // the candidates.  A candidate above the whole budget can never be
      // selected (the greedy scan stops at contribution > budget - spent,
      // spent >= 0), so it is dropped before sorting.
      s.varStart.assign(nqubits_ + 1, 0);
      for (const VNode* node : s.preorder) {
        ++s.varStart[node->var + 1];
      }
      for (Qubit var = 0; var < nqubits_; ++var) {
        s.varStart[var + 1] += s.varStart[var];
      }
      s.topo.resize(count);
      for (std::size_t ordinal = 0; ordinal < count; ++ordinal) {
        s.topo[s.varStart[s.preorder[ordinal]->var]++] = ordinal;
      }
      s.inMass.assign(count, 0.0);
      s.inMass[0] = weightNorm2(root.w);
      s.candidates.clear();
      for (const std::size_t ordinal : s.topo) {
        const VNode* node = s.preorder[ordinal];
        const double in = s.inMass[ordinal];
        for (std::size_t slot = 0; slot < 2; ++slot) {
          const VEdge& child = node->e[slot];
          if (system_.isZero(child.w)) {
            continue;
          }
          const double share = in * weightNorm2(child.w);
          const double childNorm2 = child.isTerminal() ? 1.0 : s.norm2[pruneOrdinal(child.node)];
          const double contribution = share * childNorm2;
          if (!(contribution > fidelityBudget)) {
            s.candidates.push_back({contribution, ordinal, slot});
          }
          if (!child.isTerminal()) {
            s.inMass[pruneOrdinal(child.node)] += share;
          }
        }
      }
      if (s.candidates.empty()) {
        return result;
      }

      // Greedy selection, cheapest contributions first.  Candidates ascend,
      // so the first one that no longer fits ends the scan.  Overlap (an
      // edge inside an already-selected subtree) only double-counts spent
      // mass, which errs on the conservative side of the fidelity bound.
      std::sort(s.candidates.begin(), s.candidates.end(),
                [](const PruneCandidate& a, const PruneCandidate& b) {
                  if (a.contribution != b.contribution) {
                    return a.contribution < b.contribution;
                  }
                  if (a.ordinal != b.ordinal) {
                    return a.ordinal < b.ordinal;
                  }
                  return a.slot < b.slot;
                });
      double spent = 0.0;
      s.flags.assign(count, 0);
      std::size_t edgesPruned = 0;
      for (const PruneCandidate& candidate : s.candidates) {
        if (candidate.contribution > fidelityBudget - spent) {
          break;
        }
        spent += candidate.contribution;
        s.flags[candidate.ordinal] |= static_cast<std::uint8_t>(1U << candidate.slot);
        ++edgesPruned;
      }
      if (edgesPruned == 0) {
        return result;
      }

      // Rebuild the surviving diagram (and measure it) bottom-up.
      s.rebuilt.resize(count);
      s.rawNorm2.resize(count);
      s.overlap.resize(count);
      const VEdge rebuiltRoot = pruneRebuild(root.node);
      VEdge pruned{rebuiltRoot.node, system_.mul(root.w, rebuiltRoot.w), rebuiltRoot.var};
      if (pruned.node == nullptr && system_.isZero(pruned.w)) {
        return result; // budget covered the whole state — nothing to renormalize
      }
      const double remaining = weightNorm2(pruned.w) * s.rawNorm2[0];
      if (!(remaining > 0.0)) {
        return result;
      }
      using Float = typename System::Float;
      const auto rootValue = system_.valueOf(pruned.w);
      const Float scale =
          static_cast<Float>(1) / static_cast<Float>(std::sqrt(remaining));
      pruned.w = system_.fromValue({rootValue.re * scale, rootValue.im * scale});
      const std::complex<double> overlap =
          std::conj(system_.toComplex(pruned.w)) * system_.toComplex(root.w) * s.overlap[0];

      result.edge = pruned;
      result.budgetSpent = spent;
      result.edgesPruned = edgesPruned;
      result.nodesAfter = countNodes(pruned);
      result.achievedFidelity = std::min(1.0, std::norm(overlap));
      stats_.approx.pruneRuns.inc();
      stats_.approx.edgesPruned.inc(edgesPruned);
      stats_.approx.nodesRemoved.inc(
          result.nodesBefore >= result.nodesAfter ? result.nodesBefore - result.nodesAfter : 0);
      return result;
    }
  }

  // -- inspection ----------------------------------------------------------------

  /// Number of DD nodes reachable from the edge (terminals not counted) —
  /// the compactness measure plotted in the paper's figures.  Allocation
  /// free: traversal marks nodes with the package's visit epoch instead of
  /// materializing a visited set.
  [[nodiscard]] std::size_t countNodes(const VEdge& e) const { return countReachable(e.node); }
  [[nodiscard]] std::size_t countNodes(const MEdge& e) const { return countReachable(e.node); }

  /// All 2^n amplitudes as complex doubles.  For the algebraic system the
  /// path products are accumulated exactly and converted only at the leaves,
  /// so the result carries a single final rounding.
  [[nodiscard]] std::vector<std::complex<double>> amplitudes(const VEdge& e) const {
    std::vector<std::complex<double>> out(std::size_t{1} << nqubits_);
    if constexpr (System::kExact) {
      amplitudesExact(e.node, system_.value(e.w), 0, out);
    } else {
      amplitudesApprox(e.node, system_.toComplex(e.w), 0, out);
    }
    return out;
  }

  /// Single amplitude <bits|e>.
  [[nodiscard]] std::complex<double> amplitude(const VEdge& e, std::span<const bool> bits) const {
    assert(bits.size() == nqubits_);
    if constexpr (System::kExact) {
      alg::QOmega acc = system_.value(e.w);
      const VNode* node = e.node;
      for (const bool bit : bits) {
        if (acc.isZero()) {
          return {};
        }
        assert(node != nullptr);
        const VEdge& next = node->e[bit ? 1 : 0];
        acc *= system_.value(next.w);
        node = next.node;
      }
      return acc.toComplex();
    } else {
      std::complex<double> acc = system_.toComplex(e.w);
      const VNode* node = e.node;
      for (const bool bit : bits) {
        if (acc == std::complex<double>{}) {
          return {};
        }
        assert(node != nullptr);
        const VEdge& next = node->e[bit ? 1 : 0];
        acc *= system_.toComplex(next.w);
        node = next.node;
      }
      return acc;
    }
  }

private:
  // -- operation-cache keys ------------------------------------------------------
  // Trivially copyable PODs with strong 64-bit hashes (the computed tables
  // are direct-mapped, so the hash must avalanche into the low bits).

  struct EdgeKey {
    const void* n1;
    Weight w1;
    const void* n2;
    Weight w2;
    friend bool operator==(const EdgeKey&, const EdgeKey&) = default;
    [[nodiscard]] std::uint64_t hash() const noexcept {
      std::uint64_t h = detail::mix64(detail::pointerBits(n1));
      h = detail::hashCombine(h, static_cast<std::uint64_t>(w1));
      h = detail::hashCombine(h, detail::pointerBits(n2));
      h = detail::hashCombine(h, static_cast<std::uint64_t>(w2));
      return h;
    }
  };
  struct NodePairKey {
    const void* n1;
    const void* n2;
    friend bool operator==(const NodePairKey&, const NodePairKey&) = default;
    [[nodiscard]] std::uint64_t hash() const noexcept {
      return detail::hashCombine(detail::mix64(detail::pointerBits(n1)), detail::pointerBits(n2));
    }
  };
  struct NodeKey {
    const void* n;
    friend bool operator==(const NodeKey&, const NodeKey&) = default;
    [[nodiscard]] std::uint64_t hash() const noexcept {
      return detail::mix64(detail::pointerBits(n));
    }
  };

  // -- per-arity tables ----------------------------------------------------------

  /// Everything one node arity owns — its node arena, its unique table and
  /// its add/multiply/Kronecker caches — plus the obs::PackageStats fields
  /// those tables count into.  The package holds one bundle per arity in
  /// tables_; each kernel selects its bundle once by node type.
  template <class NodeT> struct ArityTables {
    using EdgeT = typename NodeT::EdgeT;
    static constexpr bool kVector = NodeT::kBranching == 2;
    static constexpr auto kUniqueStats =
        kVector ? &obs::PackageStats::vUnique : &obs::PackageStats::mUnique;
    static constexpr auto kAddStats = kVector ? &obs::PackageStats::vAdd : &obs::PackageStats::mAdd;
    /// Products *yielding* this arity: matrix-vector for vectors, matrix-matrix
    /// for matrices.
    static constexpr auto kMulStats = kVector ? &obs::PackageStats::mv : &obs::PackageStats::mm;
    static constexpr auto kKronStats =
        kVector ? &obs::PackageStats::vKron : &obs::PackageStats::mKron;

    MemoryManager<NodeT> mem;
    UniqueTable<NodeT> unique;
    ComputedTable<EdgeKey, EdgeT, kAddCacheEntries> addCache;
    ComputedTable<NodePairKey, EdgeT, kMulCacheEntries> mulCache;
    ComputedTable<NodePairKey, EdgeT, kKronCacheEntries> kronCache;

    /// GC sweep: unreferenced nodes leave the unique table for the free list.
    void sweep() {
      unique.sweep([this](NodeT* node) { mem.free(node); });
    }
  };

  // -- unified recursive algorithms ---------------------------------------------

  /// Canonical operand order (addition is commutative).  Keyed on the nodes'
  /// insert serials, not their addresses: under a tolerance-mode system the
  /// operand order steers interning, and heap addresses depend on where
  /// malloc placed the arena chunks (other packages allocate on other
  /// threads) while the insert order does not.  Callers guarantee both
  /// operands are non-terminal.
  template <class EdgeT> [[nodiscard]] bool orderForAdd(const EdgeT& a, const EdgeT& b) const {
    return a.node->seq < b.node->seq || (a.node == b.node && a.w <= b.w);
  }

  /// Skip-level edges (matrix arity only): operands may be implicit
  /// identities — terminal, or skipping past the level where the other
  /// operand has its node.  The recursion descends to the highest
  /// *materialized* level (`core`, the minimum of the operand node
  /// variables), synthesizing the skipping side's diag(x, 0, 0, x) children
  /// on the fly; the result is cached at core level and the shared identity
  /// prefix [entering, core) is re-attached by patching the returned edge's
  /// var — which is also why the computed-table key needs no level field:
  /// for a given (node, weight) operand pair the core level is determined,
  /// and the cached entry is always the core-level result.
  template <class EdgeT>
  [[nodiscard]] EdgeT addImpl(const EdgeT& a, const EdgeT& b) {
    if (system_.isZero(a.w)) {
      return b;
    }
    if (system_.isZero(b.w)) {
      return a;
    }
    if (a.isTerminal() && b.isTerminal()) {
      // Scalars at the bottom, or (matrix) two implicit identities over the
      // same span: either way the sum is (a.w + b.w) times that structure.
      return {nullptr, system_.add(a.w, b.w)};
    }
    constexpr std::size_t N = EdgeT::Node::kBranching;
    if constexpr (N == 2) {
      assert(!a.isTerminal() && !b.isTerminal() && a.node->var == b.node->var);
    } else {
      assert((a.isTerminal() || b.isTerminal() || a.var == b.var) &&
             "matrix add operands must enter at the same level");
    }
    // Entering level of the result; for vectors always the shared node var.
    const Qubit entering = a.isTerminal() ? b.var : a.var;
    const Qubit core = std::min(levelOf(a), levelOf(b));
    const bool ordered = a.isTerminal() || (!b.isTerminal() && orderForAdd(a, b));
    const EdgeT& x = ordered ? a : b;
    const EdgeT& y = ordered ? b : a;
    const EdgeKey key{x.node, x.w, y.node, y.w};
    using Tables = ArityTables<typename EdgeT::Node>;
    auto& cache = std::get<Tables>(tables_).addCache;
    obs::CacheStats& cacheStats = stats_.*Tables::kAddStats;
    EdgeT hit;
    if (cache.lookup(key, hit)) {
      cacheStats.hits.inc();
      return enteringAt(hit, entering);
    }
    cacheStats.misses.inc();
    // Child i of operand z at the core level: the stored successor when z is
    // materialized there, otherwise the implicit identity's diagonal
    // (z itself, entering one level lower) or zero off-diagonal.
    const auto childOf = [&](const EdgeT& z, std::size_t i) -> EdgeT {
      if (z.node != nullptr && z.node->var == core) {
        return weighted(z.node->e[i], z.w);
      }
      if (i == 0 || i == N - 1) {
        return EdgeT{z.node, z.w, z.node != nullptr ? core + 1 : 0};
      }
      return EdgeT{nullptr, system_.zero()};
    };
    std::array<EdgeT, N> children;
    for (std::size_t i = 0; i < N; ++i) {
      children[i] = addImpl(childOf(x, i), childOf(y, i));
    }
    const EdgeT result = makeNode<EdgeT, N>(core, children);
    if (cache.insert(key, result)) {
      cacheStats.evictions.inc();
    }
    return enteringAt(result, entering);
  }

  /// Matrix-vector (result arity 2) and matrix-matrix (result arity 4)
  /// product through one recursion: the result has 2 rows and
  /// N/2 columns, each entry a sum of two partial products.
  ///
  /// Skip-level handling — the heart of the O(active qubits) gate apply:
  ///  - a terminal matrix operand is w·I over every remaining level, so
  ///    M·v = w·v without touching v's subgraph at all (O(1));
  ///  - a terminal right operand (matrix-matrix) symmetrically yields w·A;
  ///  - when both operands skip a shared prefix, the product over that
  ///    prefix is again the identity: recursion jumps straight to the
  ///    highest materialized level (`core`) and the prefix is re-attached by
  ///    patching the result's entering var — one O(1) step per product, not
  ///    one recursion level per skipped qubit;
  ///  - at core, the side not materialized there contributes its implicit
  ///    diag(z, 0, 0, z) children.
  /// The cache key stays the (m.node, v.node) pair: at least one of the two
  /// is materialized at core, so the cached entry is always the
  /// core-entering result for that pair (prefixes of any length share it).
  template <class REdge>
  [[nodiscard]] REdge multiplyImpl(const MEdge& m, const REdge& v) {
    if (system_.isZero(m.w) || system_.isZero(v.w)) {
      return REdge{nullptr, system_.zero()};
    }
    const Weight w = system_.mul(m.w, v.w);
    if (m.isTerminal()) {
      // m is w·identity over every level it spans (or a bare scalar at the
      // bottom): the product is w times the other operand either way.
      return REdge{v.node, w, v.var};
    }
    constexpr std::size_t N = REdge::Node::kBranching;
    if constexpr (N == 4) {
      if (v.isTerminal()) {
        return REdge{m.node, w, m.var};
      }
    } else {
      assert(!v.isTerminal() && v.node->var == v.var);
    }
    assert(m.var == v.var && "multiply operands must enter at the same level");
    const Qubit entering = v.var;
    const Qubit core = std::min(m.node->var, levelOf(v));
    const NodePairKey key{m.node, v.node};
    using Tables = ArityTables<typename REdge::Node>;
    auto& cache = std::get<Tables>(tables_).mulCache;
    obs::CacheStats& cacheStats = stats_.*Tables::kMulStats;
    REdge hit;
    if (cache.lookup(key, hit)) {
      cacheStats.hits.inc();
      return enteringAt(weighted(hit, w), entering);
    }
    cacheStats.misses.inc();
    constexpr std::size_t cols = N / 2;
    // Operand children at the core level; the stripped weights stay factored
    // out (the cache stores the weight-free product).
    const auto mChild = [&](std::size_t i) -> MEdge {
      if (m.node->var == core) {
        return m.node->e[i];
      }
      return (i == 0 || i == 3) ? MEdge{m.node, system_.one(), core + 1} : zeroMatrix();
    };
    const auto vChild = [&](std::size_t i) -> REdge {
      if (v.node->var == core) {
        return v.node->e[i];
      }
      return (i == 0 || i == N - 1) ? REdge{v.node, system_.one(), core + 1}
                                    : REdge{nullptr, system_.zero()};
    };
    std::array<REdge, N> children;
    for (std::size_t row = 0; row < 2; ++row) {
      for (std::size_t col = 0; col < cols; ++col) {
        const REdge p0 = multiplyImpl(mChild(2 * row), vChild(col));
        const REdge p1 = multiplyImpl(mChild(2 * row + 1), vChild(cols + col));
        children[cols * row + col] = addImpl(p0, p1);
      }
    }
    const REdge result = makeNode<REdge, N>(core, children);
    if (cache.insert(key, result)) {
      cacheStats.evictions.inc();
    }
    return enteringAt(weighted(result, w), entering);
  }

  /// Kronecker product.  Matrix edges keep their skips: grafting `bottom`
  /// under a skip edge or a terminal (identity) edge needs no new nodes at
  /// all — the result is the same node entered higher up.  Inside the
  /// recursion, terminal children of `top` are re-entered with their actual
  /// context level so the graft point is known (their canonical var of 0
  /// carries no position).
  template <class EdgeT>
  [[nodiscard]] EdgeT kroneckerImpl(const EdgeT& top, const EdgeT& bottom) {
    constexpr std::size_t N = EdgeT::Node::kBranching;
    if (system_.isZero(top.w) || system_.isZero(bottom.w)) {
      return EdgeT{nullptr, system_.zero()};
    }
    const Weight w = system_.mul(top.w, bottom.w);
    if (top.isTerminal()) {
      if constexpr (N == 2) {
        return EdgeT{bottom.node, w, bottom.var};
      } else {
        // top = identity over [top.var, bottom's levels): graft bottom under
        // the skip.  bottom terminal folds into one identity span.
        return EdgeT{bottom.node, w, bottom.node != nullptr ? top.var : 0};
      }
    }
    const NodePairKey key{top.node, bottom.node};
    using Tables = ArityTables<typename EdgeT::Node>;
    auto& cache = std::get<Tables>(tables_).kronCache;
    obs::CacheStats& cacheStats = stats_.*Tables::kKronStats;
    EdgeT hit;
    if (cache.lookup(key, hit)) {
      cacheStats.hits.inc();
      return enteringAt(weighted(hit, w), top.var);
    }
    cacheStats.misses.inc();
    const EdgeT stripBottom{bottom.node, system_.one(), bottom.var};
    std::array<EdgeT, N> children;
    for (std::size_t i = 0; i < N; ++i) {
      EdgeT child = top.node->e[i];
      if (child.isTerminal()) {
        child.var = top.node->var + 1; // actual context of this terminal
      }
      children[i] = kroneckerImpl(child, stripBottom);
    }
    const EdgeT result = makeNode<EdgeT, N>(top.node->var, children);
    if (cache.insert(key, result)) {
      cacheStats.evictions.inc();
    }
    return enteringAt(weighted(result, w), top.var);
  }

  template <class EdgeT> [[nodiscard]] EdgeT weighted(const EdgeT& e, Weight w) {
    if (system_.isZero(e.w) || system_.isZero(w)) {
      return EdgeT{nullptr, system_.zero()};
    }
    return {e.node, system_.mul(w, e.w), e.var};
  }
  [[nodiscard]] MEdge scale(const MEdge& e, Weight w) { return weighted(e, w); }

  /// The edge's node level, with the terminal counting as the bottom of the
  /// register — the natural extent bound for implicit-identity spans.
  template <class EdgeT> [[nodiscard]] Qubit levelOf(const EdgeT& e) const {
    return e.node != nullptr ? e.node->var : nqubits_;
  }

  /// Re-enter `e` at `var` (prefix patch for skip-level edges); terminal and
  /// zero edges keep their canonical var of 0.
  template <class EdgeT> [[nodiscard]] static EdgeT enteringAt(EdgeT e, Qubit var) {
    e.var = e.node != nullptr ? var : 0;
    return e;
  }

  /// The weight 2^k (trace of a k-level identity span), built by exact
  /// repeated doubling — exact in both weight systems.
  [[nodiscard]] Weight pow2Weight(Qubit k) {
    Weight result = system_.one();
    for (Qubit i = 0; i < k; ++i) {
      result = system_.add(result, result);
    }
    return result;
  }

  /// trace() body with the entering level made explicit: a skipped or
  /// terminal identity span over s levels multiplies the subdiagram's trace
  /// by 2^s (each implicit level doubles the diagonal).  The cache keeps the
  /// per-node trace computed at the node's own level, so entries are shared
  /// across entering levels.
  [[nodiscard]] Weight traceImpl(const MEdge& a, Qubit level) {
    if (system_.isZero(a.w)) {
      return system_.zero();
    }
    if (a.isTerminal()) {
      // w·I over [level, n): 2^(n - level) diagonal entries of w.
      return system_.mul(a.w, pow2Weight(nqubits_ - level));
    }
    Weight per = system_.zero();
    const NodeKey key{a.node};
    if (traceCache_.lookup(key, per)) {
      stats_.trace.hits.inc();
    } else {
      stats_.trace.misses.inc();
      per = system_.add(traceImpl(a.node->e[0], a.node->var + 1),
                        traceImpl(a.node->e[3], a.node->var + 1));
      if (traceCache_.insert(key, per)) {
        stats_.trace.evictions.inc();
      }
    }
    Weight contribution = system_.mul(a.w, per);
    if (a.node->var > level) {
      contribution = system_.mul(contribution, pow2Weight(a.node->var - level));
    }
    return contribution;
  }

  // -- node construction ---------------------------------------------------------

  template <class EdgeT, std::size_t N>
  [[nodiscard]] EdgeT makeNode(Qubit var, std::array<EdgeT, N> children) {
    assert(var < nqubits_);
    // Zero-weight edges point to the terminal canonically; non-zero child
    // edges get their canonical entering level stamped here (a child of a
    // level-`var` node enters at var + 1 by definition — callers may pass
    // edges carried over from other levels, e.g. the snapshot loader).
    bool allZero = true;
    std::array<Weight, N> weights;
    for (std::size_t i = 0; i < N; ++i) {
      if (system_.isZero(children[i].w)) {
        children[i] = EdgeT{nullptr, system_.zero()};
        weights[i] = system_.zero();
      } else {
        allZero = false;
        weights[i] = children[i].w;
        children[i].var = children[i].node != nullptr ? var + 1 : 0;
        assert(children[i].node == nullptr || children[i].node->var > var);
      }
    }
    if (allZero) {
      return EdgeT{nullptr, system_.zero()};
    }
    const Weight factor = system_.normalize(std::span<Weight>(weights));
    for (std::size_t i = 0; i < N; ++i) {
      // Under a tolerant numeric system, normalization may snap a weight to
      // zero; keep the zero-edge canonical form (terminal stub).
      if (system_.isZero(weights[i])) {
        children[i] = EdgeT{nullptr, system_.zero()};
        weights[i] = system_.zero();
      } else {
        children[i].w = weights[i];
      }
    }
    if constexpr (N == 4) {
      // Canonical identity collapse: diag(c, c) ≡ I ⊗ c is never
      // materialized — the child re-enters one level higher instead.
      // Checking *after* normalization (which may unify nearly-equal
      // tolerance-mode weights) guarantees no identity-pattern node can
      // slip into the unique table, so the skipped and materialized forms
      // of one operator can never coexist.
      if (children[1].isTerminal() && system_.isZero(children[1].w) &&
          children[2].isTerminal() && system_.isZero(children[2].w) &&
          !system_.isZero(children[0].w) && children[0].node == children[3].node &&
          children[0].w == children[3].w) {
        EdgeT e = children[0];
        e.w = system_.mul(factor, e.w);
        e.var = e.node != nullptr ? var : 0;
        return e;
      }
    }

    using Tables = ArityTables<typename EdgeT::Node>;
    Tables& tables = std::get<Tables>(tables_);
    auto& unique = tables.unique;
    obs::UniqueTableStats& tableStats = stats_.*Tables::kUniqueStats;
    const std::uint64_t contentHash = hashNodeContents(var, children);
    tableStats.lookups.inc();
    if (auto* existing = unique.find(var, children, contentHash)) {
      tableStats.hits.inc();
      return EdgeT{existing, factor};
    }
    if constexpr (obs::kEnabled) {
      // The insert below will lengthen a chain iff the bucket is occupied.
      if (unique.wouldCollide(contentHash)) {
        tableStats.collisions.inc();
      }
    }
    auto& mem = tables.mem;
    if (mem.available() > 0) {
      stats_.nodeReuses.inc();
    } else {
      stats_.nodeAllocations.inc();
    }
    auto* node = mem.get();
    node->var = var;
    node->ref = 0;
    node->seq = nodeSeq_++;
    node->e = children;
    for (const EdgeT& child : children) {
      if (child.node != nullptr) {
        ++child.node->ref;
      }
    }
    unique.insert(node, contentHash);
    peakNodes_ = std::max(peakNodes_, allocatedNodes());
    return EdgeT{node, factor};
  }

  // -- traversal (allocation-free, visit-epoch marked) --------------------------

  template <class NodeT> [[nodiscard]] std::size_t countReachable(const NodeT* root) const {
    ++visitEpoch_;
    return countVisit(root);
  }
  template <class NodeT> [[nodiscard]] std::size_t countVisit(const NodeT* node) const {
    if (node == nullptr || node->visit == visitEpoch_) {
      return 0;
    }
    node->visit = visitEpoch_;
    std::size_t count = 1;
    for (const auto& child : node->e) {
      count += countVisit(child.node);
    }
    return count;
  }

  // -- prune() bookkeeping (allocation-free, ordinal-indexed) --------------------

  /// One prunable (node, slot) edge.  Sorted by (contribution, ordinal,
  /// slot), a total order over the edges of one diagram.
  struct PruneCandidate {
    double contribution;
    std::size_t ordinal;
    std::size_t slot;
  };

  /// Per-call storage of prune(), reused across calls: every vector is
  /// indexed by a node's DFS-preorder ordinal (node->visit - base) and keeps
  /// its capacity, so prune allocates only while a diagram is larger than
  /// any pruned before.
  struct PruneScratch {
    static constexpr std::uint8_t kRebuilt = 4; ///< flags: bits 0/1 = pruned slots

    std::uint64_t base = 0;                 ///< visit epoch of ordinal 0
    std::vector<const VNode*> preorder;     ///< ordinal -> node
    std::vector<double> norm2;              ///< squared subtree norm of the input
    std::vector<std::size_t> varStart;      ///< counting-sort buckets by var
    std::vector<std::size_t> topo;          ///< ordinals, var-ascending (stable)
    std::vector<double> inMass;             ///< squared root-to-node path mass
    std::vector<PruneCandidate> candidates; ///< edges within the budget
    std::vector<std::uint8_t> flags;        ///< pruned slots + kRebuilt
    std::vector<VEdge> rebuilt;             ///< the node's surviving replacement
    std::vector<double> rawNorm2;           ///< squared norm of rebuilt[ordinal].node
    std::vector<std::complex<double>> overlap; ///< <rebuilt[ordinal].node|node>
  };

  [[nodiscard]] double weightNorm2(Weight w) const { return std::norm(system_.toComplex(w)); }

  /// Ordinal of a node numbered by the current prune() call.
  [[nodiscard]] std::size_t pruneOrdinal(const VNode* node) const {
    assert(node->visit >= pruneScratch_.base);
    return static_cast<std::size_t>(node->visit - pruneScratch_.base);
  }

  /// prune()'s upward pass: number `node` and its unnumbered descendants in
  /// DFS preorder and return the squared subtree norm.  A node is numbered
  /// in this call iff its visit mark is at least `base`: all earlier marks
  /// are older epochs.
  double pruneNumber(const VNode* node) {
    if (node == nullptr) {
      return 1.0; // terminal
    }
    PruneScratch& s = pruneScratch_;
    if (node->visit >= s.base) {
      return s.norm2[pruneOrdinal(node)];
    }
    const std::size_t ordinal = s.preorder.size();
    node->visit = s.base + ordinal;
    s.preorder.push_back(node);
    s.norm2.push_back(0.0);
    double sum = 0.0;
    for (const VEdge& child : node->e) {
      if (!system_.isZero(child.w)) {
        sum += weightNorm2(child.w) * pruneNumber(child.node);
      }
    }
    s.norm2[ordinal] = sum;
    return sum;
  }

  /// prune()'s rebuild, memoized per original node: the node with its
  /// pruned slots redirected to the zero vector, through makeVNode so the
  /// result is canonical.  Alongside, in raw double arithmetic (NOT through
  /// the weight table: under an ε-unified system every mul/add snaps to an
  /// entry within ε, which distorts exactly the O(budget)-sized quantities
  /// measured here — observed on Grover at ε = 1e-5 as a doubled loss), the
  /// squared norm of the replacement node and its overlap with the original.
  /// Every child of a replacement is the replacement of the original child,
  /// so both recurse through the original node's ordinal.
  VEdge pruneRebuild(const VNode* node) {
    PruneScratch& s = pruneScratch_;
    const std::size_t ordinal = pruneOrdinal(node);
    if ((s.flags[ordinal] & PruneScratch::kRebuilt) != 0) {
      return s.rebuilt[ordinal];
    }
    const unsigned mask = s.flags[ordinal];
    std::array<VEdge, 2> children;
    for (std::size_t slot = 0; slot < 2; ++slot) {
      const VEdge& child = node->e[slot];
      if (((mask >> slot) & 1U) != 0 || system_.isZero(child.w)) {
        children[slot] = zeroVector();
      } else if (child.isTerminal()) {
        children[slot] = child;
      } else {
        const VEdge sub = pruneRebuild(child.node);
        children[slot] = {sub.node, system_.mul(child.w, sub.w), sub.var};
      }
    }
    const auto isZeroEdge = [this](const VEdge& e) {
      return e.node == nullptr && system_.isZero(e.w);
    };
    const VEdge replacement = isZeroEdge(children[0]) && isZeroEdge(children[1])
                                  ? zeroVector()
                                  : makeVNode(node->var, children);
    double norm2 = 0.0;
    std::complex<double> overlap = 0.0;
    if (replacement.node != nullptr) {
      for (std::size_t slot = 0; slot < 2; ++slot) {
        const VEdge& kept = replacement.node->e[slot];
        const VEdge& input = node->e[slot];
        if (system_.isZero(kept.w)) {
          continue;
        }
        assert(kept.node == nullptr ||
               kept.node == s.rebuilt[pruneOrdinal(input.node)].node);
        const bool terminal = kept.node == nullptr || input.node == nullptr;
        norm2 += weightNorm2(kept.w) * (terminal ? 1.0 : s.rawNorm2[pruneOrdinal(input.node)]);
        if (!system_.isZero(input.w)) {
          overlap += std::conj(system_.toComplex(kept.w)) * system_.toComplex(input.w) *
                     (terminal ? std::complex<double>(1.0) : s.overlap[pruneOrdinal(input.node)]);
        }
      }
    }
    s.flags[ordinal] |= PruneScratch::kRebuilt;
    s.rebuilt[ordinal] = replacement;
    s.rawNorm2[ordinal] = norm2;
    s.overlap[ordinal] = overlap;
    return replacement;
  }

  /// Bottom-up construction for makeStateFromWeights: the DD over variables
  /// [var, n) representing the amplitude block `amplitudes`.
  [[nodiscard]] VEdge buildStateRange(Qubit var, std::span<const Weight> amplitudes) {
    if (var == nqubits_) {
      assert(amplitudes.size() == 1);
      return VEdge{nullptr, amplitudes[0]};
    }
    const std::size_t half = amplitudes.size() / 2;
    std::array<VEdge, 2> children{buildStateRange(var + 1, amplitudes.subspan(0, half)),
                                  buildStateRange(var + 1, amplitudes.subspan(half))};
    if (system_.isZero(children[0].w) && system_.isZero(children[1].w)) {
      return zeroVector();
    }
    return makeVNode(var, children);
  }

  void amplitudesExact(const VNode* node, const alg::QOmega& acc, std::size_t base,
                       std::vector<std::complex<double>>& out) const {
    if (acc.isZero()) {
      return;
    }
    if (node == nullptr) {
      out[base] = acc.toComplex();
      return;
    }
    const std::size_t stride = std::size_t{1} << (nqubits_ - node->var - 1);
    amplitudesExact(node->e[0].node, acc * system_.value(node->e[0].w), base, out);
    amplitudesExact(node->e[1].node, acc * system_.value(node->e[1].w), base + stride, out);
  }

  void amplitudesApprox(const VNode* node, std::complex<double> acc, std::size_t base,
                        std::vector<std::complex<double>>& out) const {
    if (acc == std::complex<double>{}) {
      return;
    }
    if (node == nullptr) {
      out[base] = acc;
      return;
    }
    const std::size_t stride = std::size_t{1} << (nqubits_ - node->var - 1);
    amplitudesApprox(node->e[0].node, acc * system_.toComplex(node->e[0].w), base, out);
    amplitudesApprox(node->e[1].node, acc * system_.toComplex(node->e[1].w), base + stride, out);
  }

  // -- cache registry ------------------------------------------------------------
  // The single source of truth mapping CacheKind bits to the table instances:
  // calls f(kind, table) for each operation cache.

  template <class F> void forEachCache(F&& f) {
    auto& [vectors, matrices] = tables_;
    f(CacheKind::VAdd, vectors.addCache);
    f(CacheKind::MAdd, matrices.addCache);
    f(CacheKind::MV, vectors.mulCache);
    f(CacheKind::MM, matrices.mulCache);
    f(CacheKind::VKron, vectors.kronCache);
    f(CacheKind::MKron, matrices.kronCache);
    f(CacheKind::Transpose, transposeCache_);
    f(CacheKind::Inner, innerCache_);
    f(CacheKind::Trace, traceCache_);
  }

  Qubit nqubits_;
  System system_;
  obs::PackageStats stats_;

  std::tuple<ArityTables<VNode>, ArityTables<MNode>> tables_;
  std::size_t peakNodes_ = 0;
  std::uint64_t nodeSeq_ = 0; ///< next insert serial

  std::size_t gcWatermark_ = 0;
  std::size_t gcRuns_ = 0;
  GcReport lastGcReport_{};

  mutable std::uint64_t visitEpoch_ = 0; ///< current traversal generation
  PruneScratch pruneScratch_;            ///< prune()'s reusable per-node storage

  ComputedTable<NodeKey, MEdge, kUnaryCacheEntries> transposeCache_;
  ComputedTable<NodePairKey, Weight, kInnerCacheEntries> innerCache_;
  ComputedTable<NodeKey, Weight, kUnaryCacheEntries> traceCache_;
  GateMemo<MEdge> gateMemo_; ///< memoizedGate()'s built gates, cleared by GC
};

} // namespace qadd::dd
