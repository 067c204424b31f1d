/// \file simulator.hpp
/// DD-based quantum-circuit simulation (the workload of the paper's
/// evaluation): the state starts as |0...0> and is evolved gate by gate via
/// QMDD matrix-vector multiplication; the full-circuit unitary can likewise
/// be accumulated via matrix-matrix multiplication (used for verification /
/// equivalence checking).
#pragma once

#include "core/algebraic_system.hpp"
#include "core/approximation.hpp"
#include "core/numeric_system.hpp"
#include "core/package.hpp"
#include "io/checkpoint.hpp"
#include "io/snapshot.hpp"
#include "obs/timeline.hpp"
#include "obs/tracer.hpp"
#include "qc/circuit.hpp"
#include "qc/gates.hpp"

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace qadd::qc {

/// Build the package-level gate matrix for an operation.
template <class System>
[[nodiscard]] typename dd::Package<System>::GateMatrix
makeWeightMatrix(dd::Package<System>& package, const Operation& operation) {
  typename dd::Package<System>::GateMatrix matrix;
  if constexpr (System::kExact) {
    const auto exact = algebraicMatrix(operation.kind); // throws for rotations
    for (std::size_t i = 0; i < 4; ++i) {
      matrix[i] = package.system().intern(exact[i]);
    }
  } else {
    // Compute the entries in the system's own precision (an extended-
    // precision system must not be fed double-rounded constants).
    using Float = typename System::Float;
    const auto numeric =
        complexMatrixT<Float>(operation.kind, static_cast<Float>(operation.angle));
    for (std::size_t i = 0; i < 4; ++i) {
      matrix[i] = package.system().fromComplex(numeric[i]);
    }
  }
  return matrix;
}

/// The full n-qubit DD of one operation (target + controls embedded),
/// built once per package and then served from its gate memo until the next
/// garbage collection (dd::Package::memoizedGate).  The key is what fixes
/// the gate: kind, the angle's bit pattern, target and controls.
template <class System>
[[nodiscard]] typename dd::Package<System>::MEdge
makeOperationDD(dd::Package<System>& package, const Operation& operation) {
  const dd::GateKey key{static_cast<std::uint32_t>(operation.kind),
                        std::bit_cast<std::uint64_t>(operation.angle), operation.target,
                        operation.controls};
  return package.memoizedGate(key, [&] { return makeWeightMatrix(package, operation); });
}

/// Step-wise circuit simulator.  Use `Simulator<dd::NumericSystem>` for the
/// baseline numerical representation and `Simulator<dd::AlgebraicSystem>` for
/// the paper's exact algebraic one.
template <class System> class Simulator {
public:
  using Package = dd::Package<System>;
  using VEdge = typename Package::VEdge;

  struct Options {
    /// Run garbage collection when the live node count exceeds this
    /// (installed as the package's GC watermark; 0 disables auto-GC).
    std::size_t gcNodeThreshold = 200'000;
  };

  /// One garbage-collection run observed during simulation, tagged with the
  /// number of gates applied when it fired.
  struct GcEvent {
    std::size_t gateIndex = 0;
    dd::GcReport report;
  };

  explicit Simulator(Circuit circuit, typename System::Config config = {}, Options options = {})
      : circuit_(std::move(circuit)),
        package_(std::make_shared<Package>(circuit_.qubits(), config)), options_(options) {
    // GC is the package's job now: it auto-collects from decRef once the
    // live node count crosses the watermark; the simulator only records the
    // events (see step()).
    package_->setGcWatermark(options_.gcNodeThreshold);
    reset();
  }

  /// Run on an existing package instead of building a private one: the
  /// serving layer keeps one package per session so the weight tables,
  /// unique tables and operation caches persist across jobs (cross-request
  /// table reuse is where DD packages win).  The package's width must match
  /// the circuit.
  /// (Package-first parameter order keeps overload resolution away from the
  /// config ctor: `Simulator(circuit, {}, options)` must stay unambiguous.)
  Simulator(std::shared_ptr<Package> package, Circuit circuit, Options options = {})
      : circuit_(std::move(circuit)), package_(std::move(package)), options_(options) {
    if (package_ == nullptr || package_->qubits() != circuit_.qubits()) {
      throw std::invalid_argument("Simulator: package width does not match the circuit");
    }
    package_->setGcWatermark(options_.gcNodeThreshold);
    reset();
  }

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  /// Movable; the moved-from simulator releases its claim on the state.
  Simulator(Simulator&& other) noexcept
      : circuit_(std::move(other.circuit_)), package_(std::move(other.package_)),
        options_(other.options_), state_(other.state_), hasState_(other.hasState_),
        next_(other.next_), gcEvents_(std::move(other.gcEvents_)), approx_(other.approx_),
        approxBudgetLeft_(other.approxBudgetLeft_), approxFidelity_(other.approxFidelity_),
        approxPrunedNodes_(other.approxPrunedNodes_) {
    other.hasState_ = false;
  }
  Simulator& operator=(Simulator&&) = delete;

  /// Drop the external reference on the current state.  With a private
  /// package this is moot (the package dies with us); with a shared one it is
  /// what lets the next job's garbage collection reclaim this state.
  ~Simulator() {
    if (hasState_) {
      package_->decRef(state_);
    }
  }

  /// Reset the state to |0...0> and rewind to the first gate.
  void reset() {
    if (hasState_) {
      package_->decRef(state_);
    }
    state_ = package_->makeZeroState();
    package_->incRef(state_);
    hasState_ = true;
    next_ = 0;
    gcEvents_.clear();
    approxBudgetLeft_ = approx_.budget;
    approxFidelity_ = 1.0;
    approxPrunedNodes_ = 0;
  }

  /// Install a fidelity-bounded approximation policy (see
  /// docs/APPROXIMATION.md): after gate applications, the state is pruned
  /// under the spec's budget — all at once after the last gate (OneShot) or
  /// rebudgeted over the remaining gates after every gate (PerGate).
  /// Resets the cumulative fidelity/budget tracking.  \throws
  /// std::invalid_argument on an exact (algebraic) system with an active
  /// policy, or a budget outside [0, 1).
  void setApproximation(const dd::ApproxSpec& approx) {
    if constexpr (System::kExact) {
      if (approx.policy != dd::ApproxPolicy::None) {
        throw std::invalid_argument("Simulator: the algebraic system is exact; "
                                    "approximation requires a numeric system");
      }
    }
    if (approx.budget < 0.0 || approx.budget >= 1.0) {
      throw std::invalid_argument("Simulator: approximation budget must be in [0, 1)");
    }
    approx_ = approx;
    approxBudgetLeft_ = approx.budget;
    approxFidelity_ = 1.0;
    approxPrunedNodes_ = 0;
  }

  /// Apply the next gate; false when the circuit is exhausted.
  bool step() {
    if (next_ >= circuit_.size()) {
      return false;
    }
    const Operation& operation = circuit_.operations()[next_];
    obs::Tracer::Span gateSpan;
    if (auto& tracer = obs::Tracer::global(); tracer.enabled()) {
      gateSpan = tracer.span(std::string("gate:") += gateName(operation.kind), "simulate");
    }
    const auto gate = makeOperationDD(*package_, operation);
    VEdge updated;
    {
      const auto applySpan = obs::Tracer::global().span("mv", "dd");
      updated = package_->multiply(gate, state_);
    }
    const std::size_t gcRunsBefore = package_->gcRuns();
    package_->incRef(updated);
    package_->decRef(state_); // may auto-GC at the watermark
    state_ = updated;
    ++next_;
    if (package_->gcRuns() != gcRunsBefore) {
      gcEvents_.push_back({next_, package_->lastGcReport()});
    }
    maybeApproximate();
    if (auto& timeline = obs::Timeline::global(); timeline.enabled()) {
      obs::Timeline::Sample sample;
      sample.kind = obs::Timeline::Kind::Gate;
      sample.gateIndex = next_;
      obs::Timeline::fillSeriesContext(sample);
      package_->sampleTimeline(sample);
      timeline.record(std::move(sample));
    }
    return true;
  }

  /// Run to completion (optionally invoking `perGate(simulator)` after each
  /// gate application).
  template <class Callback = std::nullptr_t> void run(Callback&& perGate = nullptr) {
    while (step()) {
      if constexpr (!std::is_same_v<std::decay_t<Callback>, std::nullptr_t>) {
        perGate(*this);
      }
    }
  }

  [[nodiscard]] const VEdge& state() const { return state_; }
  [[nodiscard]] Package& package() { return *package_; }
  [[nodiscard]] const Package& package() const { return *package_; }
  [[nodiscard]] const Circuit& circuit() const { return circuit_; }
  /// Index of the next gate to apply == number of gates applied so far.
  [[nodiscard]] std::size_t gateIndex() const { return next_; }

  /// Garbage-collection runs triggered so far (cleared by reset()).
  [[nodiscard]] const std::vector<GcEvent>& gcEvents() const { return gcEvents_; }

  /// The installed approximation spec ({} when exact).
  [[nodiscard]] const dd::ApproxSpec& approximation() const { return approx_; }
  /// Cumulative fidelity of all prune runs so far: the product of per-run
  /// achieved fidelities, a lower bound on |<state|exact state>|^2.  1.0
  /// while nothing has been pruned.
  [[nodiscard]] double approxFidelity() const { return approxFidelity_; }
  /// State node-count decrease summed over all prune runs so far.
  [[nodiscard]] std::size_t approxPrunedNodes() const { return approxPrunedNodes_; }

  /// Number of nodes of the current state DD (the paper's compactness
  /// metric).
  [[nodiscard]] std::size_t stateNodes() const { return package_->countNodes(state_); }

  /// Probability of measuring `bits` (|amplitude|^2).
  [[nodiscard]] double probability(std::span<const bool> bits) const {
    const auto amplitude = package_->amplitude(state_, bits);
    return std::norm(amplitude);
  }

  // -- checkpoint / restore ------------------------------------------------------

  /// Serialize the simulation position (gate index + circuit identity) and
  /// the current state DD as a QCKP checkpoint blob.
  [[nodiscard]] std::vector<std::uint8_t> saveCheckpoint() {
    io::CheckpointData data;
    data.gateIndex = next_;
    data.circuitText = circuit_.toText();
    data.snapshot = io::saveVector(*package_, state_);
    return io::writeCheckpoint(data);
  }

  /// saveCheckpoint() straight to a file.
  void saveCheckpointFile(const std::string& path) { io::writeBytesFile(path, saveCheckpoint()); }

  /// Restore gate position and state from a checkpoint taken on the *same*
  /// circuit (verified via the serialized circuit text).  The state DD
  /// re-interns through this simulator's package, so an algebraic resume is
  /// bit-identical to the state at checkpoint time.  \throws
  /// io::SnapshotError on corruption or any circuit/system/width mismatch.
  void resumeFrom(std::span<const std::uint8_t> bytes) {
    const io::CheckpointData data = io::readCheckpoint(bytes);
    if (data.circuitText != circuit_.toText()) {
      throw io::SnapshotError("checkpoint was taken on a different circuit");
    }
    if (data.gateIndex > circuit_.size()) {
      throw io::SnapshotError("checkpoint gate index exceeds the circuit length");
    }
    const VEdge restored = io::loadVector(*package_, std::span<const std::uint8_t>(data.snapshot));
    package_->incRef(restored);
    if (hasState_) {
      package_->decRef(state_);
    }
    state_ = restored;
    hasState_ = true;
    next_ = static_cast<std::size_t>(data.gateIndex);
    gcEvents_.clear();
  }

private:
  /// Prune the state per the installed policy.  Runs after every gate for
  /// PerGate (spending an equal share of the remaining budget over the
  /// remaining gates, so unspent budget rolls forward) and only after the
  /// final gate for OneShot.  No-op on exact systems and inactive specs.
  void maybeApproximate() {
    if constexpr (!System::kExact) {
      if (!approx_.active() || approxBudgetLeft_ <= 0.0) {
        return;
      }
      double budget = 0.0;
      if (approx_.policy == dd::ApproxPolicy::OneShot) {
        if (next_ < circuit_.size()) {
          return;
        }
        budget = approxBudgetLeft_;
      } else {
        const std::size_t remainingGates = circuit_.size() - next_;
        budget = approxBudgetLeft_ / static_cast<double>(remainingGates + 1);
      }
      const auto pruned = package_->prune(state_, budget);
      if (pruned.edgesPruned == 0) {
        return;
      }
      // Charge the ledger with whichever is larger: the contribution mass the
      // greedy selection accounted for, or the loss actually measured on the
      // stored result (ε-unification can perturb the renormalized root weight
      // by up to ε, so the two can differ).  Charging the max keeps the
      // cumulative invariant  prod(achieved_i) >= 1 - budget  sound.
      const double lost = std::max(pruned.budgetSpent, 1.0 - pruned.achievedFidelity);
      approxBudgetLeft_ -= lost;
      approxFidelity_ *= pruned.achievedFidelity;
      approxPrunedNodes_ += pruned.nodesBefore >= pruned.nodesAfter
                                ? pruned.nodesBefore - pruned.nodesAfter
                                : 0;
      package_->incRef(pruned.edge);
      package_->decRef(state_); // may auto-GC; the new state holds its ref
      state_ = pruned.edge;
    }
  }

  Circuit circuit_;
  std::shared_ptr<Package> package_;
  Options options_;
  VEdge state_{};
  bool hasState_ = false;
  std::size_t next_ = 0;
  std::vector<GcEvent> gcEvents_;
  dd::ApproxSpec approx_{};
  double approxBudgetLeft_ = 0.0;
  double approxFidelity_ = 1.0;
  std::size_t approxPrunedNodes_ = 0;
};

/// Accumulate the full-circuit unitary U = G_m ... G_2 G_1 as a matrix DD.
template <class System>
[[nodiscard]] typename dd::Package<System>::MEdge buildUnitary(dd::Package<System>& package,
                                                               const Circuit& circuit) {
  if (circuit.qubits() != package.qubits()) {
    throw std::invalid_argument("buildUnitary: package width mismatch");
  }
  auto unitary = package.makeIdentity();
  package.incRef(unitary);
  for (const Operation& operation : circuit.operations()) {
    obs::Tracer::Span gateSpan;
    if (auto& tracer = obs::Tracer::global(); tracer.enabled()) {
      gateSpan = tracer.span(std::string("unitary:") += gateName(operation.kind), "simulate");
    }
    const auto gate = makeOperationDD(package, operation);
    const auto mmSpan = obs::Tracer::global().span("mm", "dd");
    const auto next = package.multiply(gate, unitary);
    package.incRef(next);
    package.decRef(unitary);
    unitary = next;
  }
  return unitary;
}

} // namespace qadd::qc
