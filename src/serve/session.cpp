#include "serve/session.hpp"

#include "core/algebraic_system.hpp"
#include "core/numeric_system.hpp"
#include "core/package.hpp"
#include "io/checkpoint.hpp"
#include "io/snapshot.hpp"
#include "qc/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

namespace qadd::serve {

namespace {

/// The per-System session backend: one shared package (weight tables, unique
/// tables and op caches live here and persist across jobs) plus a simulator
/// holding the state of the most recent job.
template <class System> class BackendImpl final : public SessionBackend {
public:
  using Package = dd::Package<System>;
  using Simulator = qc::Simulator<System>;

  BackendImpl(const SessionConfig& config, typename System::Config systemConfig = {})
      : config_(config),
        package_(std::make_shared<Package>(static_cast<dd::Qubit>(config.qubits), systemConfig)) {}

  JobResult run(const JobRequest& request, const GateCallback& onGate) override {
    if (request.circuit.qubits() != config_.qubits) {
      throw ServeError(kBadRequest, "circuit width " + std::to_string(request.circuit.qubits()) +
                                        " does not match the session's " +
                                        std::to_string(config_.qubits) + " qubits");
    }
    const auto start = std::chrono::steady_clock::now();
    Simulator simulator = makeSimulator(request.circuit);
    if (!request.resumeCheckpoint.empty()) {
      try {
        simulator.resumeFrom(std::span<const std::uint8_t>(request.resumeCheckpoint));
      } catch (const io::SnapshotError& error) {
        throw ServeError(kBadRequest, std::string("resume rejected: ") + error.what());
      }
    }
    JobResult result;
    const std::size_t resumedAt = simulator.gateIndex();
    if (request.traceEvery != 0 && onGate) {
      simulator.run([&](Simulator& sim) {
        if ((sim.gateIndex() - resumedAt) % request.traceEvery == 0) {
          onGate(sim.gateIndex(), sim.stateNodes());
        }
      });
    } else {
      simulator.run();
    }
    result.gatesApplied = simulator.gateIndex() - resumedAt;
    result.finalNodes = simulator.stateNodes();
    if constexpr (!System::kExact) {
      result.fidelity = simulator.approxFidelity();
      result.prunedNodes = simulator.approxPrunedNodes();
    }
    if (request.wantAmplitudes) {
      result.amplitudes = package_->amplitudes(simulator.state());
    }
    if (request.wantSnapshot) {
      result.snapshot = io::saveVector(*package_, simulator.state());
    }
    if (request.wantCheckpoint) {
      result.checkpoint = simulator.saveCheckpoint();
    }
    // Adopt the job's final state as the session state (the previous
    // simulator's destructor drops its claim on the old one).
    current_.emplace(std::move(simulator));
    result.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    return result;
  }

  [[nodiscard]] std::vector<std::uint8_t> checkpoint() override {
    return requireState().saveCheckpoint();
  }

  void restore(std::span<const std::uint8_t> bytes) override {
    io::CheckpointData data;
    try {
      data = io::readCheckpoint(bytes);
    } catch (const io::SnapshotError& error) {
      throw ServeError(kBadRequest, std::string("checkpoint rejected: ") + error.what());
    }
    qc::Circuit circuit(0);
    try {
      circuit = qc::Circuit::fromText(data.circuitText);
    } catch (const std::exception& error) {
      throw ServeError(kBadRequest, std::string("checkpoint circuit rejected: ") + error.what());
    }
    if (circuit.qubits() != config_.qubits) {
      throw ServeError(kConflict, "checkpoint width does not match the session");
    }
    Simulator simulator = makeSimulator(std::move(circuit));
    try {
      simulator.resumeFrom(bytes);
    } catch (const io::SnapshotError& error) {
      throw ServeError(kBadRequest, std::string("checkpoint rejected: ") + error.what());
    }
    current_.emplace(std::move(simulator));
  }

  void loadState(std::span<const std::uint8_t> qdds) override {
    // Wrap the bare QDDS vector in a synthetic position-zero checkpoint over
    // the empty circuit and reuse the restore path (and its validation).
    io::CheckpointData data;
    data.gateIndex = 0;
    data.circuitText = qc::Circuit(config_.qubits).toText();
    data.snapshot.assign(qdds.begin(), qdds.end());
    restore(io::writeCheckpoint(data));
  }

  [[nodiscard]] std::vector<std::uint8_t> stateSnapshot() override {
    Simulator& simulator = requireState();
    return io::saveVector(*package_, simulator.state());
  }

  [[nodiscard]] std::vector<std::complex<double>> stateAmplitudes() override {
    Simulator& simulator = requireState();
    return package_->amplitudes(simulator.state());
  }

  [[nodiscard]] std::size_t stateNodes() const override {
    return current_.has_value() ? current_->stateNodes() : 0;
  }

  [[nodiscard]] bool hasState() const override { return current_.has_value(); }

  [[nodiscard]] obs::PackageStats stats() const override { return package_->stats(); }

  [[nodiscard]] std::size_t liveNodes() const override { return package_->allocatedNodes(); }

private:
  Simulator makeSimulator(qc::Circuit circuit) {
    typename Simulator::Options options;
    options.gcNodeThreshold = config_.gcWatermark;
    Simulator simulator(package_, std::move(circuit), options);
    if constexpr (!System::kExact) {
      if (config_.approx.policy != dd::ApproxPolicy::None) {
        simulator.setApproximation(config_.approx);
      }
    }
    return simulator;
  }

  Simulator& requireState() {
    if (!current_.has_value()) {
      throw ServeError(kConflict, "session has no state yet (run a job first)");
    }
    return *current_;
  }

  SessionConfig config_;
  std::shared_ptr<Package> package_;
  std::optional<Simulator> current_; ///< state of the most recent job
};

} // namespace

std::unique_ptr<SessionBackend> makeSessionBackend(const SessionConfig& config) {
  if (config.qubits == 0 || config.qubits > 64) {
    throw ServeError(kBadRequest, "qubits must be in [1, 64]");
  }
  if (config.epsilon < 0.0) {
    throw ServeError(kBadRequest, "epsilon must be non-negative");
  }
  if (config.approx.policy != dd::ApproxPolicy::None &&
      (!(config.approx.budget > 0.0) || config.approx.budget >= 1.0)) {
    throw ServeError(kBadRequest, "approx_fidelity must be in (0, 1)");
  }
  if (config.system == "alg") {
    if (config.epsilon != 0.0) {
      throw ServeError(kBadRequest, "the algebraic system is exact: epsilon must be 0");
    }
    if (config.approx.policy != dd::ApproxPolicy::None) {
      throw ServeError(kBadRequest,
                       "the algebraic system is exact: fidelity-bounded approximation "
                       "(approx_fidelity/approx_policy) is not supported on \"alg\" sessions");
    }
    return std::make_unique<BackendImpl<dd::AlgebraicSystem>>(config);
  }
  if (config.system == "num") {
    dd::NumericSystem::Config systemConfig;
    systemConfig.epsilon = config.epsilon;
    systemConfig.normalization = config.maxMagnitudeNormalization
                                     ? dd::NumericSystem::Normalization::MaxMagnitude
                                     : dd::NumericSystem::Normalization::LeftmostNonzero;
    return std::make_unique<BackendImpl<dd::NumericSystem>>(config, systemConfig);
  }
  throw ServeError(kBadRequest, "unknown weight system '" + config.system +
                                    "' (expected \"alg\" or \"num\")");
}

// -- SessionManager ---------------------------------------------------------------

std::shared_ptr<Session> SessionManager::open(SessionConfig config) {
  if (config.name.empty()) {
    throw ServeError(kBadRequest, "session name must not be empty");
  }
  auto session = std::make_shared<Session>(config);
  {
    // Build the backend outside the manager lock?  No: construction is cheap
    // (empty tables), and holding the lock keeps the name reservation atomic.
    const std::lock_guard<std::mutex> lock(mutex_);
    if (sessions_.contains(config.name)) {
      throw ServeError(kConflict, "session '" + config.name + "' is already open");
    }
    if (sessions_.size() >= limits_.maxSessions) {
      throw ServeError(kTooManyRequests,
                       "session limit reached (" + std::to_string(limits_.maxSessions) + ")");
    }
    session->backend_ = makeSessionBackend(config); // validates config
    session->lastUsedTick_.store(tick_.fetch_add(1, std::memory_order_relaxed) + 1,
                                 std::memory_order_relaxed);
    sessions_.emplace(config.name, session);
  }
  counters_.opened.fetch_add(1, std::memory_order_relaxed);
  return session;
}

std::shared_ptr<Session> SessionManager::find(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(name);
  if (it == sessions_.end()) {
    throw ServeError(kNotFound, "unknown session '" + name + "'");
  }
  return it->second;
}

void SessionManager::close(const std::string& name) {
  std::shared_ptr<Session> victim;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sessions_.find(name);
    if (it == sessions_.end()) {
      throw ServeError(kNotFound, "unknown session '" + name + "'");
    }
    victim = std::move(it->second);
    sessions_.erase(it);
  }
  counters_.closed.fetch_add(1, std::memory_order_relaxed);
  // Tear the package down outside the manager lock; a job still running on
  // the session finishes first (it holds the session mutex and a shared_ptr).
  const std::lock_guard<std::mutex> lock(victim->mutex_);
  victim->backend_.reset();
  victim->persistedCheckpoint_.clear();
  victim->persistedFlag_.store(false, std::memory_order_relaxed);
  victim->lastLiveNodes_.store(0, std::memory_order_relaxed);
}

void SessionManager::withBackend(Session& session,
                                 const std::function<void(SessionBackend&)>& fn) {
  {
    const std::lock_guard<std::mutex> lock(session.mutex_);
    if (session.backend_ == nullptr) {
      // Rebuild the package and restore the idle checkpoint (if the session
      // held state when it was persisted).
      session.backend_ = makeSessionBackend(session.config_);
      if (!session.persistedCheckpoint_.empty()) {
        session.backend_->restore(std::span<const std::uint8_t>(session.persistedCheckpoint_));
        session.persistedCheckpoint_.clear();
        counters_.restored.fetch_add(1, std::memory_order_relaxed);
      }
      session.persistedFlag_.store(false, std::memory_order_relaxed);
    }
    session.lastUsedTick_.store(tick_.fetch_add(1, std::memory_order_relaxed) + 1,
                                std::memory_order_relaxed);
    fn(*session.backend_);
    // Refresh the lock-free telemetry snapshot while we still hold the
    // session (the /metrics path reads these without blocking on jobs).
    {
      const std::lock_guard<std::mutex> statsLock(session.statsMutex_);
      session.lastStats_ = session.backend_->stats();
    }
    session.lastLiveNodes_.store(session.backend_->liveNodes(), std::memory_order_relaxed);
  }
  enforceWatermark();
}

std::vector<std::shared_ptr<Session>> SessionManager::sessions() const {
  std::vector<std::shared_ptr<Session>> out;
  const std::lock_guard<std::mutex> lock(mutex_);
  out.reserve(sessions_.size());
  for (const auto& [name, session] : sessions_) {
    out.push_back(session);
  }
  return out;
}

std::size_t SessionManager::residentNodes() const {
  std::size_t total = 0;
  for (const auto& session : sessions()) {
    if (!session->persisted()) {
      total += session->lastLiveNodes();
    }
  }
  return total;
}

void SessionManager::enforceWatermark() {
  if (limits_.memoryWatermarkNodes == 0) {
    return;
  }
  while (residentNodes() > limits_.memoryWatermarkNodes) {
    // Pick the least-recently-used resident session with a live package.
    std::shared_ptr<Session> victim;
    std::uint64_t oldest = UINT64_MAX;
    for (const auto& session : sessions()) {
      if (session->persisted()) {
        continue;
      }
      const std::uint64_t tick = session->lastUsedTick_.load(std::memory_order_relaxed);
      if (tick < oldest) {
        oldest = tick;
        victim = session;
      }
    }
    if (victim == nullptr) {
      return;
    }
    std::unique_lock<std::mutex> lock(victim->mutex_, std::try_to_lock);
    if (!lock.owns_lock()) {
      // A job is running on the LRU candidate; it will re-run the watermark
      // check when it completes.  Don't block the finishing job on it.
      return;
    }
    if (victim->backend_ == nullptr) {
      victim->persistedFlag_.store(true, std::memory_order_relaxed);
      continue;
    }
    if (victim->backend_->hasState()) {
      victim->persistedCheckpoint_ = victim->backend_->checkpoint();
    } else {
      victim->persistedCheckpoint_.clear();
    }
    victim->backend_.reset();
    victim->persistedFlag_.store(true, std::memory_order_relaxed);
    victim->lastLiveNodes_.store(0, std::memory_order_relaxed);
    counters_.persisted.fetch_add(1, std::memory_order_relaxed);
  }
}

} // namespace qadd::serve
