/// \file session.hpp
/// Sessions of the qadd_serve daemon: one dd::Package + per-job simulators
/// per session, with the weight system and ε chosen at open time (the
/// paper's central accuracy knob stays a first-class, per-session setting).
/// The package persists across jobs, so the complex/algebraic weight tables,
/// unique tables and operation caches warm up with traffic — cross-request
/// table reuse is where DD packages win.
///
/// Memory governance: the SessionManager tracks the live node count across
/// all sessions; past the configured watermark, idle sessions are persisted
/// to a QCKP checkpoint blob (circuit + position + exact state snapshot) and
/// their package is torn down.  The next op on a persisted session rebuilds
/// the package and restores the state — byte-identically, QCKP round trips
/// are exact (docs/SNAPSHOT_FORMAT.md).
#pragma once

#include "core/approximation.hpp"
#include "obs/stats.hpp"
#include "qc/circuit.hpp"
#include "serve/protocol.hpp"

#include <atomic>
#include <complex>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace qadd::serve {

/// Per-session configuration fixed at open time.
struct SessionConfig {
  std::string name;
  std::string system = "alg"; ///< "alg" (exact ℚ[ω]) or "num" (ε-tolerance numeric)
  double epsilon = 0.0;       ///< numeric weight-unification tolerance (num only)
  qc::Qubit qubits = 0;       ///< register width of every job in this session
  std::size_t gcWatermark = 200'000; ///< per-package auto-GC threshold (nodes)
  bool maxMagnitudeNormalization = false; ///< num only: [29]'s normalization flavor
  /// Fidelity-bounded state pruning applied to every job (num only; protocol
  /// v2).  Rejected with 400 on algebraic sessions: approximated results must
  /// never enter the exact result cache.
  dd::ApproxSpec approx{};
};

/// One job: a circuit to simulate from |0...0> (or to continue from an
/// uploaded checkpoint) plus what to return.
struct JobRequest {
  qc::Circuit circuit{0};
  bool wantAmplitudes = false;  ///< return all 2^n amplitudes (width-capped)
  bool wantSnapshot = false;    ///< return a QDDS blob of the final state
  bool wantCheckpoint = false;  ///< return a QCKP blob of the final position
  std::vector<std::uint8_t> resumeCheckpoint; ///< QCKP to restore before running
  std::size_t traceEvery = 0;   ///< stream a per-gate sample every K gates (0 = off)
};

struct JobResult {
  std::size_t gatesApplied = 0;
  std::size_t finalNodes = 0;
  double seconds = 0.0;
  double fidelity = 1.0;        ///< lower bound on |<approx|exact>|^2 (1 when exact)
  std::size_t prunedNodes = 0;  ///< nodes removed by approximation during the job
  std::vector<std::complex<double>> amplitudes;
  std::vector<std::uint8_t> snapshot;
  std::vector<std::uint8_t> checkpoint;
  bool fromCache = false; ///< served from the identical-circuit result cache
};

/// Per-gate streaming callback: (gates applied so far, state DD nodes).
using GateCallback = std::function<void(std::size_t, std::size_t)>;

/// Type-erased weight-system backend of one session (implemented per System
/// in session.cpp).  Not thread-safe; the owning Session serializes access.
class SessionBackend {
public:
  virtual ~SessionBackend() = default;
  /// Simulate request.circuit (resuming from request.resumeCheckpoint when
  /// given); the session state afterwards is the job's final state.
  virtual JobResult run(const JobRequest& request, const GateCallback& onGate) = 0;
  /// QCKP blob of the current position. \throws ServeError(409) without state.
  [[nodiscard]] virtual std::vector<std::uint8_t> checkpoint() = 0;
  /// Restore from a QCKP blob (the idle-persistence path).
  virtual void restore(std::span<const std::uint8_t> bytes) = 0;
  /// Replace the session state with a QDDS vector snapshot (empty circuit).
  virtual void loadState(std::span<const std::uint8_t> qdds) = 0;
  /// QDDS blob of the current state. \throws ServeError(409) without state.
  [[nodiscard]] virtual std::vector<std::uint8_t> stateSnapshot() = 0;
  /// Amplitudes of the current state. \throws ServeError(409) without state.
  [[nodiscard]] virtual std::vector<std::complex<double>> stateAmplitudes() = 0;
  [[nodiscard]] virtual std::size_t stateNodes() const = 0;
  [[nodiscard]] virtual bool hasState() const = 0;
  [[nodiscard]] virtual obs::PackageStats stats() const = 0;
  [[nodiscard]] virtual std::size_t liveNodes() const = 0;
};

/// Build a backend for `config` (validates system/qubits).
[[nodiscard]] std::unique_ptr<SessionBackend> makeSessionBackend(const SessionConfig& config);

class SessionManager;

/// One live session.  All package access happens under mutex() via
/// SessionManager::withBackend, which also transparently restores a
/// persisted session.
class Session {
public:
  explicit Session(SessionConfig config) : config_(std::move(config)) {}

  [[nodiscard]] const SessionConfig& config() const { return config_; }
  /// Telemetry snapshot taken after the most recent job (lock-free read for
  /// the metrics path, which must not block behind a running job).
  [[nodiscard]] obs::PackageStats lastStats() const {
    const std::lock_guard<std::mutex> lock(statsMutex_);
    return lastStats_;
  }
  [[nodiscard]] std::size_t lastLiveNodes() const {
    return lastLiveNodes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool persisted() const { return persistedFlag_.load(std::memory_order_relaxed); }

private:
  friend class SessionManager;

  SessionConfig config_;
  std::mutex mutex_; ///< serializes backend access (one job at a time)
  std::unique_ptr<SessionBackend> backend_;
  std::vector<std::uint8_t> persistedCheckpoint_; ///< QCKP while evicted (empty = no state)
  std::atomic<bool> persistedFlag_{false};
  std::atomic<std::uint64_t> lastUsedTick_{0};
  std::atomic<std::size_t> lastLiveNodes_{0};
  mutable std::mutex statsMutex_;
  obs::PackageStats lastStats_;
};

/// Owns all sessions; enforces the session-count limit and the cross-session
/// memory watermark.
class SessionManager {
public:
  struct Limits {
    std::size_t maxSessions = 64;
    /// Persist idle sessions once the summed live node count of all resident
    /// sessions exceeds this (0 disables idle persistence).
    std::size_t memoryWatermarkNodes = 0;
  };

  struct Counters {
    std::atomic<std::uint64_t> opened{0};
    std::atomic<std::uint64_t> closed{0};
    std::atomic<std::uint64_t> persisted{0};
    std::atomic<std::uint64_t> restored{0};
  };

  explicit SessionManager(Limits limits) : limits_(limits) {}

  /// \throws ServeError(409) on a duplicate name, (429) past maxSessions,
  /// (400) on an invalid config.
  std::shared_ptr<Session> open(SessionConfig config);
  /// \throws ServeError(404) on an unknown name.
  [[nodiscard]] std::shared_ptr<Session> find(const std::string& name) const;
  /// Idempotent: closing an unknown name throws (404).
  void close(const std::string& name);

  /// Run `fn` with exclusive access to the session's backend, restoring it
  /// from its idle checkpoint first when necessary; afterwards refresh the
  /// session's telemetry snapshot and apply the memory watermark.
  void withBackend(Session& session, const std::function<void(SessionBackend&)>& fn);

  [[nodiscard]] std::vector<std::shared_ptr<Session>> sessions() const;
  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] const Limits& limits() const { return limits_; }
  /// Summed live nodes over resident (non-persisted) sessions.
  [[nodiscard]] std::size_t residentNodes() const;

private:
  void enforceWatermark();

  Limits limits_;
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<Session>> sessions_;
  std::atomic<std::uint64_t> tick_{0};
  Counters counters_;
};

} // namespace qadd::serve
