/// \file trace.hpp
/// Instrumented circuit simulation producing the per-gate series the paper
/// plots in Figures 2-5: DD size (node count), accumulated simulation time,
/// accuracy relative to the exact algebraic result, and — for the algebraic
/// representation — the coefficient bit widths that drive its cost.
#pragma once

#include "core/algebraic_system.hpp"
#include "core/approximation.hpp"
#include "core/numeric_system.hpp"
#include "obs/stats.hpp"
#include "qc/circuit.hpp"

#include <complex>
#include <string>
#include <vector>

namespace qadd::exec {
class ThreadPool; // exec/thread_pool.hpp (kept out of this header's includes)
}

namespace qadd::eval {

struct TracePoint {
  std::size_t gateIndex = 0; ///< gates applied so far
  std::size_t nodes = 0;     ///< state DD size
  double seconds = 0.0;      ///< accumulated simulation time (sampling excluded)
  double error = 0.0;        ///< accuracy metric vs the exact reference (NaN if unavailable)
  std::size_t maxBits = 0;   ///< max coefficient bit width (algebraic only; 64 for numeric)
  std::size_t peakNodes = 0; ///< peak allocated nodes so far (transient multiply blow-up)
  double cacheHitRate = 0.0; ///< combined add/mv/mm cache hit rate so far
  std::size_t tableFill = 0; ///< distinct interned weights so far
  double fidelity = 1.0;     ///< cumulative approximation fidelity so far (1 = no pruning)
  std::size_t prunedNodes = 0; ///< state nodes removed by approximation so far
};

/// One run configuration — the sweep's unit of work.  The three axes of the
/// evaluation in one value: ε (the numeric tolerance knob), the mantissa
/// width (double vs long double), and the fidelity-bounded approximation
/// spec (dd::ApproxSpec — {} means exact-structure simulation, the historic
/// behaviour).
struct RunSpec {
  /// Numeric-table tolerance (0 = bit-exact interning).
  double epsilon = 0.0;
  /// Run on the extended-precision (long double) numeric system.
  bool extendedPrecision = false;
  /// Fidelity-bounded state approximation (policy None = off).
  dd::ApproxSpec approx{};

  friend bool operator==(const RunSpec&, const RunSpec&) = default;
};

/// One garbage-collection run observed mid-simulation.
struct TraceGcEvent {
  std::size_t gateIndex = 0; ///< gates applied when the run fired
  std::size_t swept = 0;     ///< nodes reclaimed
  std::size_t liveAfter = 0; ///< nodes still allocated afterwards
  double seconds = 0.0;      ///< wall time of the run
};

struct SimulationTrace {
  std::string label;
  std::vector<TracePoint> points;
  double totalSeconds = 0.0;
  std::size_t finalNodes = 0;
  std::size_t peakNodes = 0;
  bool collapsedToZero = false; ///< the final state is the zero vector (paper's epsilon=1e-3 failure)
  double finalError = 0.0;
  std::vector<TraceGcEvent> gcEvents; ///< GC runs, so size series can separate sweeps from growth
  obs::PackageStats finalStats;       ///< full telemetry snapshot at the end of the run
  /// QDDS snapshot of the final state DD (filled iff
  /// TraceOptions::captureFinalState; excluded from the timed sections).
  std::vector<std::uint8_t> finalStateSnapshot;
  /// Cumulative approximation fidelity of the whole run (product of per-prune
  /// achieved fidelities; 1.0 when nothing was pruned / no approx spec).
  double finalFidelity = 1.0;
  /// Total state node-count decrease from approximation over the run.
  std::size_t prunedNodes = 0;
};

/// Exact per-gate amplitude snapshots from the algebraic simulation, used as
/// the ground truth of the accuracy metric.
struct ReferenceTrajectory {
  std::size_t sampleEvery = 1;
  /// samples[i] = exact amplitudes after min((i+1)*sampleEvery, gateCount) gates.
  std::vector<std::vector<std::complex<double>>> samples;
};

struct TraceOptions {
  /// Record a trace point (and an accuracy sample) every this many gates.
  std::size_t sampleEvery = 25;
  /// Skip amplitude extraction above this width (2^n blow-up guard).
  qc::Qubit maxQubitsForAmplitudes = 18;
  /// Serialize the final state DD into SimulationTrace::finalStateSnapshot
  /// (a QDDS blob) when the run completes.
  bool captureFinalState = false;
  /// Write a simulator checkpoint every this many gates (0 = off) to
  /// `<checkpointPathPrefix><gateIndex>.qckp`; checkpointing time is
  /// excluded from the trace's timed sections, like sampling.
  std::size_t checkpointEvery = 0;
  std::string checkpointPathPrefix = "checkpoint_g";
  /// Read by nothing, kept only for perfbench/; goes with the next benchmark change.
  exec::ThreadPool* kernelPool = nullptr;
};

/// Simulate with the exact algebraic QMDD, recording size/time/bit widths and
/// (optionally) the reference amplitude trajectory for later accuracy
/// comparisons.
[[nodiscard]] SimulationTrace
traceAlgebraic(const qc::Circuit& circuit, const TraceOptions& options = {},
               dd::AlgebraicSystem::Config config = {}, ReferenceTrajectory* reference = nullptr);

/// Simulate with the numerical QMDD at tolerance `epsilon`, measuring the
/// accuracy against `reference` at each sample point (pass nullptr to skip).
[[nodiscard]] SimulationTrace
traceNumeric(const qc::Circuit& circuit, double epsilon, const ReferenceTrajectory* reference,
             const TraceOptions& options = {},
             dd::NumericSystem::Normalization normalization =
                 dd::NumericSystem::Normalization::LeftmostNonzero);

/// traceNumeric() on the extended-precision (long double) numeric system —
/// Section V-A's "scale up the mantissa" experiment as a sweep point.
[[nodiscard]] SimulationTrace
traceNumericExtended(const qc::Circuit& circuit, double epsilon,
                     const ReferenceTrajectory* reference, const TraceOptions& options = {},
                     dd::NumericSystem::Normalization normalization =
                         dd::NumericSystem::Normalization::LeftmostNonzero);

/// Trace one RunSpec: dispatches on the precision axis and installs the
/// spec's approximation policy on the simulator.  The one entry point the
/// sweep executor and all drivers use; traceNumeric/traceNumericExtended
/// remain as the spec-free shims.  Labels stay byte-identical to the
/// historic ones for non-approximated specs ("numeric eps=<ε>"); an active
/// approx spec appends " approx=<policy>:f<target>".
[[nodiscard]] SimulationTrace
traceRun(const qc::Circuit& circuit, const RunSpec& spec, const ReferenceTrajectory* reference,
         const TraceOptions& options = {},
         dd::NumericSystem::Normalization normalization =
             dd::NumericSystem::Normalization::LeftmostNonzero);

} // namespace qadd::eval
