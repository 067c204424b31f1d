#include "eval/trace.hpp"

#include "eval/accuracy.hpp"
#include "io/snapshot.hpp"
#include "obs/timeline.hpp"
#include "obs/tracer.hpp"
#include "qc/simulator.hpp"

#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>

namespace qadd::eval {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Checkpoint path for gate index `applied` under `options`.
std::string checkpointPath(const TraceOptions& options, std::size_t applied) {
  return options.checkpointPathPrefix + std::to_string(applied) + ".qckp";
}

template <class Simulator>
void finishTrace(SimulationTrace& trace, const Simulator& simulator) {
  trace.finalNodes = simulator.stateNodes();
  trace.peakNodes = simulator.package().peakNodes();
  trace.collapsedToZero = simulator.package().system().isZero(simulator.state().w);
  trace.finalStats = simulator.package().stats();
  for (const auto& event : simulator.gcEvents()) {
    trace.gcEvents.push_back(
        {event.gateIndex, event.report.swept, event.report.liveAfter, event.report.seconds});
  }
}

/// End-of-run timeline sample of one series (Kind::Point): taken right next
/// to the finalStats snapshot, so its gauges match the --stats counters of
/// the run exactly.
template <class Simulator>
void recordTimelinePoint(const SimulationTrace& trace, const Simulator& simulator,
                         double epsilon) {
  if (auto& timeline = obs::Timeline::global(); timeline.enabled()) {
    obs::Timeline::Sample sample;
    sample.kind = obs::Timeline::Kind::Point;
    sample.series = trace.label;
    sample.epsilon = epsilon;
    sample.gateIndex = simulator.gateIndex();
    simulator.package().sampleTimeline(sample);
    timeline.record(std::move(sample));
  }
}

} // namespace

SimulationTrace traceAlgebraic(const qc::Circuit& circuit, const TraceOptions& options,
                               dd::AlgebraicSystem::Config config,
                               ReferenceTrajectory* reference) {
  qc::Simulator<dd::AlgebraicSystem> simulator(circuit, config);
  SimulationTrace trace;
  trace.label = simulator.package().system().describe();
  const auto traceSpan = obs::Tracer::global().span("traceAlgebraic", "eval");
  // Per-gate timeline samples recorded by the simulator carry this series'
  // label (ε = 0: exact) while the context is open.
  const obs::Timeline::ScopedSeries timelineSeries(trace.label, 0.0);
  if (reference != nullptr) {
    reference->sampleEvery = options.sampleEvery;
    reference->samples.clear();
  }
  const bool amplitudesFeasible = circuit.qubits() <= options.maxQubitsForAmplitudes;

  double accumulated = 0.0;
  auto start = Clock::now();
  while (simulator.step()) {
    const std::size_t applied = simulator.gateIndex();
    const bool checkpointDue =
        options.checkpointEvery != 0 && applied % options.checkpointEvery == 0;
    const bool sampleDue = applied % options.sampleEvery == 0 || applied == circuit.size();
    if (!checkpointDue && !sampleDue) {
      continue;
    }
    accumulated += secondsSince(start); // pause the clock during sampling/checkpointing
    if (checkpointDue) {
      simulator.saveCheckpointFile(checkpointPath(options, applied));
    }
    if (sampleDue) {
      const auto sampleSpan = obs::Tracer::global().span("sample", "eval");
      TracePoint point;
      point.gateIndex = applied;
      point.nodes = simulator.stateNodes();
      point.seconds = accumulated;
      point.error = 0.0; // exact by construction
      point.maxBits = simulator.package().system().maxBits();
      point.peakNodes = simulator.package().peakNodes();
      point.cacheHitRate = simulator.package().counters().combinedCacheHitRate();
      point.tableFill = simulator.package().system().distinctValues();
      trace.points.push_back(point);
      if (reference != nullptr && amplitudesFeasible) {
        reference->samples.push_back(simulator.package().amplitudes(simulator.state()));
      }
    }
    start = Clock::now();
  }
  accumulated += secondsSince(start);
  trace.totalSeconds = accumulated;
  trace.finalError = 0.0;
  if (options.captureFinalState) {
    trace.finalStateSnapshot = io::saveVector(simulator.package(), simulator.state());
  }
  finishTrace(trace, simulator);
  recordTimelinePoint(trace, simulator, 0.0);
  return trace;
}

namespace {

/// Shared body of traceNumeric/traceNumericExtended/traceRun, generic over
/// the numeric system's float width.
template <class System>
SimulationTrace traceNumericT(const qc::Circuit& circuit, double epsilon,
                              const ReferenceTrajectory* reference, const TraceOptions& options,
                              typename System::Normalization normalization,
                              const char* labelPrefix, const dd::ApproxSpec& approx = {}) {
  qc::Simulator<System> simulator(circuit, {epsilon, normalization});
  simulator.setApproximation(approx);
  SimulationTrace trace;
  {
    std::ostringstream label;
    label << labelPrefix << epsilon;
    if (approx.active()) {
      // No commas (labels are CSV cells); target fidelity reads better than
      // the budget in plots.
      label << " approx=" << dd::approxPolicyName(approx.policy) << ":f" << 1.0 - approx.budget;
    }
    trace.label = label.str();
  }
  const auto traceSpan = obs::Tracer::global().span("traceNumeric", "eval");
  const obs::Timeline::ScopedSeries timelineSeries(trace.label, epsilon);
  const bool amplitudesFeasible = circuit.qubits() <= options.maxQubitsForAmplitudes;
  std::size_t sampleOrdinal = 0;

  double accumulated = 0.0;
  double lastError = std::numeric_limits<double>::quiet_NaN();
  auto start = Clock::now();
  while (simulator.step()) {
    const std::size_t applied = simulator.gateIndex();
    const bool checkpointDue =
        options.checkpointEvery != 0 && applied % options.checkpointEvery == 0;
    const bool sampleDue = applied % options.sampleEvery == 0 || applied == circuit.size();
    if (!checkpointDue && !sampleDue) {
      continue;
    }
    accumulated += secondsSince(start);
    if (checkpointDue) {
      simulator.saveCheckpointFile(checkpointPath(options, applied));
    }
    if (sampleDue) {
      const auto sampleSpan = obs::Tracer::global().span("sample", "eval");
      TracePoint point;
      point.gateIndex = applied;
      point.nodes = simulator.stateNodes();
      point.seconds = accumulated;
      point.maxBits = simulator.package().system().maxBits();
      point.peakNodes = simulator.package().peakNodes();
      point.cacheHitRate = simulator.package().counters().combinedCacheHitRate();
      point.tableFill = simulator.package().system().distinctValues();
      point.fidelity = simulator.approxFidelity();
      point.prunedNodes = simulator.approxPrunedNodes();
      point.error = std::numeric_limits<double>::quiet_NaN();
      if (reference != nullptr && amplitudesFeasible &&
          sampleOrdinal < reference->samples.size()) {
        const auto numericAmplitudes = simulator.package().amplitudes(simulator.state());
        point.error = accuracyError(numericAmplitudes, reference->samples[sampleOrdinal]);
        lastError = point.error;
      }
      ++sampleOrdinal;
      trace.points.push_back(point);
    }
    start = Clock::now();
  }
  accumulated += secondsSince(start);
  trace.totalSeconds = accumulated;
  trace.finalError = lastError;
  trace.finalFidelity = simulator.approxFidelity();
  trace.prunedNodes = simulator.approxPrunedNodes();
  if (options.captureFinalState) {
    trace.finalStateSnapshot = io::saveVector(simulator.package(), simulator.state());
  }
  finishTrace(trace, simulator);
  recordTimelinePoint(trace, simulator, epsilon);
  return trace;
}

} // namespace

SimulationTrace traceNumeric(const qc::Circuit& circuit, double epsilon,
                             const ReferenceTrajectory* reference, const TraceOptions& options,
                             dd::NumericSystem::Normalization normalization) {
  return traceNumericT<dd::NumericSystem>(circuit, epsilon, reference, options, normalization,
                                          "numeric eps=");
}

SimulationTrace traceNumericExtended(const qc::Circuit& circuit, double epsilon,
                                     const ReferenceTrajectory* reference,
                                     const TraceOptions& options,
                                     dd::NumericSystem::Normalization normalization) {
  return traceNumericT<dd::ExtendedNumericSystem>(
      circuit, epsilon, reference, options,
      static_cast<dd::ExtendedNumericSystem::Normalization>(static_cast<int>(normalization)),
      "numeric-ext eps=");
}

SimulationTrace traceRun(const qc::Circuit& circuit, const RunSpec& spec,
                         const ReferenceTrajectory* reference, const TraceOptions& options,
                         dd::NumericSystem::Normalization normalization) {
  if (spec.extendedPrecision) {
    return traceNumericT<dd::ExtendedNumericSystem>(
        circuit, spec.epsilon, reference, options,
        static_cast<dd::ExtendedNumericSystem::Normalization>(static_cast<int>(normalization)),
        "numeric-ext eps=", spec.approx);
  }
  return traceNumericT<dd::NumericSystem>(circuit, spec.epsilon, reference, options,
                                          normalization, "numeric eps=", spec.approx);
}

} // namespace qadd::eval
