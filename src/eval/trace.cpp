#include "eval/trace.hpp"

#include "eval/accuracy.hpp"
#include "io/snapshot.hpp"
#include "obs/timeline.hpp"
#include "obs/tracer.hpp"
#include "qc/simulator.hpp"

#include <chrono>
#include <limits>
#include <sstream>
#include <type_traits>

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

/// The exact plane records the reference trajectory; numeric planes read it.
template <class System>
using ReferenceFor =
    std::conditional_t<System::kExact, ReferenceTrajectory, const ReferenceTrajectory>;

/// The one trace loop of both weight planes.  Steps `simulator` to the end of
/// its circuit, sampling every options.sampleEvery gates (and after the last
/// one) with the clock paused.  The exact plane records the reference
/// amplitudes at each sample (its own error is 0 by construction); a numeric
/// plane measures its error against them (NaN where no sample exists).
template <class System>
SimulationTrace traceWith(qc::Simulator<System>& simulator, std::string label, double epsilon,
                          ReferenceFor<System>* reference, const TraceOptions& options) {
  SimulationTrace trace;
  trace.label = std::move(label);
  const auto traceSpan =
      obs::Tracer::global().span(System::kExact ? "traceAlgebraic" : "traceNumeric", "eval");
  // Per-gate timeline samples recorded by the simulator carry this series'
  // label and ε while the context is open.
  const obs::Timeline::ScopedSeries timelineSeries(trace.label, epsilon);
  if constexpr (System::kExact) {
    if (reference != nullptr) {
      reference->sampleEvery = options.sampleEvery;
      reference->samples.clear();
    }
  }
  const std::size_t gates = simulator.circuit().size();
  const bool amplitudesFeasible =
      simulator.circuit().qubits() <= options.maxQubitsForAmplitudes;
  std::size_t sampleOrdinal = 0;
  double lastError = System::kExact ? 0.0 : std::numeric_limits<double>::quiet_NaN();

  double accumulated = 0.0;
  auto start = Clock::now();
  while (simulator.step()) {
    const std::size_t applied = simulator.gateIndex();
    const bool checkpointDue =
        options.checkpointEvery != 0 && applied % options.checkpointEvery == 0;
    const bool sampleDue = applied % options.sampleEvery == 0 || applied == gates;
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
      point.maxBits = simulator.package().system().maxBits();
      point.peakNodes = simulator.package().peakNodes();
      point.cacheHitRate = simulator.package().counters().combinedCacheHitRate();
      point.tableFill = simulator.package().system().distinctValues();
      point.fidelity = simulator.approxFidelity();
      point.prunedNodes = simulator.approxPrunedNodes();
      if constexpr (System::kExact) {
        if (reference != nullptr && amplitudesFeasible) {
          reference->samples.push_back(simulator.package().amplitudes(simulator.state()));
        }
      } else {
        point.error = std::numeric_limits<double>::quiet_NaN();
        if (reference != nullptr && amplitudesFeasible &&
            sampleOrdinal < reference->samples.size()) {
          const auto numericAmplitudes = simulator.package().amplitudes(simulator.state());
          point.error = accuracyError(numericAmplitudes, reference->samples[sampleOrdinal]);
          lastError = point.error;
        }
        ++sampleOrdinal;
      }
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
  trace.finalNodes = simulator.stateNodes();
  trace.peakNodes = simulator.package().peakNodes();
  trace.collapsedToZero = simulator.package().system().isZero(simulator.state().w);
  trace.finalStats = simulator.package().stats();
  for (const auto& event : simulator.gcEvents()) {
    trace.gcEvents.push_back(
        {event.gateIndex, event.report.swept, event.report.liveAfter, event.report.seconds});
  }
  // End-of-run timeline sample of the series (Kind::Point), taken right next
  // to the finalStats snapshot so its gauges match the run's --stats counters.
  if (auto& timeline = obs::Timeline::global(); timeline.enabled()) {
    obs::Timeline::Sample sample;
    sample.kind = obs::Timeline::Kind::Point;
    sample.series = trace.label;
    sample.epsilon = epsilon;
    sample.gateIndex = simulator.gateIndex();
    simulator.package().sampleTimeline(sample);
    timeline.record(std::move(sample));
  }
  return trace;
}

} // namespace

SimulationTrace traceAlgebraic(const qc::Circuit& circuit, const TraceOptions& options,
                               ReferenceTrajectory* reference) {
  qc::Simulator<dd::AlgebraicSystem> simulator(circuit);
  return traceWith(simulator, simulator.package().system().describe(), 0.0, reference, options);
}

SimulationTrace traceRun(const qc::Circuit& circuit, const RunSpec& spec,
                         const ReferenceTrajectory* reference, const TraceOptions& options,
                         dd::NumericSystem::Normalization normalization) {
  std::ostringstream label;
  label << (spec.extendedPrecision ? "numeric-ext eps=" : "numeric eps=") << spec.epsilon;
  if (spec.approx.active()) {
    // No commas (labels are CSV cells); target fidelity reads better than
    // the budget in plots.
    label << " approx=" << dd::approxPolicyName(spec.approx.policy) << ":f"
          << 1.0 - spec.approx.budget;
  }
  const auto run = [&]<class System>(std::type_identity<System>) {
    qc::Simulator<System> simulator(
        circuit, {spec.epsilon, static_cast<typename System::Normalization>(
                                    static_cast<int>(normalization))});
    simulator.setApproximation(spec.approx);
    return traceWith(simulator, label.str(), spec.epsilon, reference, options);
  };
  return spec.extendedPrecision ? run(std::type_identity<dd::ExtendedNumericSystem>{})
                                : run(std::type_identity<dd::NumericSystem>{});
}

} // namespace qadd::eval
