#include "eval/sweep.hpp"

#include "obs/tracer.hpp"

#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

namespace qadd::eval {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Per-point trace options: each numeric point gets its own checkpoint
/// namespace so parallel points never write the same file.
TraceOptions pointOptions(const SweepSpec& spec, std::size_t pointIndex) {
  TraceOptions options = spec.options;
  if (options.checkpointEvery != 0) {
    options.checkpointPathPrefix += "p" + std::to_string(pointIndex) + "_";
  }
  return options;
}

} // namespace

SweepResult runSweep(const SweepSpec& spec, exec::ThreadPool* pool) {
  SweepResult result;
  result.jobs = pool == nullptr ? 1 : pool->workers();
  const auto sweepSpan = obs::Tracer::global().span("runSweep", "eval");

  // Phase 1 — the exact algebraic reference, computed or loaded exactly
  // once: it is a single simulation (nothing to fan out) and the trajectory
  // must exist before any numeric point can measure accuracy.
  const ReferenceTrajectory* trajectory = nullptr;
  switch (spec.reference) {
  case ReferencePolicy::None:
    break;
  case ReferencePolicy::Inline: {
    const auto referenceSpan = obs::Tracer::global().span("reference", "eval");
    SimulationTrace algebraic =
        traceAlgebraic(spec.circuit, spec.options, {}, &result.trajectory);
    trajectory = &result.trajectory;
    if (spec.includeAlgebraicTrace) {
      result.traces.push_back(std::move(algebraic));
    }
    break;
  }
  case ReferencePolicy::Cached: {
    if (spec.referenceCachePath.empty()) {
      throw std::invalid_argument("runSweep: ReferencePolicy::Cached needs referenceCachePath");
    }
    const auto referenceSpan = obs::Tracer::global().span("reference", "eval");
    CachedAlgebraicReference cached = traceAlgebraicCached(
        spec.circuit, spec.options, spec.referenceCachePath, spec.refreshReference);
    result.referenceFromCache = cached.fromCache;
    result.referenceCacheSeconds = cached.cacheSeconds;
    result.trajectory = std::move(cached.trajectory);
    trajectory = &result.trajectory;
    if (spec.includeAlgebraicTrace) {
      result.traces.push_back(std::move(cached.trace));
    }
    break;
  }
  }

  // Phase 2 — the numeric ε fan-out.  Every point runs in its own package on
  // whichever worker picks it up; results land in spec order by index, so
  // the output is independent of scheduling.
  const std::size_t base = result.traces.size();
  result.traces.resize(base + spec.points.size());
  const auto numericStart = Clock::now();
  exec::parallelFor(pool, spec.points.size(), [&](std::size_t i) {
    const RunSpec& point = spec.points[i];
    const TraceOptions options = pointOptions(spec, i);
    result.traces[base + i] = traceRun(spec.circuit, point, trajectory, options, spec.normalization);
  });
  result.numericSweepSeconds = secondsSince(numericStart);

  // Phase 3 — fold the per-package telemetry into the one aggregated
  // snapshot the emitters print.
  for (const SimulationTrace& trace : result.traces) {
    result.aggregated += trace.finalStats;
  }
  result.aggregated.threads = result.jobs;
  return result;
}

} // namespace qadd::eval
