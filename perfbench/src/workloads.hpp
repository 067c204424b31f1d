/// \file workloads.hpp
/// The three workloads of the benchmark.  Each sets up several times (the
/// median is setup_s), runs its timed phase for the requested seconds, and
/// checks every output against an independent reference.  With
/// Options::trace the run instead measures an untraced half and a traced
/// half and reports the per-layer metrics.
#pragma once

#include "harness.hpp"

namespace perf {

/// How many times a run repeats its set-up; setup_s is the median.
inline constexpr int kSetupRepeats = 3;

Outcome runAlgExact(const Options& options);
Outcome runNumSweep(const Options& options);
Outcome runServeMix(const Options& options);

} // namespace perf
