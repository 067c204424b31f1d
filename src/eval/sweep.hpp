/// \file sweep.hpp
/// The unified ε-sweep API behind the paper's whole evaluation (Figs. 2–5):
/// one exact algebraic reference plus a list of numeric tolerance runs over
/// the same circuit.  eval::SweepSpec declares the sweep — circuit, points,
/// trace options, reference policy — and eval::runSweep() executes it,
/// computing (or loading, via the QREF disk cache) the algebraic reference
/// once and then fanning the numeric runs out across an exec::ThreadPool.
///
/// Every sweep point simulates in its own dd::Package (thread-confined, see
/// docs/PARALLELISM.md), so the fan-out is embarrassingly parallel and the
/// result is deterministic: traces come back in spec order with values
/// byte-identical to a serial run regardless of worker count or completion
/// order — only wall-clock columns (seconds, address-sensitive cache hit
/// rates) may differ between runs, exactly as between two serial runs.
#pragma once

#include "core/numeric_system.hpp"
#include "eval/reference_cache.hpp"
#include "eval/trace.hpp"
#include "exec/thread_pool.hpp"
#include "obs/stats.hpp"
#include "qc/circuit.hpp"

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace qadd::eval {

/// How runSweep() obtains the exact algebraic run of the sweep.
enum class ReferencePolicy {
  /// No algebraic run at all: no reference trajectory, error columns NaN
  /// (Fig. 2, which only studies sizes).
  None,
  /// Compute the algebraic trace + amplitude trajectory in-process, every
  /// invocation (Fig. 4, examples).
  Inline,
  /// traceAlgebraicCached(): load the QREF file at `referenceCachePath` when
  /// it matches the circuit, recompute and (re)write it otherwise (Fig. 3 /
  /// Fig. 5, where the algebraic run dominates the sweep).
  Cached,
};

/// Declarative description of one ε-sweep.
struct SweepSpec {
  explicit SweepSpec(qc::Circuit sweepCircuit) : circuit(std::move(sweepCircuit)) {}

  qc::Circuit circuit;
  std::vector<RunSpec> points;
  TraceOptions options;

  ReferencePolicy reference = ReferencePolicy::Inline;
  /// QREF cache file for ReferencePolicy::Cached.
  std::string referenceCachePath;
  /// Recompute the reference even when the cache file is valid.
  bool refreshReference = false;
  /// Prepend the algebraic trace to the returned traces (ignored — off —
  /// under ReferencePolicy::None).
  bool includeAlgebraicTrace = true;

  dd::NumericSystem::Normalization normalization =
      dd::NumericSystem::Normalization::LeftmostNonzero;

  /// Append one fully specified run.
  SweepSpec& addRun(const RunSpec& run) {
    points.push_back(run);
    return *this;
  }

  /// Install one approximation spec on every point declared so far — how the
  /// drivers map a single `--approx-fidelity`/`--approx-policy` pair onto a
  /// whole ε-sweep.  A policy of None leaves the points untouched.
  SweepSpec& applyApprox(const dd::ApproxSpec& approx) {
    if (approx.policy != dd::ApproxPolicy::None) {
      for (RunSpec& point : points) {
        point.approx = approx;
      }
    }
    return *this;
  }
};

/// Everything a figure driver needs from one executed sweep.
struct SweepResult {
  /// Traces in deterministic spec order: the algebraic trace first (when the
  /// spec includes one), then one per RunSpec point in declaration order —
  /// regardless of which worker finished first.
  std::vector<SimulationTrace> traces;
  /// Exact amplitude trajectory of the reference (empty under
  /// ReferencePolicy::None or when the circuit is too wide to sample).
  ReferenceTrajectory trajectory;

  bool referenceFromCache = false;
  /// Wall time of the QREF cache interaction (load on a hit, save on a
  /// miss); 0 for non-cached policies.
  double referenceCacheSeconds = 0.0;

  /// Worker threads used for the numeric fan-out (1 = serial).
  std::size_t jobs = 1;
  /// Wall-clock of the numeric fan-out section (the part `--jobs`
  /// parallelizes; the reference is excluded).
  double numericSweepSeconds = 0.0;
  /// All finalStats of `traces` folded into one snapshot via
  /// obs::PackageStats::operator+= with `threads` set to `jobs` — the block
  /// the report emitters print under --stats.
  obs::PackageStats aggregated;
};

/// Execute `spec`: reference first (serial — it is one simulation and, under
/// Cached, one disk interaction), then every numeric point via
/// exec::parallelFor on `pool`.  Pass nullptr (or --jobs 1, which makes the
/// drivers pass nullptr) for the exact serial path.
///
/// Checkpointing: when options.checkpointEvery is set, each numeric point k
/// writes to `<prefix>p<k>_<gate>.qckp` (the algebraic reference keeps the
/// bare `<prefix><gate>.qckp`), so concurrent points never contend for a
/// path and serial/parallel runs produce identical files.
[[nodiscard]] SweepResult runSweep(const SweepSpec& spec, exec::ThreadPool* pool = nullptr);

} // namespace qadd::eval
