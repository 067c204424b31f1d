/// \file harness.hpp
/// Shared pieces of the qadd_perf benchmark: the command line, seeded
/// instance order, latency summaries, the metric record every workload
/// fills, the benchmark-side span tracer, and the independent dense
/// reference simulator the output checks compare against.
#pragma once

#include "linalg/dense.hpp"
#include "obs/stats.hpp"
#include "qc/circuit.hpp"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

namespace perf {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
[[nodiscard]] inline double secondsSince(Clock::time_point from) {
  return secondsBetween(from, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string tmpDir;  ///< artefact directory (QREF files, span trace)
  std::string dataDir; ///< the benchmark's own directory (input circuits)
};

class Tracer;

/// One named value with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one invocation reports.  `failed` counts attempted ops that
/// were refused, timed out, errored or returned a wrong result; any failed
/// set-up check clears `correct` as well.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems; ///< first few check failures, for stderr
  std::vector<std::string> notes;    ///< human-readable lines for the table
  std::shared_ptr<Tracer> tracer;    ///< spans of a traced run

  void fail(const std::string& what);
  /// Record a failed check unless `ok`.
  void check(bool ok, const std::string& what);
};

// -- seeded instance order ------------------------------------------------------

/// The seed only orders instances: every pass of a workload visits the same
/// fixed instance pool, so the work per pass, dd_nodes and accuracy_err do
/// not depend on the seed.
class SeededOrder {
public:
  explicit SeededOrder(std::uint64_t seed) : rng_(seed ^ 0x51ED270B27A1C0DEULL) {}
  /// A uniformly drawn permutation of 0..n-1.
  [[nodiscard]] std::vector<std::size_t> permutation(std::size_t n);
  /// Uniform in [0, 1).
  [[nodiscard]] double uniform();

private:
  std::mt19937_64 rng_;
};

// -- latency summaries ----------------------------------------------------------

struct LatencySummary {
  std::size_t samples = 0;
  double p50 = 0.0;
  /// Highest percentile with at least ten samples beyond it: the 11th
  /// largest sample.  `tailPercentile` names it.
  double tail = 0.0;
  double tailPercentile = 0.0;
};

/// Summarize latencies (any unit); needs at least 11 samples for a tail,
/// otherwise the tail is the maximum.
[[nodiscard]] LatencySummary summarize(std::vector<double> values);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double mean(const std::vector<double>& values);

/// Peak resident set size of this process in MiB.
[[nodiscard]] double peakRssMb();

// -- host speed -------------------------------------------------------------------

/// A shared host changes speed by up to 1.5x over seconds to minutes, and
/// every timing moves with it.  Each timing is therefore taken together with
/// a fixed calibration kernel and reported at the reference speed: a time
/// measured while the kernel took p ms is scaled by kReferenceProbeMs / p.
/// The kernel owns its memory (one buffer allocated on first use), so nothing
/// QADD does to its heap or tables changes what the kernel measures.
inline constexpr double kReferenceProbeMs = 5.0;

/// Thread-CPU milliseconds of one run of the calibration kernel on the
/// calling thread; the median of `repeats` runs.  Call from one thread at a
/// time.
[[nodiscard]] double probeHostMs(int repeats = 1);

/// `value`, measured between probes that read `before` and `after`, at the
/// reference speed.
[[nodiscard]] inline double atReferenceSpeed(double value, double before, double after) {
  return value * kReferenceProbeMs / (0.5 * (before + after));
}

/// Wall seconds of `work()` at the reference speed, with three probe runs
/// on each side.
template <class Work> double timeAtReferenceSpeed(Work&& work) {
  const double before = probeHostMs(3);
  const auto start = Clock::now();
  work();
  const double seconds = secondsSince(start);
  return atReferenceSpeed(seconds, before, probeHostMs(3));
}

// -- closed loop ------------------------------------------------------------------

struct OpResult {
  double seconds = 0.0; ///< op latency (verification excluded)
  bool ok = false;      ///< output verified
};

struct LoopResult {
  std::vector<double> latencyMs;    ///< per op, at the reference speed
  std::vector<double> rawLatencyMs; ///< per op, as measured
  std::uint64_t attempted = 0;
  std::uint64_t verified = 0;
  std::size_t passes = 0;

  /// The time of a typical pass at reference speed: the sum over the
  /// positions of a pass of the median latency at that position.  Every
  /// pass puts the same op family at the same position, so this uses every
  /// op and is not moved by a few slow ones.
  [[nodiscard]] double typicalPassMs() const;

  /// One line per op: its latency in ms, at reference speed and as measured.
  void writeCsv(const std::string& path) const;
};

/// One client, one op at a time, whole passes until `budgetSeconds` has
/// passed: stopping only at pass boundaries keeps the op mix of every run
/// identical.  `nextPass()` yields the ops of one pass, `runOp(op)` runs and
/// verifies one.  The calibration kernel runs between ops; each op's
/// latency is scaled by the probes on either side of it.
template <class NextPass, class RunOp>
LoopResult closedLoop(double budgetSeconds, NextPass&& nextPass, RunOp&& runOp) {
  LoopResult loop;
  const auto start = Clock::now();
  double probe = probeHostMs();
  do {
    for (const auto& op : nextPass()) {
      const OpResult result = runOp(op);
      const double next = probeHostMs();
      const double raw = result.seconds * 1e3;
      const double scaled = atReferenceSpeed(raw, probe, next);
      probe = next;
      ++loop.attempted;
      loop.verified += result.ok ? 1 : 0;
      loop.rawLatencyMs.push_back(raw);
      loop.latencyMs.push_back(scaled);
    }
    ++loop.passes;
  } while (secondsSince(start) < budgetSeconds);
  return loop;
}

/// A table line with the loop's latencies as measured, before scaling to the
/// reference speed.
[[nodiscard]] std::string rawTimingNote(const LoopResult& loop);

// -- span tracer ------------------------------------------------------------------

/// Spans recorded by the benchmark around the public calls it makes into
/// each layer.  Kept in memory (thread-safe: sweep points record from pool
/// workers) and written out once at exit.
class Tracer {
public:
  using Id = std::int64_t;
  static constexpr Id kNone = -1;

  Id begin(const char* name, Id parent, std::uint64_t op);
  void end(Id id);
  /// A span whose interval was measured by the caller.
  Id record(const char* name, Id parent, std::uint64_t op, Clock::time_point start,
            Clock::time_point end);

  struct LayerTime {
    std::size_t count = 0;
    double totalSeconds = 0.0;
    double selfSeconds = 0.0; ///< duration minus the union of child spans
  };
  /// Per span name; only closed spans count.
  [[nodiscard]] std::map<std::string, LayerTime> layerTimes() const;
  /// CSV: id,name,start_s,end_s,parent,op.
  void write(const std::string& path) const;

private:
  struct Span {
    const char* name;
    double start;
    double end;
    Id parent;
    std::uint64_t op;
  };
  [[nodiscard]] double now() const { return secondsSince(origin_); }

  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  Clock::time_point origin_ = Clock::now();
};

/// RAII span; a null tracer records nothing.
class Scope {
public:
  Scope(Tracer* tracer, const char* name, Tracer::Id parent, std::uint64_t op)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->begin(name, parent, op) : Tracer::kNone) {}
  ~Scope() {
    if (tracer_ != nullptr) {
      tracer_->end(id_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] Tracer::Id id() const { return id_; }

private:
  Tracer* tracer_;
  Tracer::Id id_;
};

// -- per-layer counters ---------------------------------------------------------

/// Running means of the Package::stats() counters that feed the per-layer
/// metrics (one sample per op).
struct CoreCounters {
  std::vector<double> mvHitRate, addHitRate, uniqueLookups, uniqueHitRate, uniqueCollisions,
      nodeAllocs, nodeReuses, peakNodes, arenaMb, gcRuns, gcMs, gcSwept, pruneRuns, pruneEdges,
      algEntries, algMaxBits, algOpcacheHitRate, numEntries, nearMiss;

  /// Fold one op's statistics; `exact` selects the algebraic or numeric
  /// weight-table columns.
  void add(const qadd::obs::PackageStats& stats, bool exact);
};

/// Spill share spills / (hits + spills) of the algebraic small-value fast
/// paths, from the growth of their process-wide tallies over some work.
[[nodiscard]] double spillFraction(std::uint64_t hits, std::uint64_t spills);

/// The per-layer metric record; every workload prints every field, with 0
/// for layers it bypasses.
struct LayerMetrics {
  double generateMs = 0, compileMs = 0, gates = 0, gateBuildUs = 0, mvUs = 0;
  CoreCounters core;
  double concurrentPoints = 0, spillFrac = 0;
  double referenceS = 0, qrefLoadMs = 0, samplingMs = 0, criticalS = 0;
  double workers = 0, fanoutS = 0, efficiency = 0, speedup = 0;
  double saveMs = 0, loadMs = 0, snapshotKb = 0;
  double simMs = 0, overheadMs = 0, cacheHitFrac = 0, coalesced = 0, rejected = 0,
         payloadKb = 0, genLateMs = 0;
  double traceOverhead = 0;

  [[nodiscard]] std::vector<Metric> metrics() const;
};

/// The end-to-end metric record, identical in name and unit across
/// workloads.
struct EndToEnd {
  double setupS = 0;
  double opsPerS = 0;
  LatencySummary latencyMs;
  double okFrac = 0;
  double ddNodes = 0;
  double accuracyErr = 0;
  double sloRps = 0;

  /// ops_per_s, the latency summary, ok_frac and slo_rps of a closed loop.
  /// ops_per_s is verified ops per pass over the typical pass time.  A
  /// closed loop has no offered rate to hold a latency limit at, so its
  /// slo_rps is ops_per_s.
  void setClosedLoop(const LoopResult& loop);
  [[nodiscard]] std::vector<Metric> metrics() const;
};

// -- independent references -----------------------------------------------------

/// Dense state-vector simulation of `circuit` from |0...0> (qubit 0 is the
/// most significant index bit, as in dd::Package::amplitudes).  Independent
/// of the DD package: gate matrices come from qc::complexMatrix and are
/// applied entry by entry.
[[nodiscard]] qadd::la::Vector denseSimulate(const qadd::qc::Circuit& circuit);

/// Index of the basis state whose qubit q holds bit q of `bits`.
[[nodiscard]] std::size_t basisIndex(std::uint64_t bits, unsigned qubits);

} // namespace perf
