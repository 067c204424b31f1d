/// \file report.hpp
/// Presentation of simulation traces and telemetry: CSV emission (one row
/// per sample, one file per experiment — the data behind each figure),
/// compact console rendering (summary table + ASCII charts of the per-gate
/// series), and emitters for the obs::PackageStats counter block (human
/// table, JSON).
#pragma once

#include "eval/trace.hpp"
#include "obs/stats.hpp"

#include <iosfwd>
#include <string>
#include <vector>

namespace qadd::eval {

/// CSV with columns:
/// series,gate,nodes,seconds,error,maxbits,peaknodes,cachehitrate,tablefill.
void writeCsv(std::ostream& os, const std::vector<SimulationTrace>& traces);

/// One-line-per-series summary (final nodes, peak nodes, total time, final
/// error, zero-collapse flag).
void printSummaryTable(std::ostream& os, const std::vector<SimulationTrace>& traces);

/// Which TracePoint component to plot.
enum class Series { Nodes, Seconds, Error, MaxBits };

/// Multi-series ASCII chart (x = gate index).  `logY` plots log10 of the
/// values (zeros/NaNs are skipped).
void printAsciiChart(std::ostream& os, const std::string& title,
                     const std::vector<SimulationTrace>& traces, Series series, bool logY);

// -- telemetry emitters ---------------------------------------------------------

/// Human-readable rendering of one package's counter block: per-cache
/// hit/miss table, unique tables, node pool, GC, and the weight-table view.
void printStatsTable(std::ostream& os, const obs::PackageStats& stats);

/// Machine-readable JSON object with the same content (one self-contained
/// object; histograms as arrays).
void writeStatsJson(std::ostream& os, const obs::PackageStats& stats);

// -- CLI glue -------------------------------------------------------------------

/// Telemetry and snapshot flags shared by the bench drivers and examples:
///   --stats                print the per-series counter tables after the run
///   --trace-json <path>    enable the global span tracer and write Chrome
///                          trace JSON to <path> at the end (flushed
///                          incrementally, so a crash keeps a partial trace)
///   --timeline <base>      enable the global timeline sampler and write
///                          <base>.json + <base>.csv at the end of the run
///   --profile-final        capture each series' final state and print its
///                          per-level structural profile (obs::profileDd)
///   --obs-deterministic    zero the wall-clock fields of every emitter (CSV
///                          seconds, gc seconds, timeline seconds) for
///                          byte-comparable output
///   --checkpoint-every K   write a QCKP simulator checkpoint every K gates
///   --checkpoint-prefix P  checkpoint path prefix (default "checkpoint_g";
///                          files are <P><gateIndex>.qckp)
///   --refresh-reference    recompute the figure's algebraic reference even
///                          when a valid .qref cache file exists
struct ObsCliOptions {
  bool stats = false;
  std::string traceJsonPath;
  std::string timelinePath; ///< base path; empty = timeline sampler off
  bool profileFinal = false;
  std::size_t checkpointEvery = 0;
  std::string checkpointPrefix = "checkpoint_g";
  bool refreshReference = false;

  /// Copy the checkpoint flags onto trace options; --profile-final needs the
  /// final-state snapshot captured.
  void applyTo(TraceOptions& options) const {
    options.checkpointEvery = checkpointEvery;
    options.checkpointPathPrefix = checkpointPrefix;
    if (profileFinal) {
      options.captureFinalState = true;
    }
  }
};

/// Strip the telemetry flags from argv (compacting it in place, argc
/// updated) and enable the global tracer if --trace-json was given.
[[nodiscard]] ObsCliOptions parseObsCli(int& argc, char** argv);

/// Honour the parsed flags after a run: print per-series stats tables and/or
/// write the collected trace JSON.  When `aggregated` is non-null (the
/// parallel sweep drivers pass SweepResult::aggregated), an extra
/// cross-series table of the merged snapshot — including its `threads` row —
/// is printed after the per-series ones.
void finishObsCli(const ObsCliOptions& options, std::ostream& os,
                  const std::vector<SimulationTrace>& traces,
                  const obs::PackageStats* aggregated = nullptr);

} // namespace qadd::eval
