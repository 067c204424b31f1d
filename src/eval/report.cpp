#include "eval/report.hpp"

#include "obs/deterministic.hpp"
#include "obs/profiler.hpp"
#include "obs/timeline.hpp"
#include "obs/tracer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <limits>
#include <ostream>

namespace qadd::eval {

namespace {

double component(const TracePoint& point, Series series) {
  switch (series) {
  case Series::Nodes:
    return static_cast<double>(point.nodes);
  case Series::Seconds:
    return point.seconds;
  case Series::Error:
    return point.error;
  case Series::MaxBits:
    return static_cast<double>(point.maxBits);
  }
  return 0.0;
}

} // namespace

void writeCsv(std::ostream& os, const std::vector<SimulationTrace>& traces) {
  // In deterministic-output mode the wall-clock column and the cache-hit-rate
  // column (sensitive to pointer-hash layout) are written as 0, so two runs
  // produce byte-identical CSVs.
  const bool deterministic = obs::deterministic();
  os << "series,gate,nodes,seconds,error,maxbits,peaknodes,cachehitrate,tablefill,fidelity,"
        "prunednodes\n";
  os << std::setprecision(12);
  for (const SimulationTrace& trace : traces) {
    for (const TracePoint& point : trace.points) {
      os << trace.label << "," << point.gateIndex << "," << point.nodes << ","
         << (deterministic ? 0.0 : point.seconds) << "," << point.error << "," << point.maxBits
         << "," << point.peakNodes << "," << (deterministic ? 0.0 : point.cacheHitRate) << ","
         << point.tableFill << "," << point.fidelity << "," << point.prunedNodes << "\n";
    }
  }
}

void printSummaryTable(std::ostream& os, const std::vector<SimulationTrace>& traces) {
  os << std::left << std::setw(28) << "series" << std::right << std::setw(12) << "final nodes"
     << std::setw(12) << "peak nodes" << std::setw(12) << "time [s]" << std::setw(14)
     << "final error" << std::setw(10) << "fidelity" << std::setw(8) << "zero?" << "\n";
  for (const SimulationTrace& trace : traces) {
    os << std::left << std::setw(28) << trace.label << std::right << std::setw(12)
       << trace.finalNodes << std::setw(12) << trace.peakNodes << std::setw(12) << std::fixed
       << std::setprecision(3) << trace.totalSeconds << std::setw(14) << std::scientific
       << std::setprecision(2) << trace.finalError << std::setw(10) << std::fixed
       << std::setprecision(4) << trace.finalFidelity << std::setw(8)
       << (trace.collapsedToZero ? "YES" : "no") << "\n";
    os.unsetf(std::ios::floatfield);
  }
}

void printAsciiChart(std::ostream& os, const std::string& title,
                     const std::vector<SimulationTrace>& traces, Series series, bool logY) {
  constexpr int kWidth = 72;
  constexpr int kHeight = 16;
  static constexpr char kSymbols[] = "A#*+o.x%@$";

  // Gather value range.
  double minY = std::numeric_limits<double>::infinity();
  double maxY = -std::numeric_limits<double>::infinity();
  std::size_t maxGate = 1;
  for (const SimulationTrace& trace : traces) {
    for (const TracePoint& point : trace.points) {
      double y = component(point, series);
      if (!std::isfinite(y) || (logY && y <= 0.0)) {
        continue;
      }
      if (logY) {
        y = std::log10(y);
      }
      minY = std::min(minY, y);
      maxY = std::max(maxY, y);
      maxGate = std::max(maxGate, point.gateIndex);
    }
  }
  os << "\n== " << title << (logY ? "  [log10 y]" : "") << " ==\n";
  if (!std::isfinite(minY)) {
    os << "(no data)\n";
    return;
  }
  if (maxY - minY < 1e-12) {
    maxY = minY + 1.0;
  }

  std::vector<std::string> grid(kHeight, std::string(kWidth, ' '));
  for (std::size_t t = 0; t < traces.size(); ++t) {
    const char symbol = kSymbols[t % (sizeof(kSymbols) - 1)];
    for (const TracePoint& point : traces[t].points) {
      double y = component(point, series);
      if (!std::isfinite(y) || (logY && y <= 0.0)) {
        continue;
      }
      if (logY) {
        y = std::log10(y);
      }
      const int col = static_cast<int>(
          std::min<double>(kWidth - 1, std::floor(static_cast<double>(point.gateIndex) /
                                                  static_cast<double>(maxGate) * (kWidth - 1))));
      const int row = static_cast<int>(
          std::min<double>(kHeight - 1, std::floor((maxY - y) / (maxY - minY) * (kHeight - 1))));
      grid[static_cast<std::size_t>(row)][static_cast<std::size_t>(col)] = symbol;
    }
  }
  os << std::setprecision(3);
  for (int row = 0; row < kHeight; ++row) {
    if (row == 0) {
      os << std::setw(10) << maxY << " |";
    } else if (row == kHeight - 1) {
      os << std::setw(10) << minY << " |";
    } else {
      os << std::string(10, ' ') << " |";
    }
    os << grid[static_cast<std::size_t>(row)] << "\n";
  }
  os << std::string(11, ' ') << '+' << std::string(kWidth, '-') << "\n";
  os << std::string(12, ' ') << "0" << std::string(kWidth - 8, ' ') << maxGate << " gates\n";
  for (std::size_t t = 0; t < traces.size(); ++t) {
    os << "  " << kSymbols[t % (sizeof(kSymbols) - 1)] << " = " << traces[t].label << "\n";
  }
}

namespace {

void writeHistogramJson(std::ostream& os, const std::vector<std::uint64_t>& histogram) {
  os << "[";
  for (std::size_t i = 0; i < histogram.size(); ++i) {
    os << (i == 0 ? "" : ",") << histogram[i];
  }
  os << "]";
}

} // namespace

void printStatsTable(std::ostream& os, const obs::PackageStats& stats) {
  os << "-- package telemetry";
  if (!stats.weights.system.empty()) {
    os << " [" << stats.weights.system << "]";
  }
  os << (obs::kEnabled ? "" : " (QADD_OBS=0: counters compiled out)") << " --\n";
  os << std::left << std::setw(12) << "cache" << std::right << std::setw(14) << "hits"
     << std::setw(14) << "misses" << std::setw(12) << "evictions" << std::setw(10) << "hit%"
     << "\n";
  for (const auto& [name, cache] : stats.caches()) {
    os << std::left << std::setw(12) << name << std::right << std::setw(14) << cache->hits.value()
       << std::setw(14) << cache->misses.value() << std::setw(12) << cache->evictions.value()
       << std::setw(9) << std::fixed << std::setprecision(1) << cache->hitRate() * 100.0 << "%\n";
    os.unsetf(std::ios::floatfield);
  }
  const auto uniqueRow = [&](std::string_view name, const obs::UniqueTableStats& table) {
    os << std::left << std::setw(12) << name << std::right << std::setw(14)
       << table.lookups.value() << " lookups" << std::setw(14) << table.hits.value() << " hits"
       << std::setw(12) << (obs::deterministic() ? 0 : table.collisions.value())
       << " collisions  " << table.entries << "/"
       << table.buckets << " fill\n";
  };
  uniqueRow("vUnique", stats.vUnique);
  uniqueRow("mUnique", stats.mUnique);
  os << "nodes       " << stats.nodeAllocations.value() << " allocated, "
     << stats.nodeReuses.value() << " reused, " << stats.liveNodes << " live, " << stats.peakNodes
     << " peak, " << stats.arenaBytes << " arena B\n";
  os << "gc          " << stats.gc.runs.value() << " runs, " << stats.gc.nodesSwept.value()
     << " nodes swept, " << std::setprecision(3)
     << (obs::deterministic() ? 0.0 : stats.gc.seconds) << " s\n";
  os << "gate memo   " << stats.gateMemo.builds.value() << " builds, "
     << stats.gateMemo.hits.value() << " hits\n";
  os << "threads     " << stats.threads << "\n";
  os << "weights     " << stats.weights.entries << " distinct";
  if (stats.weights.nearMissUnifications > 0) {
    os << ", " << stats.weights.nearMissUnifications << " near-miss unifications";
  }
  os << "\n";
  if (stats.weights.opCache.hits.value() + stats.weights.opCache.misses.value() > 0) {
    os << "weight ops  " << stats.weights.opCache.hits.value() << " hits, "
       << stats.weights.opCache.misses.value() << " misses, "
       << stats.weights.opCache.evictions.value() << " evictions (" << std::fixed
       << std::setprecision(1) << stats.weights.opCache.hitRate() * 100.0 << "% hit)\n";
    os.unsetf(std::ios::floatfield);
  }
  if (stats.weights.smallPathHits + stats.weights.smallPathSpills > 0) {
    const double total =
        static_cast<double>(stats.weights.smallPathHits + stats.weights.smallPathSpills);
    os << "alg small   " << stats.weights.smallPathHits << " kernel hits, "
       << stats.weights.smallPathSpills << " spills (" << std::fixed << std::setprecision(1)
       << static_cast<double>(stats.weights.smallPathHits) / total * 100.0 << "% small)\n";
    os.unsetf(std::ios::floatfield);
  }
  if (!stats.weights.bucketOccupancy.empty()) {
    os << "buckets     ";
    for (std::size_t k = 1; k < stats.weights.bucketOccupancy.size(); ++k) {
      if (stats.weights.bucketOccupancy[k] != 0) {
        os << "[" << k << (k + 1 == stats.weights.bucketOccupancy.size() ? "+" : "") << "]="
           << stats.weights.bucketOccupancy[k] << " ";
      }
    }
    os << "\n";
  }
  if (!stats.weights.bitWidthHistogram.empty()) {
    os << "bit widths  ";
    for (std::size_t b = 0; b < stats.weights.bitWidthHistogram.size(); ++b) {
      if (stats.weights.bitWidthHistogram[b] != 0) {
        os << b << "b:" << stats.weights.bitWidthHistogram[b] << " ";
      }
    }
    os << "\n";
  }
  if (stats.io.any()) {
    os << "snapshots   " << stats.io.snapshotsSaved.value() << " saved ("
       << stats.io.nodesWritten.value() << " nodes, " << stats.io.weightsWritten.value()
       << " weights, " << stats.io.bytesWritten.value() << " B), "
       << stats.io.snapshotsLoaded.value() << " loaded (" << stats.io.nodesRead.value()
       << " nodes, " << stats.io.loadDedupNodes.value() << " deduped, "
       << stats.io.bytesRead.value() << " B)\n";
  }
  if (stats.approx.any()) {
    os << "approx      " << stats.approx.pruneRuns.value() << " prune runs, "
       << stats.approx.edgesPruned.value() << " edges pruned, "
       << stats.approx.nodesRemoved.value() << " nodes removed\n";
  }
}

void writeStatsJson(std::ostream& os, const obs::PackageStats& stats) {
  os << std::setprecision(12);
  os << "{\"enabled\":" << (obs::kEnabled ? "true" : "false") << ",\"caches\":{";
  bool first = true;
  for (const auto& [name, cache] : stats.caches()) {
    os << (first ? "" : ",") << "\"" << name << "\":{\"hits\":" << cache->hits.value()
       << ",\"misses\":" << cache->misses.value()
       << ",\"evictions\":" << cache->evictions.value() << ",\"hitRate\":" << cache->hitRate()
       << "}";
    first = false;
  }
  os << "},\"uniqueTables\":{";
  const auto uniqueJson = [&os](const char* name, const obs::UniqueTableStats& table) {
    os << "\"" << name << "\":{\"lookups\":" << table.lookups.value()
       << ",\"hits\":" << table.hits.value()
       << ",\"collisions\":" << (obs::deterministic() ? 0 : table.collisions.value())
       << ",\"entries\":" << table.entries << ",\"buckets\":" << table.buckets << "}";
  };
  uniqueJson("vector", stats.vUnique);
  os << ",";
  uniqueJson("matrix", stats.mUnique);
  os << "},\"nodes\":{\"allocations\":" << stats.nodeAllocations.value()
     << ",\"reuses\":" << stats.nodeReuses.value() << ",\"live\":" << stats.liveNodes
     << ",\"peak\":" << stats.peakNodes << ",\"arenaBytes\":" << stats.arenaBytes << "}";
  os << ",\"gc\":{\"runs\":" << stats.gc.runs.value()
     << ",\"nodesSwept\":" << stats.gc.nodesSwept.value()
     << ",\"seconds\":" << (obs::deterministic() ? 0.0 : stats.gc.seconds) << "}";
  os << ",\"gateMemo\":{\"builds\":" << stats.gateMemo.builds.value()
     << ",\"hits\":" << stats.gateMemo.hits.value() << "}";
  os << ",\"threads\":" << stats.threads;
  os << ",\"weights\":{\"system\":\"" << stats.weights.system
     << "\",\"entries\":" << stats.weights.entries
     << ",\"nearMissUnifications\":" << stats.weights.nearMissUnifications
     << ",\"opCache\":{\"hits\":" << stats.weights.opCache.hits.value()
     << ",\"misses\":" << stats.weights.opCache.misses.value()
     << ",\"evictions\":" << stats.weights.opCache.evictions.value() << "}"
     << ",\"smallPathHits\":" << stats.weights.smallPathHits
     << ",\"smallPathSpills\":" << stats.weights.smallPathSpills
     << ",\"bucketOccupancy\":";
  writeHistogramJson(os, stats.weights.bucketOccupancy);
  os << ",\"bitWidthHistogram\":";
  writeHistogramJson(os, stats.weights.bitWidthHistogram);
  os << "}";
  os << ",\"io\":{\"snapshotsSaved\":" << stats.io.snapshotsSaved.value()
     << ",\"snapshotsLoaded\":" << stats.io.snapshotsLoaded.value()
     << ",\"nodesWritten\":" << stats.io.nodesWritten.value()
     << ",\"nodesRead\":" << stats.io.nodesRead.value()
     << ",\"weightsWritten\":" << stats.io.weightsWritten.value()
     << ",\"weightsRead\":" << stats.io.weightsRead.value()
     << ",\"bytesWritten\":" << stats.io.bytesWritten.value()
     << ",\"bytesRead\":" << stats.io.bytesRead.value()
     << ",\"loadDedupNodes\":" << stats.io.loadDedupNodes.value() << "}";
  os << ",\"approx\":{\"pruneRuns\":" << stats.approx.pruneRuns.value()
     << ",\"edgesPruned\":" << stats.approx.edgesPruned.value()
     << ",\"nodesRemoved\":" << stats.approx.nodesRemoved.value() << "}}";
}

void writeStatsCsv(std::ostream& os, const obs::PackageStats& stats) {
  os << "counter,value\n";
  for (const auto& [name, cache] : stats.caches()) {
    os << "cache." << name << ".hits," << cache->hits.value() << "\n";
    os << "cache." << name << ".misses," << cache->misses.value() << "\n";
    os << "cache." << name << ".evictions," << cache->evictions.value() << "\n";
  }
  const auto uniqueRows = [&os](const char* name, const obs::UniqueTableStats& table) {
    os << "unique." << name << ".lookups," << table.lookups.value() << "\n";
    os << "unique." << name << ".hits," << table.hits.value() << "\n";
    os << "unique." << name << ".collisions,"
       << (obs::deterministic() ? 0 : table.collisions.value()) << "\n";
    os << "unique." << name << ".entries," << table.entries << "\n";
    os << "unique." << name << ".buckets," << table.buckets << "\n";
  };
  uniqueRows("vector", stats.vUnique);
  uniqueRows("matrix", stats.mUnique);
  os << "nodes.allocations," << stats.nodeAllocations.value() << "\n";
  os << "nodes.reuses," << stats.nodeReuses.value() << "\n";
  os << "nodes.live," << stats.liveNodes << "\n";
  os << "nodes.peak," << stats.peakNodes << "\n";
  os << "nodes.arenaBytes," << stats.arenaBytes << "\n";
  os << "gc.runs," << stats.gc.runs.value() << "\n";
  os << "gc.nodesSwept," << stats.gc.nodesSwept.value() << "\n";
  os << "gc.seconds," << std::setprecision(12)
     << (obs::deterministic() ? 0.0 : stats.gc.seconds) << "\n";
  os << "gateMemo.builds," << stats.gateMemo.builds.value() << "\n";
  os << "gateMemo.hits," << stats.gateMemo.hits.value() << "\n";
  os << "threads," << stats.threads << "\n";
  os << "weights.entries," << stats.weights.entries << "\n";
  os << "weights.nearMissUnifications," << stats.weights.nearMissUnifications << "\n";
  os << "weights.opCache.hits," << stats.weights.opCache.hits.value() << "\n";
  os << "weights.opCache.misses," << stats.weights.opCache.misses.value() << "\n";
  os << "weights.opCache.evictions," << stats.weights.opCache.evictions.value() << "\n";
  os << "alg.smallPathHits," << stats.weights.smallPathHits << "\n";
  os << "alg.smallPathSpills," << stats.weights.smallPathSpills << "\n";
  os << "io.snapshotsSaved," << stats.io.snapshotsSaved.value() << "\n";
  os << "io.snapshotsLoaded," << stats.io.snapshotsLoaded.value() << "\n";
  os << "io.nodesWritten," << stats.io.nodesWritten.value() << "\n";
  os << "io.nodesRead," << stats.io.nodesRead.value() << "\n";
  os << "io.weightsWritten," << stats.io.weightsWritten.value() << "\n";
  os << "io.weightsRead," << stats.io.weightsRead.value() << "\n";
  os << "io.bytesWritten," << stats.io.bytesWritten.value() << "\n";
  os << "io.bytesRead," << stats.io.bytesRead.value() << "\n";
  os << "io.loadDedupNodes," << stats.io.loadDedupNodes.value() << "\n";
  os << "approx.pruneRuns," << stats.approx.pruneRuns.value() << "\n";
  os << "approx.edgesPruned," << stats.approx.edgesPruned.value() << "\n";
  os << "approx.nodesRemoved," << stats.approx.nodesRemoved.value() << "\n";
}

ObsCliOptions parseObsCli(int& argc, char** argv) {
  ObsCliOptions options;
  const auto flagValue = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << argv[0] << ": " << flag << " requires an argument\n";
      std::exit(2);
    }
    return argv[++i];
  };
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stats") == 0) {
      options.stats = true;
    } else if (std::strcmp(argv[i], "--trace-json") == 0) {
      options.traceJsonPath = flagValue(i, "--trace-json");
    } else if (std::strcmp(argv[i], "--timeline") == 0) {
      options.timelinePath = flagValue(i, "--timeline");
    } else if (std::strcmp(argv[i], "--profile-final") == 0) {
      options.profileFinal = true;
    } else if (std::strcmp(argv[i], "--obs-deterministic") == 0) {
      obs::setDeterministic(true);
    } else if (std::strcmp(argv[i], "--checkpoint-every") == 0) {
      options.checkpointEvery =
          static_cast<std::size_t>(std::strtoull(flagValue(i, "--checkpoint-every"), nullptr, 10));
    } else if (std::strcmp(argv[i], "--checkpoint-prefix") == 0) {
      options.checkpointPrefix = flagValue(i, "--checkpoint-prefix");
    } else if (std::strcmp(argv[i], "--refresh-reference") == 0) {
      options.refreshReference = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  if (!options.traceJsonPath.empty()) {
    obs::Tracer::global().setEnabled(true);
    // Flush periodically (and at exit), so a crashed run keeps a partial
    // trace instead of losing everything.
    obs::Tracer::global().setAutoFlush(options.traceJsonPath);
  }
  if (!options.timelinePath.empty()) {
    obs::Timeline::global().setEnabled(true);
  }
  return options;
}

void finishObsCli(const ObsCliOptions& options, std::ostream& os,
                  const std::vector<SimulationTrace>& traces,
                  const obs::PackageStats* aggregated) {
  if (options.stats) {
    for (const SimulationTrace& trace : traces) {
      os << "\n== telemetry: " << trace.label << " ==\n";
      printStatsTable(os, trace.finalStats);
      if (!trace.gcEvents.empty()) {
        os << "gc events   ";
        for (const TraceGcEvent& event : trace.gcEvents) {
          os << "@" << event.gateIndex << ":-" << event.swept << " ";
        }
        os << "\n";
      }
    }
    if (aggregated != nullptr && traces.size() > 1) {
      os << "\n== telemetry: aggregate (" << traces.size() << " series, " << aggregated->threads
         << (aggregated->threads == 1 ? " worker) ==\n" : " workers) ==\n");
      printStatsTable(os, *aggregated);
    }
  }
  if (options.profileFinal) {
    for (const SimulationTrace& trace : traces) {
      if (trace.finalStateSnapshot.empty()) {
        continue;
      }
      os << "\n== final-state profile: " << trace.label << " ==\n";
      obs::printProfileTable(os, obs::profileSnapshot(trace.finalStateSnapshot));
    }
  }
  if (!options.timelinePath.empty()) {
    const std::string jsonPath = options.timelinePath + ".json";
    const std::string csvPath = options.timelinePath + ".csv";
    const bool jsonOk = obs::Timeline::global().writeJson(jsonPath);
    const bool csvOk = obs::Timeline::global().writeCsv(csvPath);
    if (jsonOk && csvOk) {
      os << "\ntimeline written to " << jsonPath << " and " << csvPath << " ("
         << obs::Timeline::global().size() << " samples, " << obs::Timeline::global().dropped()
         << " dropped)\n";
    } else {
      os << "\nERROR: could not write timeline to " << options.timelinePath << ".{json,csv}\n";
    }
  }
  if (!options.traceJsonPath.empty()) {
    if (obs::Tracer::global().writeJson(options.traceJsonPath)) {
      os << "\nspan trace written to " << options.traceJsonPath
         << " (open in chrome://tracing or ui.perfetto.dev)\n";
    } else {
      os << "\nERROR: could not write trace JSON to " << options.traceJsonPath << "\n";
    }
  }
}

} // namespace qadd::eval
