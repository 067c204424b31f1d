#include "obs/exposition.hpp"

#include "obs/deterministic.hpp"
#include "obs/timeline.hpp"

#include <iomanip>
#include <ostream>
#include <string_view>

namespace qadd::obs {

namespace {

/// "# HELP" + "# TYPE" header of one metric family.
void family(std::ostream& os, std::string_view name, std::string_view type,
            std::string_view help) {
  os << "# HELP " << name << " " << help << "\n# TYPE " << name << " " << type << "\n";
}

} // namespace

std::string promEscapeLabel(std::string_view value) {
  std::string escaped;
  escaped.reserve(value.size());
  for (const char c : value) {
    switch (c) {
    case '\\': escaped += "\\\\"; break;
    case '"': escaped += "\\\""; break;
    case '\n': escaped += "\\n"; break;
    default: escaped += c; break;
    }
  }
  return escaped;
}

void renderPrometheus(std::ostream& os, const PackageStats& stats) {
  os << std::setprecision(12);

  family(os, "qadd_cache_hits_total", "counter", "Operation-cache lookups served from the cache.");
  for (const auto& [name, cache] : stats.caches()) {
    os << "qadd_cache_hits_total{cache=\"" << promEscapeLabel(name) << "\"} "
       << cache->hits.value() << "\n";
  }
  family(os, "qadd_cache_misses_total", "counter",
         "Operation-cache lookups that fell through to the recursive computation.");
  for (const auto& [name, cache] : stats.caches()) {
    os << "qadd_cache_misses_total{cache=\"" << promEscapeLabel(name) << "\"} "
       << cache->misses.value() << "\n";
  }
  family(os, "qadd_cache_evictions_total", "counter",
         "Direct-mapped cache inserts that displaced a live entry.");
  for (const auto& [name, cache] : stats.caches()) {
    os << "qadd_cache_evictions_total{cache=\"" << promEscapeLabel(name) << "\"} "
       << cache->evictions.value() << "\n";
  }

  family(os, "qadd_unique_lookups_total", "counter", "Unique-table lookups.");
  os << "qadd_unique_lookups_total{table=\"vector\"} " << stats.vUnique.lookups.value() << "\n";
  os << "qadd_unique_lookups_total{table=\"matrix\"} " << stats.mUnique.lookups.value() << "\n";
  family(os, "qadd_unique_hits_total", "counter",
         "Unique-table lookups that found the canonical node.");
  os << "qadd_unique_hits_total{table=\"vector\"} " << stats.vUnique.hits.value() << "\n";
  os << "qadd_unique_hits_total{table=\"matrix\"} " << stats.mUnique.hits.value() << "\n";
  family(os, "qadd_unique_collisions_total", "counter",
         "Unique-table inserts into an already occupied bucket.");
  os << "qadd_unique_collisions_total{table=\"vector\"} "
     << (deterministic() ? 0 : stats.vUnique.collisions.value()) << "\n";
  os << "qadd_unique_collisions_total{table=\"matrix\"} "
     << (deterministic() ? 0 : stats.mUnique.collisions.value()) << "\n";
  family(os, "qadd_unique_entries", "gauge", "Unique-table fill (entries).");
  os << "qadd_unique_entries{table=\"vector\"} " << stats.vUnique.entries << "\n";
  os << "qadd_unique_entries{table=\"matrix\"} " << stats.mUnique.entries << "\n";
  family(os, "qadd_unique_buckets", "gauge", "Unique-table bucket count.");
  os << "qadd_unique_buckets{table=\"vector\"} " << stats.vUnique.buckets << "\n";
  os << "qadd_unique_buckets{table=\"matrix\"} " << stats.mUnique.buckets << "\n";

  family(os, "qadd_nodes_allocated_total", "counter", "Nodes taken fresh from the arena.");
  os << "qadd_nodes_allocated_total " << stats.nodeAllocations.value() << "\n";
  family(os, "qadd_nodes_reused_total", "counter", "Nodes recycled from the free list.");
  os << "qadd_nodes_reused_total " << stats.nodeReuses.value() << "\n";
  family(os, "qadd_nodes_live", "gauge", "Currently allocated DD nodes.");
  os << "qadd_nodes_live " << stats.liveNodes << "\n";
  family(os, "qadd_nodes_peak", "gauge", "Peak allocated DD nodes.");
  os << "qadd_nodes_peak " << stats.peakNodes << "\n";
  family(os, "qadd_arena_bytes", "gauge", "Node-arena capacity in bytes.");
  os << "qadd_arena_bytes " << stats.arenaBytes << "\n";

  family(os, "qadd_gc_runs_total", "counter", "Garbage-collection runs.");
  os << "qadd_gc_runs_total " << stats.gc.runs.value() << "\n";
  family(os, "qadd_gc_swept_nodes_total", "counter", "Nodes reclaimed by garbage collection.");
  os << "qadd_gc_swept_nodes_total " << stats.gc.nodesSwept.value() << "\n";
  family(os, "qadd_gc_seconds_total", "counter", "Wall time spent in garbage collection.");
  os << "qadd_gc_seconds_total " << (deterministic() ? 0.0 : stats.gc.seconds) << "\n";

  family(os, "qadd_gate_memo_builds_total", "counter", "Gate DDs built (gate-memo misses).");
  os << "qadd_gate_memo_builds_total " << stats.gateMemo.builds.value() << "\n";
  family(os, "qadd_gate_memo_hits_total", "counter",
         "Gate applications answered from the gate memo.");
  os << "qadd_gate_memo_hits_total " << stats.gateMemo.hits.value() << "\n";

  family(os, "qadd_threads", "gauge", "Worker threads that contributed to this snapshot.");
  os << "qadd_threads " << stats.threads << "\n";

  family(os, "qadd_weight_entries", "gauge", "Distinct interned weights.");
  os << "qadd_weight_entries " << stats.weights.entries << "\n";
  family(os, "qadd_weight_near_miss_unifications_total", "counter",
         "Numeric-table hits that were not bit-exact (accuracy-loss events).");
  os << "qadd_weight_near_miss_unifications_total " << stats.weights.nearMissUnifications << "\n";
  family(os, "qadd_weight_op_hits_total", "counter", "Weight-op memoization cache hits.");
  os << "qadd_weight_op_hits_total " << stats.weights.opCache.hits.value() << "\n";
  family(os, "qadd_weight_op_misses_total", "counter", "Weight-op memoization cache misses.");
  os << "qadd_weight_op_misses_total " << stats.weights.opCache.misses.value() << "\n";
  family(os, "qadd_alg_small_path_hits_total", "counter",
         "Algebraic ring operations served by the int64/int128 word kernels.");
  os << "qadd_alg_small_path_hits_total " << stats.weights.smallPathHits << "\n";
  family(os, "qadd_alg_small_path_spills_total", "counter",
         "Word-kernel probes that fell back to BigInt arithmetic.");
  os << "qadd_alg_small_path_spills_total " << stats.weights.smallPathSpills << "\n";

  family(os, "qadd_io_snapshots_saved_total", "counter", "QDDS snapshots serialized.");
  os << "qadd_io_snapshots_saved_total " << stats.io.snapshotsSaved.value() << "\n";
  family(os, "qadd_io_snapshots_loaded_total", "counter", "QDDS snapshots loaded.");
  os << "qadd_io_snapshots_loaded_total " << stats.io.snapshotsLoaded.value() << "\n";
  family(os, "qadd_io_bytes_written_total", "counter", "Snapshot bytes written.");
  os << "qadd_io_bytes_written_total " << stats.io.bytesWritten.value() << "\n";
  family(os, "qadd_io_bytes_read_total", "counter", "Snapshot bytes read.");
  os << "qadd_io_bytes_read_total " << stats.io.bytesRead.value() << "\n";
  family(os, "qadd_io_load_dedup_nodes_total", "counter",
         "Loaded node records already canonically present.");
  os << "qadd_io_load_dedup_nodes_total " << stats.io.loadDedupNodes.value() << "\n";
}

void renderPrometheus(std::ostream& os, const PackageStats& stats, const Timeline& timeline) {
  renderPrometheus(os, stats);
  family(os, "qadd_timeline_samples", "gauge", "Samples currently held by the timeline ring.");
  os << "qadd_timeline_samples " << timeline.size() << "\n";
  family(os, "qadd_timeline_dropped_total", "counter",
         "Timeline samples lost to ring wrap-around.");
  os << "qadd_timeline_dropped_total " << timeline.dropped() << "\n";
  const std::vector<Timeline::Sample> samples = timeline.samplesSnapshot();
  if (!samples.empty()) {
    const Timeline::Sample& last = samples.back();
    family(os, "qadd_timeline_last_live_nodes", "gauge",
           "Live node count of the most recent timeline sample.");
    os << "qadd_timeline_last_live_nodes " << last.liveNodes << "\n";
    family(os, "qadd_timeline_last_arena_bytes", "gauge",
           "Arena bytes of the most recent timeline sample.");
    os << "qadd_timeline_last_arena_bytes " << last.arenaBytes << "\n";
    family(os, "qadd_timeline_last_gate", "gauge",
           "Gate index of the most recent timeline sample.");
    os << "qadd_timeline_last_gate " << last.gateIndex << "\n";
  }
}

} // namespace qadd::obs
