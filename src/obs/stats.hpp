/// \file stats.hpp
/// Package-wide telemetry counters (qadd::obs).  Every hot structure of the
/// DD package — the nine operation caches, the two unique tables, the node
/// pools and the garbage collector — increments a counter here, so the cost
/// distribution the paper analyses (cache behaviour, table growth, ε-induced
/// merges, bit-width blow-up) is measurable on any workload instead of only
/// on the figure harnesses.
///
/// Compile-time switch: building with -DQADD_OBS=0 turns every increment
/// into a constant-folded no-op (the counters and the reporting API stay
/// available but read as zero), so release builds that want the last few
/// percent can opt out without source changes.  The CMake option QADD_OBS
/// (default ON) drives the define.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#ifndef QADD_OBS
#define QADD_OBS 1
#endif

namespace qadd::obs {

/// True iff telemetry is compiled in.  All increments are guarded by this
/// constant, so with QADD_OBS=0 the optimizer removes them entirely.
inline constexpr bool kEnabled = QADD_OBS != 0;

/// Monotonic event counter; a no-op when telemetry is compiled out.  Each
/// counter belongs to one thread-confined package.
struct Counter {
  std::uint64_t count = 0;

  void inc(std::uint64_t n = 1) {
    if constexpr (kEnabled) {
      count += n;
    } else {
      (void)n;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return count; }
  explicit operator std::uint64_t() const { return value(); }

  Counter& operator+=(const Counter& other) {
    count += other.count;
    return *this;
  }
};

/// Hit/miss statistics of one operation cache.  A "miss" is a lookup that
/// fell through to the recursive computation (and inserted its result).
struct CacheStats {
  Counter hits;
  Counter misses;
  /// Inserts that displaced a live entry with a different key — the lossy
  /// direct-mapped caches overwrite on slot collision instead of chaining.
  Counter evictions;

  [[nodiscard]] std::uint64_t lookups() const { return hits.value() + misses.value(); }
  [[nodiscard]] double hitRate() const {
    const std::uint64_t total = lookups();
    return total == 0 ? 0.0 : static_cast<double>(hits.value()) / static_cast<double>(total);
  }

  CacheStats& operator+=(const CacheStats& other) {
    hits += other.hits;
    misses += other.misses;
    evictions += other.evictions;
    return *this;
  }
};

/// Unique-table statistics.  A "collision" is a miss whose hash bucket was
/// already occupied by a different node (chain lengthening insert).
struct UniqueTableStats {
  Counter lookups;
  Counter hits;
  Counter collisions;

  // Fill gauges (snapshot time): current entry and bucket counts of the
  // bucket-chained unique table.
  std::size_t entries = 0;
  std::size_t buckets = 0;

  [[nodiscard]] double hitRate() const {
    const std::uint64_t total = lookups.value();
    return total == 0 ? 0.0 : static_cast<double>(hits.value()) / static_cast<double>(total);
  }

  /// Counters sum; the fill gauges take the per-table maximum (the tables
  /// being merged are independent, so "largest table seen" is the honest
  /// aggregate — summing snapshots of different tables means nothing).
  UniqueTableStats& operator+=(const UniqueTableStats& other) {
    lookups += other.lookups;
    hits += other.hits;
    collisions += other.collisions;
    entries = std::max(entries, other.entries);
    buckets = std::max(buckets, other.buckets);
    return *this;
  }
};

/// Garbage-collector statistics, accumulated across runs.
struct GcStats {
  Counter runs;
  Counter nodesSwept;
  double seconds = 0.0;

  GcStats& operator+=(const GcStats& other) {
    runs += other.runs;
    nodesSwept += other.nodesSwept;
    seconds += other.seconds;
    return *this;
  }
};

/// Weight-table gauges, filled at snapshot time by the active weight system.
/// The numeric system reports the ε-table view (entry count, spatial-hash
/// bucket occupancy, near-miss unifications — the paper's accuracy-loss
/// event); the algebraic system reports the interned-value count and the
/// bit-width histogram of its 𝔻[ω]/ℚ[ω] coefficients (the paper's cost
/// driver for the GSE blow-up).
struct WeightTableStats {
  std::string system;        ///< System::describe() of the producer
  std::size_t entries = 0;   ///< distinct interned weights
  std::uint64_t nearMissUnifications = 0; ///< ε-hits that were not bit-exact (numeric)
  /// bucketOccupancy[k] = number of hash buckets holding exactly k entries
  /// (k clamped to the last bin); numeric system only.
  std::vector<std::uint64_t> bucketOccupancy;
  /// bitWidthHistogram[b] = number of interned values whose widest
  /// coefficient/denominator uses exactly b bits; algebraic system only.
  std::vector<std::uint64_t> bitWidthHistogram;
  /// Aggregated weight-op memoization cache (add/sub/mul/div pair caches the
  /// systems layer over their intern pools).  For the numeric system these
  /// run only under bit-exact interning; tolerance mode bypasses them.
  CacheStats opCache;
  /// Small-value fast-path tallies of the algebraic arithmetic layer
  /// (process-wide, see src/algebraic/small_kernels.hpp): ring operations
  /// served entirely by the int64/int128 word kernels vs operations that
  /// probed the fast path and fell back to BigInt.  Zero for the numeric
  /// system.
  std::uint64_t smallPathHits = 0;
  std::uint64_t smallPathSpills = 0;

  /// Merge a second weight-table snapshot: event counters sum, fill gauges
  /// max, histograms add element-wise.  The small-path tallies are snapshots
  /// of one process-wide counter, so merging them takes the max (summing
  /// would double-count the shared counter).
  WeightTableStats& operator+=(const WeightTableStats& other) {
    if (system.empty()) {
      system = other.system;
    } else if (!other.system.empty() && other.system != system) {
      system = "mixed";
    }
    entries = std::max(entries, other.entries);
    nearMissUnifications += other.nearMissUnifications;
    opCache += other.opCache;
    smallPathHits = std::max(smallPathHits, other.smallPathHits);
    smallPathSpills = std::max(smallPathSpills, other.smallPathSpills);
    const auto addHistogram = [](std::vector<std::uint64_t>& into,
                                 const std::vector<std::uint64_t>& from) {
      if (into.size() < from.size()) {
        into.resize(from.size(), 0);
      }
      for (std::size_t i = 0; i < from.size(); ++i) {
        into[i] += from[i];
      }
    };
    addHistogram(bucketOccupancy, other.bucketOccupancy);
    addHistogram(bitWidthHistogram, other.bitWidthHistogram);
    return *this;
  }
};

/// Snapshot-I/O statistics (qadd::io): volume written/read through the QDDS
/// serialization layer and the canonical dedup observed on loads (nodes from
/// a snapshot that re-interned onto nodes already present in the unique
/// tables — the measure of how much a load shares with the live package).
struct IoStats {
  Counter snapshotsSaved;
  Counter snapshotsLoaded;
  Counter nodesWritten;
  Counter nodesRead;
  Counter weightsWritten;
  Counter weightsRead;
  Counter bytesWritten;
  Counter bytesRead;
  Counter loadDedupNodes; ///< loaded node records already canonically present

  [[nodiscard]] bool any() const {
    return snapshotsSaved.value() + snapshotsLoaded.value() + bytesWritten.value() +
               bytesRead.value() !=
           0;
  }

  IoStats& operator+=(const IoStats& other) {
    snapshotsSaved += other.snapshotsSaved;
    snapshotsLoaded += other.snapshotsLoaded;
    nodesWritten += other.nodesWritten;
    nodesRead += other.nodesRead;
    weightsWritten += other.weightsWritten;
    weightsRead += other.weightsRead;
    bytesWritten += other.bytesWritten;
    bytesRead += other.bytesRead;
    loadDedupNodes += other.loadDedupNodes;
    return *this;
  }
};

/// Fidelity-bounded approximation statistics (dd::Package::prune): how often
/// the pruner ran, how many edges it redirected to the zero vector and how
/// many nodes left the state as a result.  Zero on exact (algebraic) runs and
/// whenever no ApproxSpec is active.
struct ApproxStats {
  Counter pruneRuns;    ///< prune() invocations that removed at least one edge
  Counter edgesPruned;  ///< child edges redirected to the zero vector
  Counter nodesRemoved; ///< state node-count decrease summed over prune runs

  [[nodiscard]] bool any() const {
    return pruneRuns.value() + edgesPruned.value() + nodesRemoved.value() != 0;
  }

  ApproxStats& operator+=(const ApproxStats& other) {
    pruneRuns += other.pruneRuns;
    edgesPruned += other.edgesPruned;
    nodesRemoved += other.nodesRemoved;
    return *this;
  }
};

/// The full counter block of one dd::Package.  Counters are maintained
/// inline by the package; gauges (live/peak nodes, weight-table view) are
/// filled when a snapshot is taken via Package::stats().
struct PackageStats {
  // Per-operation-cache hit/miss counters.
  CacheStats vAdd;
  CacheStats mAdd;
  CacheStats mv;
  CacheStats mm;
  CacheStats vKron;
  CacheStats mKron;
  CacheStats transpose;
  CacheStats inner;
  CacheStats trace;

  UniqueTableStats vUnique;
  UniqueTableStats mUnique;

  Counter nodeAllocations; ///< nodes taken fresh from the pool
  Counter nodeReuses;      ///< nodes recycled from the free list

  GcStats gc;
  IoStats io;
  ApproxStats approx;

  // Gauges (snapshot time).
  std::size_t liveNodes = 0;
  std::size_t peakNodes = 0;
  std::size_t arenaBytes = 0; ///< node-arena capacity (both pools) in bytes
  WeightTableStats weights;

  /// Worker threads that contributed to this snapshot: 1 for a single
  /// package, and the sweep's `--jobs` count on the aggregated snapshot a
  /// parallel ε-sweep reports (eval::runSweep sets it explicitly).
  std::size_t threads = 1;

  /// Named view over the operation caches, for generic emitters.
  [[nodiscard]] std::vector<std::pair<std::string_view, const CacheStats*>> caches() const {
    return {{"vAdd", &vAdd},   {"mAdd", &mAdd},           {"mv", &mv},
            {"mm", &mm},       {"vKron", &vKron},         {"mKron", &mKron},
            {"transpose", &transpose}, {"inner", &inner}, {"trace", &trace}};
  }

  /// Aggregate hit rate over the multiplication/addition caches that
  /// dominate simulation time (the figure CSVs' cache-hit-rate column).
  [[nodiscard]] double combinedCacheHitRate() const {
    std::uint64_t hits = 0;
    std::uint64_t total = 0;
    for (const CacheStats* cache : {&vAdd, &mAdd, &mv, &mm}) {
      hits += cache->hits.value();
      total += cache->lookups();
    }
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }

  /// Merge another package's counter block into this one: event counters
  /// sum, gauges (live/peak nodes, table fills, weight-table view) take the
  /// maximum, `threads` takes the max of the two views (callers aggregating
  /// a parallel sweep overwrite it with the actual worker count).  This is
  /// how per-worker packages of a parallel ε-sweep fold into the one
  /// aggregated snapshot the report emitters print.
  PackageStats& operator+=(const PackageStats& other) {
    vAdd += other.vAdd;
    mAdd += other.mAdd;
    mv += other.mv;
    mm += other.mm;
    vKron += other.vKron;
    mKron += other.mKron;
    transpose += other.transpose;
    inner += other.inner;
    trace += other.trace;
    vUnique += other.vUnique;
    mUnique += other.mUnique;
    nodeAllocations += other.nodeAllocations;
    nodeReuses += other.nodeReuses;
    gc += other.gc;
    io += other.io;
    approx += other.approx;
    liveNodes = std::max(liveNodes, other.liveNodes);
    peakNodes = std::max(peakNodes, other.peakNodes);
    arenaBytes = std::max(arenaBytes, other.arenaBytes);
    weights += other.weights;
    threads = std::max(threads, other.threads);
    return *this;
  }

  /// Value-returning flavour of operator+= for expression use.
  [[nodiscard]] friend PackageStats merge(PackageStats a, const PackageStats& b) {
    a += b;
    return a;
  }
};

} // namespace qadd::obs
