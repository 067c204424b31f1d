/// \file timeline.hpp
/// Time-series gauge sampler (qadd::obs::Timeline): a bounded ring buffer of
/// package-gauge snapshots recorded at per-gate granularity by the simulator
/// and at per-ε-point granularity by the eval tracing layer.  Where
/// obs::PackageStats answers "what did the whole run cost", the timeline
/// answers "when did it get expensive" — the per-gate evolution of DD size,
/// arena footprint, table fill, cache behaviour and GC activity that the
/// paper's figures plot only for node counts.
///
/// Every sample is O(1) to take (no DD traversals, no histogram walks) and
/// recording is a short mutex-guarded ring write, so the sampler can stay on
/// for whole sweeps: when the ring wraps, the oldest samples are dropped and
/// counted.  Samples record the dense thread id of the recording worker
/// (obs::currentThreadId — the same id the span tracer emits as the
/// Chrome-trace tid), so parallel ε-sweep workers show up as separate lanes.
///
/// The sampler is disabled by default and costs one branch per sample
/// request while disabled; with QADD_OBS=0 it compiles out entirely (like
/// the Tracer).  The drivers map --timeline <base> onto the global instance
/// and write <base>.json + <base>.csv at the end of the run.
#pragma once

#include "obs/stats.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace qadd::obs {

class Timeline {
public:
  /// What triggered the sample: a simulator gate application or the
  /// completion of one sweep point (the end-of-run snapshot of one series).
  enum class Kind : std::uint8_t { Gate, Point };

  /// One gauge snapshot.  All counts are the recording package's view at the
  /// moment of sampling; `seconds` is wall time since the timeline's epoch.
  struct Sample {
    std::string series;  ///< trace label of the enclosing run ("" if none)
    Kind kind = Kind::Gate;
    std::uint32_t tid = 0;        ///< dense recording-thread id (stamped by record)
    std::size_t gateIndex = 0;    ///< gates applied so far
    double epsilon = 0.0;         ///< ε of the enclosing numeric run (0 = exact)
    std::size_t liveNodes = 0;    ///< allocated nodes (vector + matrix pools)
    std::size_t peakNodes = 0;    ///< peak allocated nodes so far
    std::size_t arenaBytes = 0;   ///< node-arena capacity in bytes
    std::size_t uniqueEntries = 0;   ///< unique-table fill (both tables)
    std::size_t uniqueBuckets = 0;   ///< unique-table bucket count (both tables)
    std::uint64_t uniqueCollisions = 0; ///< chain-lengthening inserts so far
    double cacheHitRate = 0.0;    ///< combined add/mv/mm computed-table hit rate
    std::uint64_t gcRuns = 0;     ///< garbage collections so far
    std::uint64_t smallPathHits = 0;   ///< algebraic word-kernel fast-path hits
    std::uint64_t smallPathSpills = 0; ///< fast-path probes that fell back to BigInt
    std::size_t weightEntries = 0;     ///< distinct interned weights
    std::uint64_t prunedNodes = 0;     ///< nodes removed by approximation so far
    double seconds = 0.0;         ///< stamped by record(); zeroed in deterministic output
  };

  /// Thread-local series context: the eval tracing layer opens one around a
  /// simulation so the per-gate samples the simulator records carry the
  /// trace's label and ε without threading them through the simulator API.
  class ScopedSeries {
  public:
    ScopedSeries(std::string label, double epsilon);
    ScopedSeries(const ScopedSeries&) = delete;
    ScopedSeries& operator=(const ScopedSeries&) = delete;
    ~ScopedSeries();

  private:
    std::string label_;
    double epsilon_;
    const ScopedSeries* previous_;
    friend class Timeline;
  };

  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16U;

  Timeline() : epoch_(Clock::now()) {}

  /// Process-wide sampler the simulator and eval layer record into.
  [[nodiscard]] static Timeline& global();

  void setEnabled(bool enabled) { enabled_.store(enabled && kEnabled, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return kEnabled && enabled_.load(std::memory_order_relaxed);
  }

  /// Resize the ring (drops all recorded samples).  Capacity 0 is clamped to 1.
  void setCapacity(std::size_t capacity);
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Append a sample, stamping its tid and seconds; when the ring is full
  /// the oldest sample is dropped (and counted).  No-op when disabled.
  void record(Sample sample);

  /// Series label/ε of the innermost open ScopedSeries on this thread, or
  /// defaults when none is open.  Fills only `series` and `epsilon`.
  static void fillSeriesContext(Sample& sample);

  [[nodiscard]] std::size_t size() const;
  /// Samples lost to ring wrap-around since the last clear().
  [[nodiscard]] std::size_t dropped() const;
  void clear();

  /// Recorded samples in chronological order (ring unwrapped).
  [[nodiscard]] std::vector<Sample> samplesSnapshot() const;

  /// JSON object: {"dropped":N,"samples":[{...},...]}.  In deterministic
  /// mode the seconds, cacheHitRate and uniqueCollisions fields (and CSV
  /// columns) are written as 0.
  void writeJson(std::ostream& os) const;
  bool writeJson(const std::string& path) const;

  /// One row per sample:
  /// series,kind,tid,gate,epsilon,livenodes,peaknodes,arenabytes,
  /// uniqueentries,uniquebuckets,uniquecollisions,cachehitrate,gcruns,
  /// smallpathhits,smallpathspills,weightentries,prunednodes,seconds.
  void writeCsv(std::ostream& os) const;
  bool writeCsv(const std::string& path) const;

private:
  using Clock = std::chrono::steady_clock;

  [[nodiscard]] double nowSeconds() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  Clock::time_point epoch_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Sample> ring_;
  std::size_t capacity_ = kDefaultCapacity;
  std::size_t head_ = 0;    ///< index of the oldest sample once wrapped
  std::size_t count_ = 0;   ///< samples currently in the ring
  std::size_t dropped_ = 0; ///< samples overwritten by wrap-around
};

/// Dense id of the calling thread: 1 for the first thread that asks (the
/// driver's main thread in practice), then 2, 3, ... in first-use order.
/// Shared by the span tracer (Chrome-trace tid) and the timeline sampler, so
/// the two outputs agree on which lane a worker is.
[[nodiscard]] std::uint32_t currentThreadId();

} // namespace qadd::obs
