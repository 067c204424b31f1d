#include "harness.hpp"

#include "qc/gates.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory_resource>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

namespace perf {

void Outcome::fail(const std::string& what) {
  correct = false;
  if (problems.size() < 8) {
    problems.push_back(what);
  }
}

void Outcome::check(bool ok, const std::string& what) {
  if (!ok) {
    fail(what);
  }
}

std::vector<std::size_t> SeededOrder::permutation(std::size_t n) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Fisher-Yates with an explicit modulus, so the order is the same with
  // every standard library.
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng_() % i);
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

double SeededOrder::uniform() {
  return static_cast<double>(rng_() >> 11) * 0x1.0p-53;
}

LatencySummary summarize(std::vector<double> values) {
  LatencySummary summary;
  summary.samples = values.size();
  if (values.empty()) {
    return summary;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  summary.p50 = n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  const std::size_t tailIndex = n > 10 ? n - 11 : n - 1;
  summary.tail = values[tailIndex];
  summary.tailPercentile = 100.0 * static_cast<double>(tailIndex + 1) / static_cast<double>(n);
  return summary;
}

double median(std::vector<double> values) { return summarize(std::move(values)).p50; }

double mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  return std::accumulate(values.begin(), values.end(), 0.0) / static_cast<double>(values.size());
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

// -- host speed -------------------------------------------------------------------

namespace {

double threadCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + 1e-9 * static_cast<double>(now.tv_nsec);
}

/// Inserts per kernel run; about kReferenceProbeMs on the tuning host.
constexpr int kProbeInserts = 80000;

} // namespace

double probeHostMs(int repeats) {
  // Node-allocating hash-map inserts, the work of the DD unique tables, on a
  // private buffer so the state of the process heap does not change what
  // the kernel measures.
  static std::vector<std::byte> buffer(std::size_t{16} << 20);
  static volatile std::uint64_t sink = 0;
  std::vector<double> samples;
  for (int r = 0; r < repeats; ++r) {
    const double start = threadCpuSeconds();
    std::pmr::monotonic_buffer_resource arena(buffer.data(), buffer.size(),
                                              std::pmr::null_memory_resource());
    std::pmr::unordered_map<std::uint64_t, std::uint64_t> map(&arena);
    std::uint64_t x = 7;
    for (int i = 0; i < kProbeInserts; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      map[x >> 45] += x;
    }
    std::uint64_t sum = 0;
    for (const auto& entry : map) {
      sum += entry.second;
    }
    sink = sink + sum;
    samples.push_back((threadCpuSeconds() - start) * 1e3);
  }
  return median(samples);
}

// -- Tracer -----------------------------------------------------------------------

Tracer::Id Tracer::begin(const char* name, Id parent, std::uint64_t op) {
  const double start = now();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start, -1.0, parent, op});
  return static_cast<Id>(spans_.size() - 1);
}

void Tracer::end(Id id) {
  const double stop = now();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end = stop;
}

Tracer::Id Tracer::record(const char* name, Id parent, std::uint64_t op, Clock::time_point start,
                          Clock::time_point end) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, secondsBetween(origin_, start), secondsBetween(origin_, end), parent, op});
  return static_cast<Id>(spans_.size() - 1);
}

std::map<std::string, Tracer::LayerTime> Tracer::layerTimes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent != kNone && span.end >= 0.0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(span.start, span.end);
    }
  }
  std::map<std::string, LayerTime> layers;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end < 0.0) {
      continue;
    }
    // Children of one parent may overlap (sweep points run concurrently),
    // so subtract the union of their intervals, clipped to the parent.
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double runStart = 0.0;
    double runEnd = -1.0;
    for (auto [from, to] : intervals) {
      from = std::max(from, span.start);
      to = std::min(to, span.end);
      if (to <= from) {
        continue;
      }
      if (from > runEnd) {
        covered += std::max(0.0, runEnd - runStart);
        runStart = from;
        runEnd = to;
      } else {
        runEnd = std::max(runEnd, to);
      }
    }
    covered += std::max(0.0, runEnd - runStart);
    LayerTime& layer = layers[span.name];
    ++layer.count;
    layer.totalSeconds += span.end - span.start;
    layer.selfSeconds += (span.end - span.start) - covered;
  }
  return layers;
}

void Tracer::write(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream os(path);
  os << "id,name,start_s,end_s,parent,op\n";
  os.precision(9);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    os << i << ',' << span.name << ',' << span.start << ',' << span.end << ',' << span.parent
       << ',' << span.op << '\n';
  }
  if (!os) {
    throw std::runtime_error("cannot write span trace to " + path);
  }
}

// -- counters ---------------------------------------------------------------------

void CoreCounters::add(const qadd::obs::PackageStats& stats, bool exact) {
  const auto lookups = static_cast<double>(stats.vUnique.lookups.value() +
                                           stats.mUnique.lookups.value());
  const auto hits = static_cast<double>(stats.vUnique.hits.value() + stats.mUnique.hits.value());
  qadd::obs::CacheStats add = stats.vAdd;
  add += stats.mAdd;
  mvHitRate.push_back(stats.mv.hitRate());
  addHitRate.push_back(add.hitRate());
  uniqueLookups.push_back(lookups);
  uniqueHitRate.push_back(lookups == 0 ? 0.0 : hits / lookups);
  uniqueCollisions.push_back(
      static_cast<double>(stats.vUnique.collisions.value() + stats.mUnique.collisions.value()));
  nodeAllocs.push_back(static_cast<double>(stats.nodeAllocations.value()));
  nodeReuses.push_back(static_cast<double>(stats.nodeReuses.value()));
  peakNodes.push_back(static_cast<double>(stats.peakNodes));
  arenaMb.push_back(static_cast<double>(stats.arenaBytes) / (1024.0 * 1024.0));
  gcRuns.push_back(static_cast<double>(stats.gc.runs.value()));
  gcMs.push_back(stats.gc.seconds * 1e3);
  gcSwept.push_back(static_cast<double>(stats.gc.nodesSwept.value()));
  pruneRuns.push_back(static_cast<double>(stats.approx.pruneRuns.value()));
  pruneEdges.push_back(static_cast<double>(stats.approx.edgesPruned.value()));
  if (exact) {
    algEntries.push_back(static_cast<double>(stats.weights.entries));
    const auto& histogram = stats.weights.bitWidthHistogram;
    std::size_t maxBits = 0;
    for (std::size_t bits = 0; bits < histogram.size(); ++bits) {
      if (histogram[bits] != 0) {
        maxBits = bits;
      }
    }
    algMaxBits.push_back(static_cast<double>(maxBits));
    algOpcacheHitRate.push_back(stats.weights.opCache.hitRate());
  } else {
    numEntries.push_back(static_cast<double>(stats.weights.entries));
    nearMiss.push_back(static_cast<double>(stats.weights.nearMissUnifications));
  }
}

double spillFraction(std::uint64_t hits, std::uint64_t spills) {
  const double total = static_cast<double>(hits) + static_cast<double>(spills);
  return total == 0.0 ? 0.0 : static_cast<double>(spills) / total;
}

std::vector<Metric> LayerMetrics::metrics() const {
  return {
      {"algorithms.generate_ms", generateMs, "ms"},
      {"synth.compile_ms", compileMs, "ms"},
      {"qc.gates", gates, "count"},
      {"qc.gate_build_us", gateBuildUs, "us"},
      {"core.mv_us", mvUs, "us"},
      {"core.mv_hit_rate", mean(core.mvHitRate), "fraction"},
      {"core.add_hit_rate", mean(core.addHitRate), "fraction"},
      {"core.unique_lookups", mean(core.uniqueLookups), "count"},
      {"core.unique_hit_rate", mean(core.uniqueHitRate), "fraction"},
      {"core.unique_collisions", mean(core.uniqueCollisions), "count"},
      {"core.node_allocs", mean(core.nodeAllocs), "count"},
      {"core.node_reuses", mean(core.nodeReuses), "count"},
      {"core.peak_nodes", mean(core.peakNodes), "count"},
      {"core.arena_mb", mean(core.arenaMb), "MB"},
      {"core.gc_runs", mean(core.gcRuns), "count"},
      {"core.gc_ms", mean(core.gcMs), "ms"},
      {"core.gc_swept", mean(core.gcSwept), "count"},
      {"core.prune_runs", mean(core.pruneRuns), "count"},
      {"core.prune_edges", mean(core.pruneEdges), "count"},
      {"core.concurrent_points", concurrentPoints, "count"},
      {"algebraic.weight_entries", mean(core.algEntries), "count"},
      {"algebraic.max_bits", mean(core.algMaxBits), "bits"},
      {"algebraic.opcache_hit_rate", mean(core.algOpcacheHitRate), "fraction"},
      {"bigint.spill_frac", spillFrac, "fraction"},
      {"numeric.weight_entries", mean(core.numEntries), "count"},
      {"numeric.near_miss", mean(core.nearMiss), "count"},
      {"eval.reference_s", referenceS, "s"},
      {"eval.qref_load_ms", qrefLoadMs, "ms"},
      {"eval.sampling_ms", samplingMs, "ms"},
      {"eval.critical_s", criticalS, "s"},
      {"exec.workers", workers, "count"},
      {"exec.fanout_s", fanoutS, "s"},
      {"exec.efficiency", efficiency, "fraction"},
      {"exec.speedup", speedup, "x"},
      {"io.save_ms", saveMs, "ms"},
      {"io.load_ms", loadMs, "ms"},
      {"io.snapshot_kb", snapshotKb, "KB"},
      {"serve.sim_ms", simMs, "ms"},
      {"serve.overhead_ms", overheadMs, "ms"},
      {"serve.cache_hit_frac", cacheHitFrac, "fraction"},
      {"serve.coalesced", coalesced, "count"},
      {"serve.rejected", rejected, "count"},
      {"serve.payload_kb", payloadKb, "KB"},
      {"serve.gen_late_ms", genLateMs, "ms"},
      {"obs.trace_overhead", traceOverhead, "fraction"},
  };
}

void LoopResult::writeCsv(const std::string& path) const {
  std::ofstream os(path);
  os << "op,latency_ms,raw_latency_ms,pass_size\n";
  os.precision(9);
  for (std::size_t i = 0; i < latencyMs.size(); ++i) {
    os << i << ',' << latencyMs[i] << ',' << rawLatencyMs[i] << ','
       << attempted / std::max<std::size_t>(1, passes) << '\n';
  }
}

std::string rawTimingNote(const LoopResult& loop) {
  const LatencySummary raw = summarize(loop.rawLatencyMs);
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "as measured: p50 %.3f ms, tail %.3f ms (p%.1f of %zu ops)", raw.p50, raw.tail,
                raw.tailPercentile, raw.samples);
  return buffer;
}

double LoopResult::typicalPassMs() const {
  const std::size_t perPass = latencyMs.size() / passes;
  double total = 0.0;
  for (std::size_t position = 0; position < perPass; ++position) {
    std::vector<double> samples;
    for (std::size_t i = position; i < latencyMs.size(); i += perPass) {
      samples.push_back(latencyMs[i]);
    }
    total += median(std::move(samples));
  }
  return total;
}

void EndToEnd::setClosedLoop(const LoopResult& loop) {
  const double passes = static_cast<double>(loop.passes);
  opsPerS = static_cast<double>(loop.verified) / passes / (loop.typicalPassMs() / 1e3);
  latencyMs = summarize(loop.latencyMs);
  okFrac = static_cast<double>(loop.verified) / static_cast<double>(loop.attempted);
  sloRps = opsPerS;
}

std::vector<Metric> EndToEnd::metrics() const {
  return {
      {"setup_s", setupS, "s"},
      {"ops_per_s", opsPerS, "1/s"},
      {"p50_ms", latencyMs.p50, "ms"},
      {"tail_ms", latencyMs.tail, "ms"},
      {"ok_frac", okFrac, "fraction"},
      {"peak_rss_mb", peakRssMb(), "MB"},
      {"dd_nodes", ddNodes, "count"},
      {"accuracy_err", accuracyErr, "norm"},
      {"slo_rps", sloRps, "1/s"},
  };
}

// -- references -------------------------------------------------------------------

qadd::la::Vector denseSimulate(const qadd::qc::Circuit& circuit) {
  const unsigned n = circuit.qubits();
  const std::size_t dimension = std::size_t{1} << n;
  qadd::la::Vector state = qadd::la::Vector::basisState(dimension, 0);
  const auto bitOf = [n](qadd::qc::Qubit q) { return std::size_t{1} << (n - 1 - q); };
  for (const qadd::qc::Operation& operation : circuit.operations()) {
    const auto matrix = qadd::qc::complexMatrix(operation.kind, operation.angle);
    const std::size_t target = bitOf(operation.target);
    std::size_t controlMask = 0;
    std::size_t controlValue = 0;
    for (const qadd::qc::ControlSpec& control : operation.controls) {
      controlMask |= bitOf(control.qubit);
      if (control.positive) {
        controlValue |= bitOf(control.qubit);
      }
    }
    for (std::size_t i = 0; i < dimension; ++i) {
      if ((i & target) != 0 || (i & controlMask) != controlValue) {
        continue;
      }
      const qadd::la::Complex a0 = state[i];
      const qadd::la::Complex a1 = state[i | target];
      state[i] = matrix[0] * a0 + matrix[1] * a1;
      state[i | target] = matrix[2] * a0 + matrix[3] * a1;
    }
  }
  return state;
}

std::size_t basisIndex(std::uint64_t bits, unsigned qubits) {
  std::size_t index = 0;
  for (unsigned q = 0; q < qubits; ++q) {
    if (((bits >> q) & 1ULL) != 0) {
      index |= std::size_t{1} << (qubits - 1 - q);
    }
  }
  return index;
}

} // namespace perf
