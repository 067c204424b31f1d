/// \file test_obs.cpp
/// Tests of the qadd::obs telemetry layer: operation-cache counters,
/// near-miss unification tracking in the ε-table, node gauges, the GC
/// report, per-kind cache clearing, per-arity routing of the package's
/// tables to their counters, the bit-width histogram of the algebraic
/// intern pool, and the Chrome-trace span tracer.
#include "algorithms/common.hpp"
#include "algorithms/grover.hpp"
#include "algebraic/small_kernels.hpp"
#include "core/algebraic_system.hpp"
#include "core/numeric_system.hpp"
#include "core/package.hpp"
#include "eval/report.hpp"
#include "eval/trace.hpp"
#include "obs/deterministic.hpp"
#include "obs/exposition.hpp"
#include "obs/stats.hpp"
#include "obs/timeline.hpp"
#include "obs/tracer.hpp"
#include "qc/simulator.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

namespace {

using namespace qadd;

using NumericPackage = dd::Package<dd::NumericSystem>;

dd::NumericSystem::Config tightConfig() {
  return {1e-12, dd::NumericSystem::Normalization::LeftmostNonzero};
}

TEST(ObsCounters, RepeatedMultiplyHitsTheCache) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "built with QADD_OBS=0";
  }
  NumericPackage package(4, tightConfig());
  const auto state = package.makeZeroState();
  const qc::Operation h{qc::GateKind::H, 0.0, 1, {}};
  const auto gate = qc::makeOperationDD(package, h);

  const auto first = package.multiply(gate, state);
  const obs::PackageStats before = package.counters();
  EXPECT_GT(before.mv.misses.value(), 0U);

  const auto second = package.multiply(gate, state);
  const obs::PackageStats after = package.counters();
  EXPECT_EQ(first, second);
  // The repeated top-level product is answered entirely from the mv cache:
  // hits increase, misses do not.
  EXPECT_GT(after.mv.hits.value(), before.mv.hits.value());
  EXPECT_EQ(after.mv.misses.value(), before.mv.misses.value());
}

TEST(ObsCounters, AddCacheAndUniqueTableCount) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "built with QADD_OBS=0";
  }
  // GHZ followed by Hadamards on the entangled state: the H products add two
  // non-terminal sub-vectors, exercising the vAdd cache (a bare GHZ ladder
  // never does — one partial product is always the zero vector, which
  // short-circuits add() before the cache).
  qc::Circuit circuit = algos::ghz(6);
  for (qc::Qubit q = 0; q < 6; ++q) {
    circuit.h(q);
  }
  qc::Simulator<dd::NumericSystem> simulator(circuit, tightConfig());
  simulator.run();
  const obs::PackageStats stats = simulator.package().stats();
  EXPECT_GT(stats.vAdd.lookups(), 0U);
  EXPECT_GT(stats.vUnique.lookups.value(), 0U);
  EXPECT_GT(stats.vUnique.hits.value(), 0U);
  EXPECT_GT(stats.mUnique.lookups.value(), 0U);
  EXPECT_GT(stats.nodeAllocations.value(), 0U);
  EXPECT_EQ(stats.weights.entries, simulator.package().system().distinctValues());
  EXPECT_FALSE(stats.weights.system.empty());
}

TEST(ObsCounters, NearMissUnificationFires) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "built with QADD_OBS=0";
  }
  num::ComplexTable table(1e-6);
  const auto a = table.lookup({0.5, 0.25});
  EXPECT_EQ(table.nearMissUnifications(), 0U);
  // Within ε but not bit-equal: unified onto the first entry and counted as
  // a near miss (the paper's silent accuracy-loss event).
  const auto b = table.lookup({0.5 + 1e-8, 0.25});
  EXPECT_EQ(a, b);
  EXPECT_EQ(table.nearMissUnifications(), 1U);
  // Bit-exact repeat: a hit, but not a near miss.
  const auto c = table.lookup({0.5, 0.25});
  EXPECT_EQ(a, c);
  EXPECT_EQ(table.nearMissUnifications(), 1U);
  // Far away: a fresh entry, no near miss.
  const auto d = table.lookup({0.75, 0.0});
  EXPECT_NE(a, d);
  EXPECT_EQ(table.nearMissUnifications(), 1U);
}

TEST(ObsCounters, NearMissCountsInExactModeSnaps) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "built with QADD_OBS=0";
  }
  // ε below the bit-exact threshold still snaps to the canonical 0/1 entries.
  num::ComplexTable table(1e-13);
  const auto one = table.lookup({1.0 + 1e-14, 0.0});
  EXPECT_EQ(one, table.oneRef());
  EXPECT_EQ(table.nearMissUnifications(), 1U);
}

TEST(ObsGauges, PeakNodesIsMonotoneAndBoundsFinal) {
  qc::Simulator<dd::NumericSystem> simulator(algos::ghz(6), tightConfig());
  std::size_t lastPeak = 0;
  while (simulator.step()) {
    const std::size_t peak = simulator.package().peakNodes();
    EXPECT_GE(peak, lastPeak); // monotone over the run
    lastPeak = peak;
  }
  EXPECT_GE(lastPeak, simulator.package().allocatedNodes());
  EXPECT_GE(lastPeak, simulator.stateNodes());
  const obs::PackageStats stats = simulator.package().stats();
  EXPECT_EQ(stats.peakNodes, lastPeak);
  EXPECT_EQ(stats.liveNodes, simulator.package().allocatedNodes());
}

TEST(ObsGauges, BucketOccupancyCoversAllEntries) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "built with QADD_OBS=0";
  }
  qc::Simulator<dd::NumericSystem> simulator(algos::ghz(5), tightConfig());
  simulator.run();
  const obs::PackageStats stats = simulator.package().stats();
  ASSERT_FALSE(stats.weights.bucketOccupancy.empty());
  std::uint64_t covered = 0;
  for (std::size_t k = 0; k < stats.weights.bucketOccupancy.size(); ++k) {
    covered += static_cast<std::uint64_t>(k) * stats.weights.bucketOccupancy[k];
  }
  // Every interned entry lives in exactly one bucket (the last bin is
  // clamped, so covered can only undercount if a bucket exceeds the clamp).
  EXPECT_GE(covered, 2U); // at least 0 and 1
  EXPECT_LE(covered, stats.weights.entries);
}

TEST(ObsGauges, AlgebraicBitWidthHistogram) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "built with QADD_OBS=0";
  }
  qc::Simulator<dd::AlgebraicSystem> simulator(algos::ghz(4));
  simulator.run();
  const obs::PackageStats stats = simulator.package().stats();
  ASSERT_FALSE(stats.weights.bitWidthHistogram.empty());
  std::uint64_t total = 0;
  for (const std::uint64_t count : stats.weights.bitWidthHistogram) {
    total += count;
  }
  EXPECT_EQ(total, stats.weights.entries);
  EXPECT_TRUE(stats.weights.bucketOccupancy.empty());
  EXPECT_EQ(stats.weights.nearMissUnifications, 0U);
}

TEST(GcReport, ReportsSweptNodesAndResetStatsClears) {
  NumericPackage package(5, tightConfig());
  auto state = package.makeZeroState();
  package.incRef(state);
  const qc::Operation h{qc::GateKind::H, 0.0, 2, {}};
  const auto gate = qc::makeOperationDD(package, h);
  const auto next = package.multiply(gate, state);
  package.incRef(next);
  package.decRef(state); // old state becomes garbage
  const std::size_t liveBefore = package.allocatedNodes();
  const dd::GcReport report = package.garbageCollect();
  EXPECT_EQ(report.liveBefore, liveBefore);
  EXPECT_EQ(report.liveAfter, package.allocatedNodes());
  EXPECT_EQ(report.swept, report.liveBefore - report.liveAfter);
  EXPECT_GE(report.seconds, 0.0);
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(package.counters().gc.runs.value(), 1U);
    EXPECT_EQ(package.counters().gc.nodesSwept.value(), report.swept);
    package.resetStats();
    EXPECT_EQ(package.counters().gc.runs.value(), 0U);
  }
}

TEST(CacheKind, PerKindClearOnlyDropsSelectedCache) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "built with QADD_OBS=0";
  }
  NumericPackage package(4, tightConfig());
  const auto state = package.makeZeroState();
  const qc::Operation h{qc::GateKind::H, 0.0, 1, {}};
  const auto gate = qc::makeOperationDD(package, h);
  const auto product = package.multiply(gate, state);
  (void)package.innerProduct(product, product);

  // Clearing only the inner cache leaves the mv cache warm: the repeated
  // product is a pure hit, no recomputation.
  package.clearCaches(dd::CacheKind::Inner);
  const auto mvHitsBefore = package.counters().mv.hits.value();
  const auto mvMissesBefore = package.counters().mv.misses.value();
  (void)package.multiply(gate, state);
  EXPECT_GT(package.counters().mv.hits.value(), mvHitsBefore);
  EXPECT_EQ(package.counters().mv.misses.value(), mvMissesBefore);

  // Clearing MV forces a recomputation — misses must increase.  (Hits may
  // too: the cache is keyed on node pairs, and a gate DD with shared
  // children can re-meet the same sub-product within the one recomputation.)
  package.clearCaches(dd::CacheKind::MV);
  const auto missesAfterClear = package.counters().mv.misses.value();
  (void)package.multiply(gate, state);
  EXPECT_GT(package.counters().mv.misses.value(), missesAfterClear);

  // Epoch semantics: a clear is an O(1) epoch bump, so cleared entries still
  // physically sit in their slots — but an outdated epoch must never serve a
  // hit, including across back-to-back clears.
  package.clearCaches(dd::CacheKind::MV);
  package.clearCaches(dd::CacheKind::MV);
  const auto missesAfterDoubleClear = package.counters().mv.misses.value();
  (void)package.multiply(gate, state);
  EXPECT_GT(package.counters().mv.misses.value(), missesAfterDoubleClear)
      << "stale-epoch entry served as a hit after clearing";
}

/// One public kernel, the operation cache it must route through (its
/// PackageStats::caches() name and CacheKind) and the unique table whose
/// counters it may move (none for the weight-valued inner/trace kernels).
struct RoutedKernel {
  std::string_view cache;
  dd::CacheKind kind;
  enum class Unique { Vector, Matrix, None } unique;
  std::function<void()> run;
};

/// Every kernel with an operation cache, on 3-qubit operands chosen so that
/// no kernel reaches a second cache: the multiply operands make one of the
/// two partial products zero at every level (so the add inside the product
/// short-circuits before its cache), and the Kronecker operands span disjoint
/// levels.
std::vector<RoutedKernel> routedKernels(NumericPackage& package) {
  const auto gate = [&package](qc::GateKind kind, qc::Qubit target) {
    return qc::makeOperationDD(package, qc::Operation{kind, 0.0, target, {}});
  };
  const auto basis = [&package](bool bit) {
    const std::array<bool, 3> bits{bit, bit, bit};
    return package.makeBasisState(bits);
  };
  const NumericPackage::VEdge zeros = basis(false);
  const NumericPackage::VEdge ones = basis(true);
  const NumericPackage::MEdge h0 = gate(qc::GateKind::H, 0);
  const NumericPackage::MEdge x1 = gate(qc::GateKind::X, 1);
  const NumericPackage::MEdge z0 = gate(qc::GateKind::Z, 0);
  const NumericPackage::VEdge one{nullptr, package.system().one()};
  const NumericPackage::VEdge vTop = package.makeVNode(0, {one, package.zeroVector()});
  NumericPackage::VEdge vBottom =
      package.makeVNode(1, {package.makeVNode(2, {one, package.zeroVector()}),
                            package.zeroVector()});
  vBottom.var = 1;
  NumericPackage::MEdge mBottom = x1;
  mBottom.var = 1;
  using U = RoutedKernel::Unique;
  return {
      {"vAdd", dd::CacheKind::VAdd, U::Vector, [&package, zeros, ones] {
         (void)package.add(zeros, ones);
       }},
      {"mAdd", dd::CacheKind::MAdd, U::Matrix, [&package, h0, x1] {
         (void)package.add(h0, x1);
       }},
      {"mv", dd::CacheKind::MV, U::Vector, [&package, h0, zeros] {
         (void)package.multiply(h0, zeros);
       }},
      {"mm", dd::CacheKind::MM, U::Matrix, [&package, z0, h0] {
         (void)package.multiply(z0, h0);
       }},
      {"vKron", dd::CacheKind::VKron, U::Vector, [&package, vTop, vBottom] {
         (void)package.kronecker(vTop, vBottom);
       }},
      {"mKron", dd::CacheKind::MKron, U::Matrix, [&package, h0, mBottom] {
         (void)package.kronecker(h0, mBottom);
       }},
      {"transpose", dd::CacheKind::Transpose, U::Matrix, [&package, h0] {
         (void)package.conjugateTranspose(h0);
       }},
      {"inner", dd::CacheKind::Inner, U::None, [&package, zeros, ones] {
         (void)package.innerProduct(zeros, ones);
       }},
      {"trace", dd::CacheKind::Trace, U::None, [&package, h0] { (void)package.trace(h0); }},
  };
}

std::uint64_t cacheCount(const obs::PackageStats& stats, std::string_view name, bool missesOnly) {
  for (const auto& [cacheName, cache] : stats.caches()) {
    if (cacheName == name) {
      return missesOnly ? cache->misses.value() : cache->lookups() + cache->evictions.value();
    }
  }
  ADD_FAILURE() << "no cache named " << name;
  return 0;
}

TEST(ArityRouting, EachKernelMovesOnlyItsOwnTables) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "built with QADD_OBS=0";
  }
  NumericPackage package(3, tightConfig());
  for (const RoutedKernel& kernel : routedKernels(package)) {
    SCOPED_TRACE(std::string(kernel.cache));
    const obs::PackageStats before = package.counters();
    kernel.run();
    const obs::PackageStats after = package.counters();
    for (const auto& [name, cache] : before.caches()) {
      if (name == kernel.cache) {
        EXPECT_GT(cacheCount(after, name, true), cache->misses.value()) << name;
      } else {
        EXPECT_EQ(cacheCount(after, name, false), cacheCount(before, name, false))
            << name << " moved";
      }
    }
    const auto uniqueMoved = [](const obs::UniqueTableStats& a, const obs::UniqueTableStats& b) {
      return a.lookups.value() != b.lookups.value() || a.hits.value() != b.hits.value() ||
             a.collisions.value() != b.collisions.value();
    };
    EXPECT_EQ(uniqueMoved(before.vUnique, after.vUnique),
              kernel.unique == RoutedKernel::Unique::Vector);
    EXPECT_EQ(uniqueMoved(before.mUnique, after.mUnique),
              kernel.unique == RoutedKernel::Unique::Matrix);
  }
}

TEST(ArityRouting, ClearingOneKindForcesMissesOnlyThere) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "built with QADD_OBS=0";
  }
  NumericPackage package(3, tightConfig());
  const std::vector<RoutedKernel> kernels = routedKernels(package);
  const auto runAll = [&kernels] {
    for (const RoutedKernel& kernel : kernels) {
      kernel.run();
    }
  };
  runAll(); // warm every cache
  for (const RoutedKernel& cleared : kernels) {
    SCOPED_TRACE(std::string(cleared.cache));
    package.clearCaches(cleared.kind);
    const obs::PackageStats before = package.counters();
    runAll();
    const obs::PackageStats after = package.counters();
    for (const RoutedKernel& kernel : kernels) {
      const std::uint64_t misses = cacheCount(after, kernel.cache, true);
      if (kernel.kind == cleared.kind) {
        EXPECT_GT(misses, cacheCount(before, kernel.cache, true)) << kernel.cache;
      } else {
        EXPECT_EQ(misses, cacheCount(before, kernel.cache, true)) << kernel.cache;
      }
    }
  }
}

TEST(Tracer, SpansNestAndJsonIsWellFormed) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "built with QADD_OBS=0";
  }
  obs::Tracer tracer;
  tracer.setEnabled(true);
  {
    const auto outer = tracer.span("outer", "test");
    {
      const auto inner = tracer.span("inner", "test");
    }
    const auto sibling = tracer.span("sibling", "test");
  }
  ASSERT_EQ(tracer.events().size(), 3U);
  // Events are recorded at close time: inner, sibling, outer.
  const auto& inner = tracer.events()[0];
  const auto& sibling = tracer.events()[1];
  const auto& outer = tracer.events()[2];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.depth, 0U);
  EXPECT_EQ(inner.depth, 1U);
  EXPECT_EQ(sibling.depth, 1U);
  // Nesting: both children lie inside the parent's interval.
  for (const auto* child : {&inner, &sibling}) {
    EXPECT_GE(child->startUs, outer.startUs);
    EXPECT_LE(child->startUs + child->durationUs, outer.startUs + outer.durationUs + 1e-6);
  }
  // Siblings do not overlap.
  EXPECT_GE(sibling.startUs, inner.startUs + inner.durationUs - 1e-6);

  std::ostringstream os;
  tracer.writeJson(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  // Balanced braces/brackets => parses as JSON for our emitter's grammar
  // (no strings containing braces are emitted here).
  long braces = 0;
  long brackets = 0;
  for (const char c : json) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  obs::Tracer tracer;
  {
    const auto span = tracer.span("ignored", "test");
    EXPECT_FALSE(span.active());
  }
  EXPECT_TRUE(tracer.events().empty());
}

TEST(Tracer, SimulatorEmitsGateSpans) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "built with QADD_OBS=0";
  }
  auto& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.setEnabled(true);
  qc::Simulator<dd::NumericSystem> simulator(algos::ghz(3), tightConfig());
  simulator.run();
  tracer.setEnabled(false);
  bool sawGate = false;
  bool sawMv = false;
  for (const auto& event : tracer.events()) {
    sawGate = sawGate || event.name.starts_with("gate:");
    sawMv = sawMv || event.name == "mv";
  }
  EXPECT_TRUE(sawGate);
  EXPECT_TRUE(sawMv);
  tracer.clear();
}

TEST(TraceIntegration, TracePointsCarryTelemetryColumns) {
  const qc::Circuit circuit = algos::ghz(5);
  eval::TraceOptions options;
  options.sampleEvery = 2;
  const eval::SimulationTrace trace = eval::traceRun(circuit, {1e-12}, nullptr, options);
  ASSERT_FALSE(trace.points.empty());
  std::size_t lastPeak = 0;
  for (const auto& point : trace.points) {
    EXPECT_GE(point.peakNodes, point.nodes);
    EXPECT_GE(point.peakNodes, lastPeak);
    lastPeak = point.peakNodes;
    EXPECT_GT(point.tableFill, 0U);
    if constexpr (obs::kEnabled) {
      EXPECT_GE(point.cacheHitRate, 0.0);
      EXPECT_LE(point.cacheHitRate, 1.0);
    }
  }
  EXPECT_EQ(trace.peakNodes, lastPeak);
  if constexpr (obs::kEnabled) {
    EXPECT_GT(trace.finalStats.mv.lookups(), 0U);
  }
}

TEST(TraceIntegration, GcEventsAreRecorded) {
  // Force frequent GC with a tiny threshold.
  qc::Simulator<dd::NumericSystem>::Options simOptions;
  simOptions.gcNodeThreshold = 1;
  qc::Simulator<dd::NumericSystem> simulator(algos::ghz(4), tightConfig(), simOptions);
  simulator.run();
  ASSERT_FALSE(simulator.gcEvents().empty());
  for (const auto& event : simulator.gcEvents()) {
    EXPECT_GT(event.gateIndex, 0U);
    EXPECT_LE(event.gateIndex, simulator.circuit().size());
    EXPECT_EQ(event.report.swept, event.report.liveBefore - event.report.liveAfter);
  }
}

TEST(Emitters, StatsTableAndJson) {
  qc::Simulator<dd::NumericSystem> simulator(algos::ghz(4), tightConfig());
  simulator.run();
  const obs::PackageStats stats = simulator.package().stats();

  std::ostringstream table;
  eval::printStatsTable(table, stats);
  EXPECT_NE(table.str().find("cache"), std::string::npos);
  EXPECT_NE(table.str().find("mv"), std::string::npos);
  EXPECT_NE(table.str().find("gc"), std::string::npos);

  std::ostringstream json;
  eval::writeStatsJson(json, stats);
  const std::string jsonStr = json.str();
  EXPECT_NE(jsonStr.find("\"caches\""), std::string::npos);
  EXPECT_NE(jsonStr.find("\"uniqueTables\""), std::string::npos);
  EXPECT_NE(jsonStr.find("\"weights\""), std::string::npos);
  long braces = 0;
  for (const char c : jsonStr) {
    braces += (c == '{') - (c == '}');
  }
  EXPECT_EQ(braces, 0);
}

TEST(Emitters, TraceCsvHasTelemetryColumns) {
  const qc::Circuit circuit = algos::ghz(3);
  eval::TraceOptions options;
  options.sampleEvery = 1;
  const eval::SimulationTrace trace = eval::traceRun(circuit, {1e-12}, nullptr, options);
  std::ostringstream os;
  eval::writeCsv(os, {trace});
  EXPECT_NE(os.str().find("peaknodes,cachehitrate,tablefill"), std::string::npos);
}

/// Restores the deterministic-output switch on scope exit.
struct DeterministicGuard {
  explicit DeterministicGuard(bool value) { obs::setDeterministic(value); }
  ~DeterministicGuard() { obs::setDeterministic(false); }
};

TEST(Timeline, FinalPointSampleMatchesEndOfRunStats) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "built with QADD_OBS=0";
  }
  auto& timeline = obs::Timeline::global();
  timeline.clear();
  timeline.setEnabled(true);
  const qc::Circuit circuit = algos::ghz(5);
  eval::TraceOptions options;
  options.sampleEvery = 2;
  const eval::SimulationTrace trace = eval::traceRun(circuit, {1e-12}, nullptr, options);
  timeline.setEnabled(false);

  const auto samples = timeline.samplesSnapshot();
  timeline.clear();
  std::size_t gateSamples = 0;
  const obs::Timeline::Sample* point = nullptr;
  for (const auto& sample : samples) {
    if (sample.kind == obs::Timeline::Kind::Gate) {
      ++gateSamples;
      EXPECT_EQ(sample.series, trace.label); // ScopedSeries context reached the simulator
      EXPECT_EQ(sample.epsilon, 1e-12);
    } else {
      point = &sample;
    }
  }
  EXPECT_EQ(gateSamples, circuit.size()); // one Gate sample per applied gate
  ASSERT_NE(point, nullptr);

  // The Point sample is taken right next to the finalStats snapshot, so its
  // gauges must agree with the --stats end-of-run counters exactly.
  const obs::PackageStats& stats = trace.finalStats;
  EXPECT_EQ(point->series, trace.label);
  EXPECT_EQ(point->liveNodes, stats.liveNodes);
  EXPECT_EQ(point->peakNodes, stats.peakNodes);
  EXPECT_EQ(point->arenaBytes, stats.arenaBytes);
  EXPECT_EQ(point->uniqueEntries, stats.vUnique.entries + stats.mUnique.entries);
  EXPECT_EQ(point->uniqueBuckets, stats.vUnique.buckets + stats.mUnique.buckets);
  EXPECT_EQ(point->uniqueCollisions,
            stats.vUnique.collisions.value() + stats.mUnique.collisions.value());
  EXPECT_EQ(point->cacheHitRate, stats.combinedCacheHitRate());
  EXPECT_EQ(point->gcRuns, stats.gc.runs.value());
  EXPECT_EQ(point->weightEntries, stats.weights.entries);
  EXPECT_EQ(point->gateIndex, circuit.size());
}

TEST(Timeline, RingDropsOldestAndCountsThem) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "built with QADD_OBS=0";
  }
  obs::Timeline timeline;
  timeline.setEnabled(true);
  timeline.setCapacity(4);
  for (std::size_t i = 0; i < 10; ++i) {
    obs::Timeline::Sample sample;
    sample.gateIndex = i;
    timeline.record(std::move(sample));
  }
  EXPECT_EQ(timeline.size(), 4U);
  EXPECT_EQ(timeline.dropped(), 6U);
  const auto samples = timeline.samplesSnapshot();
  ASSERT_EQ(samples.size(), 4U);
  // Chronological order with the oldest six gone: 6, 7, 8, 9.
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].gateIndex, 6 + i);
    EXPECT_GE(samples[i].tid, 1U); // record() stamps the dense thread id
  }
}

TEST(Timeline, DeterministicModeZeroesWallClockColumns) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "built with QADD_OBS=0";
  }
  obs::Timeline timeline;
  timeline.setEnabled(true);
  obs::Timeline::Sample sample;
  sample.series = "s";
  sample.kind = obs::Timeline::Kind::Point;
  sample.liveNodes = 7;
  sample.cacheHitRate = 0.5;
  timeline.record(std::move(sample));
  ASSERT_EQ(timeline.size(), 1U);

  const DeterministicGuard guard(true);
  ASSERT_TRUE(obs::deterministic());
  std::ostringstream csv;
  timeline.writeCsv(csv);
  // Only the last column (seconds) is zeroed; counters and structural
  // gauges survive.
  EXPECT_NE(csv.str().find("s,point"), std::string::npos);
  EXPECT_NE(csv.str().find(",7,"), std::string::npos);
  EXPECT_NE(csv.str().find(",0.5,"), std::string::npos);
  EXPECT_TRUE(csv.str().ends_with(",0\n")) << csv.str();
  std::ostringstream json;
  timeline.writeJson(json);
  EXPECT_NE(json.str().find("\"deterministic\":true"), std::string::npos);
  EXPECT_NE(json.str().find("\"cacheHitRate\":0.5,"), std::string::npos);
  EXPECT_NE(json.str().find("\"seconds\":0}"), std::string::npos);
}

TEST(Emitters, DeterministicModeZeroesOnlyGcSeconds) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "built with QADD_OBS=0";
  }
  // Counters follow the circuit (nodes hash by insert serial), so the mode
  // masks only wall-clock seconds; collision counts stay in every emitter.
  obs::PackageStats stats;
  stats.vUnique.collisions.inc(4242);
  stats.mUnique.collisions.inc(5353);
  stats.gc.seconds = 0.625;
  obs::Timeline timeline;
  timeline.setEnabled(true);
  obs::Timeline::Sample sample;
  sample.uniqueCollisions = 4242;
  timeline.record(std::move(sample)); // stamps its wall-clock seconds

  const auto emitAll = [&] {
    std::ostringstream table;
    eval::printStatsTable(table, stats);
    std::ostringstream json;
    eval::writeStatsJson(json, stats);
    std::ostringstream prometheus;
    obs::renderPrometheus(prometheus, stats);
    std::ostringstream timelineCsv;
    timeline.writeCsv(timelineCsv);
    std::ostringstream timelineJson;
    timeline.writeJson(timelineJson);
    return std::array<std::string, 5>{table.str(), json.str(), prometheus.str(),
                                      timelineCsv.str(), timelineJson.str()};
  };
  const auto plain = emitAll();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NE(plain[i].find("0.625"), std::string::npos) << "gc seconds outside the mode:\n"
                                                         << plain[i];
  }

  const DeterministicGuard guard(true);
  const auto masked = emitAll();
  for (std::size_t i = 0; i < masked.size(); ++i) {
    EXPECT_EQ(masked[i].find("0.625"), std::string::npos) << masked[i];
    EXPECT_NE(masked[i].find("4242"), std::string::npos) << masked[i];
    if (i < 3) {
      EXPECT_NE(masked[i].find("5353"), std::string::npos) << masked[i];
    }
  }
  EXPECT_NE(masked[0].find("4242 collisions"), std::string::npos);
  EXPECT_NE(masked[0].find(" 0 s\n"), std::string::npos);
  EXPECT_NE(masked[1].find("\"collisions\":4242,"), std::string::npos);
  EXPECT_NE(masked[1].find("\"seconds\":0}"), std::string::npos);
  EXPECT_NE(masked[2].find("qadd_unique_collisions_total{table=\"vector\"} 4242\n"),
            std::string::npos);
  EXPECT_NE(masked[2].find("qadd_gc_seconds_total 0\n"), std::string::npos);
  EXPECT_NE(masked[3].find(",4242,"), std::string::npos);
  EXPECT_TRUE(masked[3].ends_with(",0\n")) << masked[3];
  EXPECT_NE(masked[4].find("\"uniqueCollisions\":4242,"), std::string::npos);
  EXPECT_NE(masked[4].find("\"seconds\":0}"), std::string::npos);
}

/// The stats JSON and Prometheus text of a Grover-7 run in a fresh package.
/// The algebraic small-path tallies are process-wide, so they restart here.
template <class System>
std::array<std::string, 2> groverTelemetry(const typename System::Config& config) {
  alg::detail::smallPathStats().hits = 0;
  alg::detail::smallPathStats().spills = 0;
  qc::Simulator<System> simulator(algos::grover({7, 0b1011001, 0}), config);
  simulator.run();
  const obs::PackageStats stats = simulator.package().stats();
  std::ostringstream json;
  eval::writeStatsJson(json, stats);
  std::ostringstream prometheus;
  obs::renderPrometheus(prometheus, stats);
  return {json.str(), prometheus.str()};
}

TEST(Emitters, CountersDoNotDependOnHeapLayout) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "built with QADD_OBS=0";
  }
  // Nodes hash by insert serial, so every counter of a run follows the
  // circuit: a second run lands on other addresses (a ballast package keeps
  // a few thousand nodes alive in between) and must still print the same
  // texts.  ε=0 keeps the operation caches lossy.
  const DeterministicGuard guard(true); // gc seconds are wall clock
  const dd::NumericSystem::Config exact{0.0, dd::NumericSystem::Normalization::LeftmostNonzero};
  const auto numeric = groverTelemetry<dd::NumericSystem>(exact);
  const auto algebraic = groverTelemetry<dd::AlgebraicSystem>({});

  NumericPackage ballast(12, tightConfig());
  std::array<bool, 12> bits{};
  for (std::size_t index = 0; index < 4096; ++index) {
    for (std::size_t q = 0; q < bits.size(); ++q) {
      bits[q] = ((index >> q) & 1U) != 0;
    }
    (void)ballast.makeBasisState(bits);
  }
  ASSERT_GT(ballast.stats().liveNodes, 4000U);

  EXPECT_EQ(groverTelemetry<dd::NumericSystem>(exact), numeric);
  EXPECT_EQ(groverTelemetry<dd::AlgebraicSystem>({}), algebraic);
}

TEST(Timeline, CsvAndJsonAreWellFormed) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "built with QADD_OBS=0";
  }
  obs::Timeline timeline;
  timeline.setEnabled(true);
  obs::Timeline::Sample sample;
  sample.series = "numeric eps=0.001";
  sample.kind = obs::Timeline::Kind::Gate;
  sample.gateIndex = 3;
  timeline.record(std::move(sample));

  std::ostringstream csv;
  timeline.writeCsv(csv);
  EXPECT_NE(csv.str().find("series,kind,tid,gate,epsilon"), std::string::npos);
  EXPECT_NE(csv.str().find("numeric eps=0.001,gate,"), std::string::npos);

  std::ostringstream json;
  timeline.writeJson(json);
  const std::string text = json.str();
  EXPECT_NE(text.find("\"samples\":["), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"gate\""), std::string::npos);
  long braces = 0;
  long brackets = 0;
  for (const char c : text) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(Exposition, PrometheusTextHasTypedFamilies) {
  qc::Simulator<dd::NumericSystem> simulator(algos::ghz(4), tightConfig());
  simulator.run();
  std::ostringstream os;
  obs::renderPrometheus(os, simulator.package().stats());
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE qadd_cache_hits_total counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE qadd_nodes_live gauge"), std::string::npos);
  EXPECT_NE(text.find("qadd_cache_hits_total{cache=\"mv\"}"), std::string::npos);
  EXPECT_NE(text.find("qadd_unique_entries{table=\"vector\"}"), std::string::npos);
  EXPECT_NE(text.find("qadd_arena_bytes"), std::string::npos);
  // Every exposed line is either a comment or "name[{labels}] value".
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_TRUE(line[0] == '#' || line.find(' ') != std::string::npos) << line;
  }
}

TEST(Exposition, LabelValuesEscapePerSpec) {
  // Backslash, double-quote and newline are the three characters the
  // exposition spec requires escaping inside label values — exactly what an
  // untrusted qadd_serve session name can smuggle in.
  EXPECT_EQ(obs::promEscapeLabel("plain-name_42"), "plain-name_42");
  EXPECT_EQ(obs::promEscapeLabel("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::promEscapeLabel("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(obs::promEscapeLabel("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(obs::promEscapeLabel("evil\"} 1\nqadd_fake_metric{x=\""),
            "evil\\\"} 1\\nqadd_fake_metric{x=\\\"");
  // An escaped value never contains a raw newline or an unescaped quote, so
  // one label value can never terminate its own line or sample.
  const std::string escaped = obs::promEscapeLabel("inject\"} 9\nbogus 1");
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] == '"') {
      ASSERT_GT(i, 0U);
      EXPECT_EQ(escaped[i - 1], '\\');
    }
  }
}

TEST(Exposition, TimelineOverloadAddsSamplerFamilies) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "built with QADD_OBS=0";
  }
  obs::Timeline timeline;
  timeline.setEnabled(true);
  obs::Timeline::Sample sample;
  sample.liveNodes = 11;
  timeline.record(std::move(sample));
  std::ostringstream os;
  obs::renderPrometheus(os, obs::PackageStats{}, timeline);
  EXPECT_NE(os.str().find("qadd_timeline_samples 1"), std::string::npos);
  EXPECT_NE(os.str().find("qadd_timeline_dropped_total 0"), std::string::npos);
  EXPECT_NE(os.str().find("qadd_timeline_last_live_nodes 11"), std::string::npos);
}

TEST(Tracer, AutoFlushSurvivesAbruptExit) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "built with QADD_OBS=0";
  }
  const std::string path = "trace_crash_test.json";
  std::remove(path.c_str());
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: flush after every finished span, then die mid-span without
    // running atexit handlers (_exit) — like a crash would.
    auto& tracer = obs::Tracer::global();
    tracer.clear();
    tracer.setEnabled(true);
    tracer.setAutoFlush(path, 1);
    {
      const auto finished = tracer.span("finished-span", "test");
    }
    const auto unfinished = tracer.span("unfinished-span", "test");
    _exit(42);
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 42);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "periodic flush did not write a partial trace";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(buffer.str().find("finished-span"), std::string::npos);
  // The span still open at _exit time was never recorded — a partial trace,
  // not a corrupted one.
  EXPECT_EQ(buffer.str().find("unfinished-span"), std::string::npos);
  std::remove(path.c_str());
}

} // namespace
