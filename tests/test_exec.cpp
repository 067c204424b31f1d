/// \file test_exec.cpp
/// The parallel ε-sweep executor: exec::ThreadPool lifecycle, exception
/// propagation, parallelFor semantics (ordering, deadlock guard), the
/// obs::PackageStats merge used for cross-worker aggregation, the
/// thread-safe span tracer, and the determinism contract of eval::runSweep —
/// a parallel sweep must produce byte-identical value columns and final
/// state snapshots to the serial path.
#include "algorithms/grover.hpp"
#include "eval/report.hpp"
#include "eval/sweep.hpp"
#include "exec/thread_pool.hpp"
#include "obs/deterministic.hpp"
#include "obs/stats.hpp"
#include "obs/tracer.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace qadd;

TEST(ThreadPool, StartsStopsAndRunsTasks) {
  exec::ThreadPool pool(4);
  EXPECT_EQ(pool.workers(), 4U);
  auto future = pool.submit([]() { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
} // destructor joins: reaching the next test is the stop assertion

TEST(ThreadPool, ZeroWorkerRequestClampsToOne) {
  exec::ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 1U);
  EXPECT_EQ(pool.submit([]() { return 1; }).get(), 1);
}

TEST(ThreadPool, DrainsQueuedTasksOnDestruction) {
  std::atomic<int> executed{0};
  {
    exec::ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      (void)pool.submit([&executed]() { ++executed; });
    }
  } // ~ThreadPool waits for the queue, not just for idle workers
  EXPECT_EQ(executed.load(), 64);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  exec::ThreadPool pool(2);
  auto future = pool.submit([]() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(
      {
        try {
          (void)future.get();
        } catch (const std::runtime_error& error) {
          EXPECT_STREQ(error.what(), "task failed");
          throw;
        }
      },
      std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  exec::ThreadPool pool(4);
  constexpr std::size_t kN = 200;
  std::vector<int> hits(kN, 0);
  exec::parallelFor(&pool, kN, [&hits](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), static_cast<int>(kN));
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForSerialFallbacksMatch) {
  // nullptr pool == the --jobs 1 path: plain loop on the calling thread.
  std::vector<std::size_t> order;
  exec::parallelFor(nullptr, 5, [&order](std::size_t i) {
    EXPECT_FALSE(exec::onWorkerThread());
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ParallelForRethrowsLowestFailingIndex) {
  exec::ThreadPool pool(4);
  std::atomic<int> completed{0};
  try {
    exec::parallelFor(&pool, 16, [&completed](std::size_t i) {
      if (i == 3 || i == 11) {
        throw std::runtime_error("failed at " + std::to_string(i));
      }
      ++completed;
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "failed at 3"); // lowest index, not first finisher
  }
  EXPECT_EQ(completed.load(), 14); // every non-throwing index still ran
}

TEST(ThreadPool, NestedParallelForRunsInlineInsteadOfDeadlocking) {
  // A fork-join issued from inside a worker must not wait on tasks that can
  // never be scheduled (every worker might be blocked in the same wait).
  // The guard runs nested loops inline on the worker itself.
  exec::ThreadPool pool(2);
  std::atomic<int> innerRuns{0};
  exec::parallelFor(&pool, 4, [&pool, &innerRuns](std::size_t) {
    EXPECT_TRUE(exec::onWorkerThread());
    exec::parallelFor(&pool, 8, [&innerRuns](std::size_t) { ++innerRuns; });
  });
  EXPECT_EQ(innerRuns.load(), 32);
}

TEST(ThreadPool, DefaultJobsHonoursEnvironment) {
  const char* saved = std::getenv("QADD_JOBS");
  const std::string savedValue = saved == nullptr ? "" : saved;
  ::setenv("QADD_JOBS", "3", 1);
  EXPECT_EQ(exec::defaultJobs(), 3U);
  ::setenv("QADD_JOBS", "not-a-number", 1);
  EXPECT_GE(exec::defaultJobs(), 1U); // malformed -> hardware fallback
  if (saved == nullptr) {
    ::unsetenv("QADD_JOBS");
  } else {
    ::setenv("QADD_JOBS", savedValue.c_str(), 1);
  }
}

// -- PackageStats aggregation ---------------------------------------------------

TEST(StatsMerge, CountersSumGaugesMax) {
  obs::PackageStats a;
  a.mv.hits.inc(10);
  a.mv.misses.inc(5);
  a.vUnique.lookups.inc(100);
  a.vUnique.entries = 40;
  a.liveNodes = 7;
  a.peakNodes = 70;
  a.gc.runs.inc(2);
  a.gc.seconds = 0.5;
  a.gateMemo.builds.inc(3);
  a.gateMemo.hits.inc(40);
  a.weights.entries = 12;
  a.weights.nearMissUnifications = 3;
  a.weights.bitWidthHistogram = {0, 2, 1};

  obs::PackageStats b;
  b.mv.hits.inc(1);
  b.mv.misses.inc(2);
  b.vUnique.lookups.inc(50);
  b.vUnique.entries = 90;
  b.liveNodes = 30;
  b.peakNodes = 31;
  b.gc.runs.inc(1);
  b.gc.seconds = 0.25;
  b.gateMemo.builds.inc(2);
  b.gateMemo.hits.inc(8);
  b.weights.entries = 9;
  b.weights.nearMissUnifications = 4;
  b.weights.bitWidthHistogram = {1, 1, 1, 1};

  a += b;
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(a.mv.hits.value(), 11U);
    EXPECT_EQ(a.mv.misses.value(), 7U);
    EXPECT_EQ(a.vUnique.lookups.value(), 150U);
    EXPECT_EQ(a.gc.runs.value(), 3U);
    EXPECT_EQ(a.gateMemo.builds.value(), 5U);
    EXPECT_EQ(a.gateMemo.hits.value(), 48U);
  }
  EXPECT_EQ(a.vUnique.entries, 90U);   // gauge: max
  EXPECT_EQ(a.liveNodes, 30U);         // gauge: max
  EXPECT_EQ(a.peakNodes, 70U);         // gauge: max
  EXPECT_DOUBLE_EQ(a.gc.seconds, 0.75);
  EXPECT_EQ(a.weights.entries, 12U);   // gauge: max
  EXPECT_EQ(a.weights.nearMissUnifications, 7U);
  EXPECT_EQ(a.weights.bitWidthHistogram, (std::vector<std::uint64_t>{1, 3, 2, 1}));
  EXPECT_EQ(a.threads, 1U);
}

TEST(StatsMerge, SmallPathSnapshotsTakeMaxNotSum) {
  // The small-path tallies are snapshots of one process-wide counter; a sum
  // across per-worker snapshots would double-count it.
  obs::PackageStats a;
  obs::PackageStats b;
  a.weights.smallPathHits = 100;
  b.weights.smallPathHits = 250;
  a += b;
  EXPECT_EQ(a.weights.smallPathHits, 250U);
}

TEST(StatsMerge, MismatchedHistogramSizesResizeEitherDirection) {
  // Shorter += longer grows the destination; longer += shorter leaves the
  // tail untouched.  Both directions must add element-wise, never truncate.
  obs::PackageStats shorter;
  shorter.weights.bitWidthHistogram = {5, 5};
  obs::PackageStats longer;
  longer.weights.bitWidthHistogram = {1, 1, 1, 1, 1};
  shorter += longer;
  EXPECT_EQ(shorter.weights.bitWidthHistogram, (std::vector<std::uint64_t>{6, 6, 1, 1, 1}));

  obs::PackageStats wide;
  wide.weights.bucketOccupancy = {2, 2, 2, 2};
  obs::PackageStats narrow;
  narrow.weights.bucketOccupancy = {3};
  wide += narrow;
  EXPECT_EQ(wide.weights.bucketOccupancy, (std::vector<std::uint64_t>{5, 2, 2, 2}));

  // Empty rhs histogram: nothing changes.
  obs::PackageStats untouched;
  untouched.weights.bitWidthHistogram = {9};
  untouched += obs::PackageStats{};
  EXPECT_EQ(untouched.weights.bitWidthHistogram, (std::vector<std::uint64_t>{9}));
}

TEST(StatsMerge, GaugeMaxAgainstEmptyRhsKeepsValues) {
  // Merging a default-constructed (all-zero) snapshot must be an identity on
  // the gauges — max semantics, not overwrite-with-last.
  obs::PackageStats stats;
  stats.liveNodes = 12;
  stats.peakNodes = 34;
  stats.arenaBytes = 4096;
  stats.vUnique.entries = 5;
  stats.vUnique.buckets = 64;
  stats.weights.entries = 8;
  stats.weights.smallPathHits = 77;
  stats.threads = 3;
  stats += obs::PackageStats{};
  EXPECT_EQ(stats.liveNodes, 12U);
  EXPECT_EQ(stats.peakNodes, 34U);
  EXPECT_EQ(stats.arenaBytes, 4096U);
  EXPECT_EQ(stats.vUnique.entries, 5U);
  EXPECT_EQ(stats.vUnique.buckets, 64U);
  EXPECT_EQ(stats.weights.entries, 8U);
  EXPECT_EQ(stats.weights.smallPathHits, 77U);
  EXPECT_EQ(stats.threads, 3U);
}

TEST(StatsMerge, SystemNamePromotesToMixed) {
  // "" adopts the other side's name; equal names stay; different names
  // promote to "mixed" (and "mixed" is then sticky).
  obs::PackageStats unset;
  obs::PackageStats numeric;
  numeric.weights.system = "numeric(eps=1e-12)";
  unset += numeric;
  EXPECT_EQ(unset.weights.system, "numeric(eps=1e-12)");

  obs::PackageStats same = unset;
  same += numeric;
  EXPECT_EQ(same.weights.system, "numeric(eps=1e-12)");

  obs::PackageStats algebraic;
  algebraic.weights.system = "algebraic";
  unset += algebraic;
  EXPECT_EQ(unset.weights.system, "mixed");
  unset += numeric;
  EXPECT_EQ(unset.weights.system, "mixed");

  // Merging an empty-name rhs never erases an established name.
  obs::PackageStats blank;
  numeric += blank;
  EXPECT_EQ(numeric.weights.system, "numeric(eps=1e-12)");
}

TEST(StatsMerge, EmittersRenderThreadsRow) {
  obs::PackageStats stats;
  stats.threads = 4;
  std::ostringstream table;
  eval::printStatsTable(table, stats);
  EXPECT_NE(table.str().find("threads     4"), std::string::npos);
  std::ostringstream json;
  eval::writeStatsJson(json, stats);
  EXPECT_NE(json.str().find("\"threads\":4"), std::string::npos);
  std::ostringstream csv;
  eval::writeStatsCsv(csv, stats);
  EXPECT_NE(csv.str().find("threads,4"), std::string::npos);
}

// -- tracer thread safety -------------------------------------------------------

TEST(TracerThreads, ConcurrentSpansRecordDistinctTids) {
  obs::Tracer tracer;
  tracer.setEnabled(true);
  if (!tracer.enabled()) {
    GTEST_SKIP() << "QADD_OBS=0";
  }
  constexpr int kThreads = 4;
  constexpr int kSpansEach = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer]() {
      for (int i = 0; i < kSpansEach; ++i) {
        const auto outer = tracer.span("outer", "test");
        const auto inner = tracer.span("inner", "test");
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const auto events = tracer.eventsSnapshot();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads * kSpansEach * 2));
  std::set<std::uint32_t> tids;
  for (const auto& event : events) {
    EXPECT_GT(event.tid, 0U);
    tids.insert(event.tid);
  }
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
  std::ostringstream os;
  tracer.writeJson(os);
  EXPECT_NE(os.str().find("\"tid\":"), std::string::npos);
}

// -- runSweep determinism -------------------------------------------------------

namespace {

/// writeCsv output in obs deterministic-output mode: the emitter itself
/// zeroes the wall-clock (`seconds`) and address-sensitive (`cachehitrate`)
/// columns — the same switch --obs-deterministic / QADD_OBS_DETERMINISTIC
/// flips — so the remaining bytes must be identical between serial and
/// parallel sweeps.
std::string deterministicCsv(const std::vector<eval::SimulationTrace>& traces) {
  obs::setDeterministic(true);
  std::ostringstream os;
  eval::writeCsv(os, traces);
  obs::setDeterministic(false);
  return os.str();
}

eval::SweepSpec groverSweep() {
  eval::SweepSpec sweep(algos::grover({5, (1ULL << 5) - 2, 0}));
  sweep.options.sampleEvery = 7;
  sweep.options.captureFinalState = true;
  sweep.reference = eval::ReferencePolicy::Inline;
  for (const double epsilon : {0.0, 1e-10, 1e-5, 1e-3}) {
    sweep.addRun({epsilon});
  }
  return sweep;
}

} // namespace

TEST(RunSweep, TracesComeBackInSpecOrder) {
  const eval::SweepSpec sweep = groverSweep();
  exec::ThreadPool pool(4);
  const eval::SweepResult result = eval::runSweep(sweep, &pool);
  ASSERT_EQ(result.traces.size(), 1U + sweep.points.size());
  EXPECT_NE(result.traces[0].label.find("algebraic"), std::string::npos);
  EXPECT_EQ(result.traces[1].label, "numeric eps=0");
  EXPECT_EQ(result.traces[2].label, "numeric eps=1e-10");
  EXPECT_EQ(result.traces[3].label, "numeric eps=1e-05");
  EXPECT_EQ(result.traces[4].label, "numeric eps=0.001");
  EXPECT_EQ(result.jobs, 4U);
  EXPECT_EQ(result.aggregated.threads, 4U);
}

TEST(RunSweep, ParallelMatchesSerialByteForByte) {
  const eval::SweepSpec sweep = groverSweep();
  const eval::SweepResult serial = eval::runSweep(sweep, nullptr);
  exec::ThreadPool pool(4);
  const eval::SweepResult parallel = eval::runSweep(sweep, &pool);

  EXPECT_EQ(serial.jobs, 1U);
  EXPECT_EQ(parallel.jobs, 4U);
  ASSERT_EQ(serial.traces.size(), parallel.traces.size());
  EXPECT_EQ(deterministicCsv(serial.traces), deterministicCsv(parallel.traces));
  for (std::size_t i = 0; i < serial.traces.size(); ++i) {
    EXPECT_EQ(serial.traces[i].finalStateSnapshot, parallel.traces[i].finalStateSnapshot)
        << "final state of " << serial.traces[i].label;
    EXPECT_EQ(serial.traces[i].finalNodes, parallel.traces[i].finalNodes);
    EXPECT_EQ(serial.traces[i].collapsedToZero, parallel.traces[i].collapsedToZero);
  }
}

TEST(RunSweep, ReferencePolicyNoneSkipsAlgebraicAndErrors) {
  eval::SweepSpec sweep = groverSweep();
  sweep.reference = eval::ReferencePolicy::None;
  const eval::SweepResult result = eval::runSweep(sweep, nullptr);
  ASSERT_EQ(result.traces.size(), sweep.points.size());
  EXPECT_TRUE(result.trajectory.samples.empty());
  for (const auto& trace : result.traces) {
    for (const auto& point : trace.points) {
      EXPECT_TRUE(std::isnan(point.error));
    }
  }
}

TEST(RunSweep, ExtendedPrecisionPointUsesLongDoubleSystem) {
  eval::SweepSpec sweep = groverSweep();
  sweep.points.clear();
  sweep.points.push_back({0.0, true});
  const eval::SweepResult result = eval::runSweep(sweep, nullptr);
  ASSERT_EQ(result.traces.size(), 2U);
  EXPECT_EQ(result.traces[1].label, "numeric-ext eps=0");
  if (sizeof(long double) > sizeof(double)) {
    // The wider mantissa must not be worse than double at eps = 0.
    EXPECT_GE(result.traces[1].finalError, 0.0);
  }
}

TEST(RunSweep, CachedPolicyRoundTripsThroughQref) {
  eval::SweepSpec sweep = groverSweep();
  sweep.reference = eval::ReferencePolicy::Cached;
  sweep.referenceCachePath = "test_exec_reference.qref";
  sweep.refreshReference = true;
  const eval::SweepResult first = eval::runSweep(sweep, nullptr);
  EXPECT_FALSE(first.referenceFromCache);
  sweep.refreshReference = false;
  exec::ThreadPool pool(2);
  const eval::SweepResult second = eval::runSweep(sweep, &pool);
  EXPECT_TRUE(second.referenceFromCache);
  // The algebraic label gains a " [cached]" suffix on a hit; the numeric
  // traces must match byte for byte.
  const std::vector<eval::SimulationTrace> firstNumeric(first.traces.begin() + 1,
                                                        first.traces.end());
  const std::vector<eval::SimulationTrace> secondNumeric(second.traces.begin() + 1,
                                                         second.traces.end());
  EXPECT_EQ(deterministicCsv(firstNumeric), deterministicCsv(secondNumeric));
  std::remove("test_exec_reference.qref");
}

} // namespace
