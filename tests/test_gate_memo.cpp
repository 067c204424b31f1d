/// \file test_gate_memo.cpp
/// The per-package gate memo behind qc::makeOperationDD.  A memoized run
/// must give the same final-state QDDS bytes as building every gate afresh:
/// the recorded hashes below were taken with per-gate builds, on the figure
/// workloads (Grover, BWT, GSE), on both planes, at every figure ε, with no
/// approximation, PerGate and OneShot.  Further cases: a GC watermark low
/// enough that collections (which clear the memo) fire mid-run, two
/// consecutive jobs in one serve session (algebraic against fresh packages,
/// numeric against recorded bytes), and the memo's build/hit counters.
#include "algorithms/bwt.hpp"
#include "algorithms/grover.hpp"
#include "algorithms/gse.hpp"
#include "core/algebraic_system.hpp"
#include "core/approximation.hpp"
#include "core/numeric_system.hpp"
#include "eval/report.hpp"
#include "io/snapshot.hpp"
#include "obs/exposition.hpp"
#include "qc/simulator.hpp"
#include "reference.hpp"
#include "serve/session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <ios>
#include <sstream>
#include <string>
#include <vector>

namespace {

using namespace qadd;
using dd::AlgebraicSystem;
using dd::ApproxPolicy;
using dd::NumericSystem;
using reference::fnv1a;

struct Workload {
  const char* name;
  qc::Circuit circuit;
};

std::vector<Workload> figureWorkloads() {
  return {{"grover6", algos::grover({6, 0x2D, 0})},
          {"bwt3x4", algos::bwt({3, 4})},
          {"gse2x2", algos::gse({2, 2, 1.0, 0}, {3, 0})}};
}

constexpr double kEpsilons[] = {0.0, 1e-20, 1e-15, 1e-10, 1e-5, 1e-3};
constexpr ApproxPolicy kPolicies[] = {ApproxPolicy::None, ApproxPolicy::PerGate,
                                      ApproxPolicy::OneShot};
constexpr double kBudget = 0.1;

NumericSystem::Config numericConfig(double epsilon) {
  return {epsilon, NumericSystem::Normalization::LeftmostNonzero};
}

/// Final-state QDDS hash of one simulator run (fresh package); `gcRuns`
/// receives the number of collections that fired during the run.
template <class System>
std::uint64_t runHash(const qc::Circuit& circuit, typename System::Config config,
                      dd::ApproxSpec approx = {}, std::size_t gcThreshold = 200'000,
                      std::size_t* gcRuns = nullptr) {
  qc::Simulator<System> simulator(circuit, config, {gcThreshold});
  simulator.setApproximation(approx);
  simulator.run();
  if (gcRuns != nullptr) {
    *gcRuns = simulator.gcEvents().size();
  }
  return fnv1a(io::saveVector(simulator.package(), simulator.state()));
}

/// Recorded hashes of one workload: the algebraic run, then the numeric run
/// per ε (kEpsilons order) and policy (kPolicies order).
struct Recorded {
  std::uint64_t algebraic;
  std::array<std::array<std::uint64_t, 3>, 6> numeric;
};

constexpr Recorded kRecorded[] = {
    // grover6
    {0xb6080eff93d4542bULL,
     {{{0x11bb9b92aa2ea6afULL, 0xdb26d390772078f3ULL, 0xd0fe22fb1bfd7646ULL},
       {0x38d6ef540b2505deULL, 0xc4a7806ec09a0487ULL, 0x7efaa12d7d409e42ULL},
       {0x7fc04b2af61377aeULL, 0xcafd3093b61b7d94ULL, 0x2eba5acd669511e8ULL},
       {0x1bb1ab2c188ef7c1ULL, 0xa633922be5b9dbaULL, 0xa633922be5b9dbaULL},
       {0xf6d6003390cb5a1ULL, 0xc2277d5b6602135fULL, 0xc2277d5b6602135fULL},
       {0x7456fb8420a91141ULL, 0xf79e25de6ee18e51ULL, 0x7c56e9ec6cbbac69ULL}}}},
    // bwt3x4
    {0xab02fcf82b80cbfaULL,
     {{{0xad701dbb0bf06d18ULL, 0xa3c9504559ffcab7ULL, 0x5315214823917fb4ULL},
       {0x4e563f5778480e4ULL, 0x6a3b128ea249d194ULL, 0x391c7f3a2613c754ULL},
       {0x8969323a2cdc45ecULL, 0x773ead11b2329d29ULL, 0xa29df8326956dd37ULL},
       {0x4948173db578d2adULL, 0xba6369757610daefULL, 0xe5c9f24b2725d65bULL},
       {0xd0f716e53cc2dc3dULL, 0x1b19280d82e27a3eULL, 0x43d712614b53619fULL},
       {0x384af1eca2869366ULL, 0x273c279588f1bfb7ULL, 0x7219528141c467d0ULL}}}},
    // gse2x2
    {0xb871be4607a187b8ULL,
     {{{0x57d14f3842aa76cdULL, 0xbdd76d64e4e5a7eaULL, 0xb44db16c227b410eULL},
       {0x97c4d55d29cd08b6ULL, 0x23469d02cb88710dULL, 0xd4fa5c0d3fde9016ULL},
       {0x5ec120d39738e2e6ULL, 0x5ec120d39738e2e6ULL, 0x5ec120d39738e2e6ULL},
       {0x599701d544259b94ULL, 0x599701d544259b94ULL, 0x599701d544259b94ULL},
       {0xc479f11d5cba232ULL, 0xc479f11d5cba232ULL, 0xc479f11d5cba232ULL},
       {0x9b2bc517e6fa0cd8ULL, 0x9b2bc517e6fa0cd8ULL, 0x9b2bc517e6fa0cd8ULL}}}},
};

TEST(GateMemo, FigureWorkloadsReproduceRecordedBytes) {
  const std::vector<Workload> workloads = figureWorkloads();
  ASSERT_EQ(workloads.size(), std::size(kRecorded));
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    const Workload& workload = workloads[w];
    Recorded actual{};
    actual.algebraic = runHash<AlgebraicSystem>(workload.circuit, {});
    for (std::size_t e = 0; e < std::size(kEpsilons); ++e) {
      for (std::size_t p = 0; p < std::size(kPolicies); ++p) {
        actual.numeric[e][p] = runHash<NumericSystem>(
            workload.circuit, numericConfig(kEpsilons[e]), {kBudget, kPolicies[p]});
      }
    }
    std::ostringstream table;
    table << std::hex << "    // " << workload.name << "\n    {0x" << actual.algebraic
          << "ULL,\n     {{";
    for (std::size_t e = 0; e < std::size(kEpsilons); ++e) {
      table << (e == 0 ? "{" : "       {");
      for (std::size_t p = 0; p < std::size(kPolicies); ++p) {
        table << "0x" << actual.numeric[e][p] << "ULL"
              << (p + 1 < std::size(kPolicies) ? ", " : "");
      }
      table << (e + 1 < std::size(kEpsilons) ? "},\n" : "}}}},\n");
    }
    EXPECT_EQ(actual.algebraic, kRecorded[w].algebraic) << "actual:\n" << table.str();
    EXPECT_EQ(actual.numeric, kRecorded[w].numeric) << "actual:\n" << table.str();
  }
}

TEST(GateMemo, CollectionsMidRunKeepTheBytes) {
  // A watermark this low collects every few gates, and every collection
  // clears the memo, so the same gates are built, dropped and rebuilt.
  constexpr std::size_t kWatermark = 40;
  const std::vector<Workload> workloads = figureWorkloads();
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    const Workload& workload = workloads[w];
    SCOPED_TRACE(workload.name);
    std::size_t gcRuns = 0;
    // With per-gate builds these runs gave the no-GC runs' bytes.
    EXPECT_EQ(runHash<AlgebraicSystem>(workload.circuit, {}, {}, kWatermark, &gcRuns),
              kRecorded[w].algebraic);
    EXPECT_GT(gcRuns, 2U);
    for (const std::size_t e : {0U, 3U}) { // ε = 0 and ε = 1e-10
      EXPECT_EQ(runHash<NumericSystem>(workload.circuit, numericConfig(kEpsilons[e]), {},
                                       kWatermark, &gcRuns),
                kRecorded[w].numeric[e][0])
          << "eps " << kEpsilons[e];
      EXPECT_GT(gcRuns, 2U);
    }
  }
}

/// Snapshot hashes of two jobs run back to back in one serve session (one
/// package for both, so the second job finds the first job's gates).
std::array<std::uint64_t, 2> sessionHashes(const std::string& system, double epsilon) {
  const qc::Circuit jobs[] = {algos::grover({6, 0x2D, 0}), algos::grover({6, 0x12, 0})};
  serve::SessionConfig config;
  config.name = "memo";
  config.system = system;
  config.epsilon = epsilon;
  config.qubits = jobs[0].qubits();
  const auto backend = serve::makeSessionBackend(config);
  std::array<std::uint64_t, 2> hashes{};
  for (std::size_t i = 0; i < 2; ++i) {
    serve::JobRequest request;
    request.circuit = jobs[i];
    request.wantSnapshot = true;
    hashes[i] = fnv1a(backend->run(request, {}).snapshot);
  }
  return hashes;
}

TEST(GateMemo, ConsecutiveSessionJobsKeepTheirBytes) {
  // Algebraic: canonical, so each job equals a fresh package's run.
  const std::array<std::uint64_t, 2> exact = sessionHashes("alg", 0.0);
  EXPECT_EQ(exact[0], runHash<AlgebraicSystem>(algos::grover({6, 0x2D, 0}), {}));
  EXPECT_EQ(exact[1], runHash<AlgebraicSystem>(algos::grover({6, 0x12, 0}), {}));
  // Numeric: a job's bytes depend on what earlier jobs left in the shared
  // package's caches and weight table (even at ε = 0, floating-point
  // products regroup around cache hits), so the bytes recorded with
  // per-gate builds are the reference.
  const std::array<std::uint64_t, 2> recordedExact{0x11bb9b92aa2ea6afULL, 0xe47bd43a257ca552ULL};
  const std::array<std::uint64_t, 2> recordedTolerance{0x1bb1ab2c188ef7c1ULL,
                                                       0x6a1fc09446f77e7eULL};
  const std::array<std::uint64_t, 2> numericExact = sessionHashes("num", 0.0);
  const std::array<std::uint64_t, 2> numericTolerance = sessionHashes("num", 1e-10);
  EXPECT_EQ(numericExact, recordedExact)
      << std::hex << "actual: 0x" << numericExact[0] << ", 0x" << numericExact[1];
  EXPECT_EQ(numericTolerance, recordedTolerance)
      << std::hex << "actual: 0x" << numericTolerance[0] << ", 0x" << numericTolerance[1];
}

/// Builds/hits of one run with GC off, checked against the circuit's
/// distinct operations and carried through every stats emitter.
template <class System>
void expectOneBuildPerDistinctOperation(const qc::Circuit& circuit,
                                        typename System::Config config) {
  std::vector<qc::Operation> distinct;
  for (const qc::Operation& operation : circuit.operations()) {
    if (std::find(distinct.begin(), distinct.end(), operation) == distinct.end()) {
      distinct.push_back(operation);
    }
  }
  ASSERT_LT(distinct.size(), circuit.size());
  qc::Simulator<System> simulator(circuit, config, {0}); // watermark 0: no GC
  simulator.run();
  const obs::PackageStats stats = simulator.package().stats();
  const std::uint64_t builds = distinct.size();
  const std::uint64_t hits = circuit.size() - distinct.size();
  EXPECT_EQ(stats.gateMemo.builds.value(), builds);
  EXPECT_EQ(stats.gateMemo.hits.value(), hits);

  std::ostringstream json;
  eval::writeStatsJson(json, stats);
  EXPECT_NE(json.str().find("\"gateMemo\":{\"builds\":" + std::to_string(builds) +
                            ",\"hits\":" + std::to_string(hits) + "}"),
            std::string::npos)
      << json.str();
  std::ostringstream table;
  eval::printStatsTable(table, stats);
  EXPECT_NE(table.str().find("gate memo   " + std::to_string(builds) + " builds, " +
                             std::to_string(hits) + " hits"),
            std::string::npos)
      << table.str();
  std::ostringstream metrics;
  obs::renderPrometheus(metrics, stats);
  EXPECT_NE(metrics.str().find("qadd_gate_memo_builds_total " + std::to_string(builds) + "\n"),
            std::string::npos);
  EXPECT_NE(metrics.str().find("qadd_gate_memo_hits_total " + std::to_string(hits) + "\n"),
            std::string::npos);
}

TEST(GateMemo, CountsOneBuildPerDistinctOperation) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "built with QADD_OBS=0";
  }
  for (const Workload& workload : figureWorkloads()) {
    SCOPED_TRACE(workload.name);
    expectOneBuildPerDistinctOperation<AlgebraicSystem>(workload.circuit, {});
    expectOneBuildPerDistinctOperation<NumericSystem>(workload.circuit, numericConfig(1e-10));
  }
}

TEST(GateMemo, HitsReturnTheBuiltEdgeUntilCollection) {
  dd::Package<NumericSystem> package(5, numericConfig(1e-10));
  const qc::Operation ccz{qc::GateKind::Z, 0.0, 4, {{0, true}, {2, false}}};
  const qc::Operation rz{qc::GateKind::Rz, 0.3, 1, {{3, true}}};
  const auto first = qc::makeOperationDD(package, ccz);
  const auto rotation = qc::makeOperationDD(package, rz);
  EXPECT_EQ(qc::makeOperationDD(package, ccz), first);
  EXPECT_EQ(qc::makeOperationDD(package, rz), rotation);
  // A different angle or polarity is a different gate.
  EXPECT_NE(qc::makeOperationDD(package, {qc::GateKind::Rz, -0.3, 1, {{3, true}}}), rotation);
  EXPECT_NE(qc::makeOperationDD(package, {qc::GateKind::Z, 0.0, 4, {{0, true}, {2, true}}}),
            first);
  // Reordered controls are a new key but the same operator: same edge.
  EXPECT_EQ(qc::makeOperationDD(package, {qc::GateKind::Z, 0.0, 4, {{2, false}, {0, true}}}),
            first);
  const std::size_t nodes = package.countNodes(first);
  const auto& counters = package.counters().gateMemo;
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(counters.builds.value(), 5U);
    EXPECT_EQ(counters.hits.value(), 2U);
  }
  // Nothing references the gates, so a collection frees their nodes and
  // must take the memo entries with it: the next call builds afresh.
  const dd::GcReport report = package.garbageCollect();
  EXPECT_GT(report.swept, 0U);
  EXPECT_EQ(package.allocatedNodes(), 0U);
  const auto rebuilt = qc::makeOperationDD(package, ccz);
  EXPECT_GT(package.allocatedNodes(), 0U);
  EXPECT_EQ(package.countNodes(rebuilt), nodes);
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(counters.builds.value(), 6U);
    EXPECT_EQ(counters.hits.value(), 2U);
  }
}

} // namespace
