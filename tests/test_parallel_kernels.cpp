/// \file test_parallel_kernels.cpp
/// The intra-operation parallelism contract: attaching an exec::ThreadPool
/// to a package forks add/multiply/kronecker across workers for
/// order-independent weight systems, and the result — final states, node
/// counts, snapshot bytes — is byte-identical to the serial path.  Plus the
/// stress suites the TSan CI job runs against the striped unique table, the
/// seqlock computed table, and the per-worker arenas.
#include "algorithms/grover.hpp"
#include "core/computed_table.hpp"
#include "core/package.hpp"
#include "exec/thread_pool.hpp"
#include "io/snapshot.hpp"
#include "qc/simulator.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace {

using namespace qadd;

using AlgSimulator = qc::Simulator<dd::AlgebraicSystem>;
using NumSimulator = qc::Simulator<dd::NumericSystem>;

qc::Circuit groverCircuit() { return algos::grover({5, (1ULL << 5) - 2, 0}); }

// -- engagement rules -----------------------------------------------------------

TEST(ParallelKernels, EngagesOnlyForOrderIndependentSystems) {
  exec::ThreadPool pool(4);

  dd::Package<dd::AlgebraicSystem> algebraic(3);
  algebraic.setExecutor(&pool);
  EXPECT_TRUE(algebraic.concurrentKernels()) << "exact algebra is order-independent";

  dd::Package<dd::NumericSystem> exact(3, {0.0});
  exact.setExecutor(&pool);
  EXPECT_TRUE(exact.concurrentKernels()) << "eps=0 numeric interning is exact";

  dd::Package<dd::NumericSystem> tolerant(3, {1e-4});
  tolerant.setExecutor(&pool);
  EXPECT_FALSE(tolerant.concurrentKernels())
      << "tolerance-mode unification is order-dependent; kernels must stay serial";
  EXPECT_EQ(tolerant.parallelDepth(), 0U);
}

TEST(ParallelKernels, SingleWorkerPoolStaysSerial) {
  exec::ThreadPool pool(1);
  dd::Package<dd::AlgebraicSystem> package(3);
  package.setExecutor(&pool);
  EXPECT_FALSE(package.concurrentKernels()) << "--jobs 1 keeps the exact serial path";
}

TEST(ParallelKernels, ParallelDepthDerivesFromWorkerCount) {
  dd::Package<dd::AlgebraicSystem> package(3);
  exec::ThreadPool four(4);
  package.setExecutor(&four);
  // ceil(log2(workers)) + 2 levels of binary forking.
  EXPECT_EQ(package.parallelDepth(), 4U);
  exec::ThreadPool two(2);
  package.setExecutor(&two);
  EXPECT_EQ(package.parallelDepth(), 3U);
  package.setExecutor(nullptr);
  EXPECT_FALSE(package.concurrentKernels());
  EXPECT_EQ(package.parallelDepth(), 0U);
}

// -- determinism contract -------------------------------------------------------

/// Simulate `circuit`, return {snapshot bytes, per-gate node counts}.
template <class System>
std::pair<std::vector<std::uint8_t>, std::vector<std::size_t>>
simulate(const qc::Circuit& circuit, typename System::Config config, exec::ThreadPool* pool) {
  qc::Simulator<System> simulator(circuit, config);
  if (pool != nullptr) {
    simulator.setExecutor(pool);
  }
  std::vector<std::size_t> nodes;
  while (simulator.step()) {
    nodes.push_back(simulator.stateNodes());
  }
  return {io::saveVector(simulator.package(), simulator.state()), std::move(nodes)};
}

TEST(ParallelKernels, AlgebraicGroverIsByteIdenticalAcrossJobs) {
  const qc::Circuit circuit = groverCircuit();
  const auto serial = simulate<dd::AlgebraicSystem>(circuit, {}, nullptr);
  exec::ThreadPool pool(4);
  const auto parallel = simulate<dd::AlgebraicSystem>(circuit, {}, &pool);
  EXPECT_EQ(serial.second, parallel.second) << "per-gate DD sizes must not move with jobs";
  EXPECT_EQ(serial.first, parallel.first) << "final state snapshots must be byte-identical";
}

TEST(ParallelKernels, ExactNumericGroverIsByteIdenticalAcrossJobs) {
  const qc::Circuit circuit = groverCircuit();
  const auto serial = simulate<dd::NumericSystem>(circuit, {0.0}, nullptr);
  exec::ThreadPool pool(4);
  const auto parallel = simulate<dd::NumericSystem>(circuit, {0.0}, &pool);
  EXPECT_EQ(serial.second, parallel.second);
  EXPECT_EQ(serial.first, parallel.first);
}

TEST(ParallelKernels, ToleranceNumericIsUntouchedByThePool) {
  const qc::Circuit circuit = groverCircuit();
  const auto serial = simulate<dd::NumericSystem>(circuit, {1e-10}, nullptr);
  exec::ThreadPool pool(4);
  const auto parallel = simulate<dd::NumericSystem>(circuit, {1e-10}, &pool);
  EXPECT_EQ(serial.second, parallel.second);
  EXPECT_EQ(serial.first, parallel.first) << "tolerance mode never engages the fork path";
}

TEST(ParallelKernels, PeakNodesGaugeMatchesSerial) {
  const qc::Circuit circuit = groverCircuit();
  AlgSimulator serial(circuit);
  while (serial.step()) {
  }
  exec::ThreadPool pool(4);
  AlgSimulator parallel(circuit);
  parallel.setExecutor(&pool);
  while (parallel.step()) {
  }
  // inUse() subtracts per-slot reserves, so the arena gauge is exact and the
  // once-per-kernel peak sample reproduces the serial per-insert maximum.
  EXPECT_EQ(serial.package().peakNodes(), parallel.package().peakNodes());
}

TEST(ParallelKernels, KroneckerMatchesSerial) {
  // A four-level top DD kron a four-level bottom DD: deep enough that the
  // fork path engages (parallelDepth() is 4 at four workers), and the serial
  // and parallel products must serialize identically.
  auto build = [](exec::ThreadPool* pool) {
    using Pkg = dd::Package<dd::AlgebraicSystem>;
    Pkg package(8);
    if (pool != nullptr) {
      package.setExecutor(pool);
    }
    auto& system = package.system();
    const auto h = qc::algebraicMatrix(qc::GateKind::H);
    const auto a = system.intern(h[0]); // 1/sqrt(2)
    const auto b = system.intern(h[3]); // -1/sqrt(2)
    const auto chain = [&](dd::Qubit firstVar) {
      typename Pkg::VEdge edge{nullptr, system.one()};
      for (dd::Qubit var = firstVar + 4; var-- > firstVar;) {
        edge = package.makeVNode(var, {typename Pkg::VEdge{edge.node, a},
                                       typename Pkg::VEdge{edge.node, system.mul(a, b)}});
      }
      return edge;
    };
    const auto product = package.kronecker(chain(0), chain(4));
    return io::saveVector(package, product);
  };
  const auto serial = build(nullptr);
  exec::ThreadPool pool(4);
  const auto parallel = build(&pool);
  EXPECT_EQ(serial, parallel);
}

// -- stress (the TSan CI targets) -----------------------------------------------

/// Key whose hash is the key itself, so the test controls slot placement.
struct RawKey {
  std::uint64_t value;
  friend bool operator==(const RawKey&, const RawKey&) = default;
  [[nodiscard]] std::uint64_t hash() const { return value; }
};

/// Value derived from the key: a torn seqlock read would surface as a
/// mismatched pair.
constexpr std::uint64_t valueFor(std::uint64_t key) { return key * 0x9E3779B97F4A7C15ULL + 1; }

TEST(ParallelKernels, StressSeqlockComputedTableNeverTearsReads) {
  dd::ComputedTable<RawKey, std::uint64_t, 256> table;
  table.setConcurrent(true);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kOpsPerThread = 20'000;
  std::atomic<std::uint64_t> torn{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table, &torn, t]() {
      std::uint64_t state = 0x243F6A8885A308D3ULL + static_cast<std::uint64_t>(t);
      for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const std::uint64_t key = state >> 32;
        if ((state & 1) == 0) {
          table.insert(RawKey{key}, valueFor(key));
        } else {
          std::uint64_t out = 0;
          if (table.lookup(RawKey{key}, out) && out != valueFor(key)) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(torn.load(), 0U) << "seqlock published a half-written entry";
}

TEST(ParallelKernels, StressStripedUniqueTableUnderKernelLoad) {
  // Drive the real makeNode path — striped unique table, per-worker arenas,
  // concurrent weight interning — from genuinely parallel kernels, five
  // times over.  Run under TSan in CI; here it is a smoke + determinism run.
  const qc::Circuit circuit = groverCircuit();
  exec::ThreadPool pool(4);
  std::vector<std::uint8_t> first;
  for (int round = 0; round < 5; ++round) {
    AlgSimulator simulator(circuit);
    simulator.setExecutor(&pool);
    while (simulator.step()) {
    }
    auto bytes = io::saveVector(simulator.package(), simulator.state());
    if (round == 0) {
      first = std::move(bytes);
    } else {
      ASSERT_EQ(bytes, first) << "round " << round << " diverged";
    }
  }
}

TEST(ParallelKernels, StressForkJoinComposedWithParallelFor) {
  // The sweep shape: an outer parallelFor fan-out whose bodies each run
  // fork-join kernels on the same pool.  The steal-back protocol must keep
  // this deadlock-free even with more outer tasks than workers.
  const qc::Circuit circuit = groverCircuit();
  exec::ThreadPool pool(4);
  std::vector<std::vector<std::uint8_t>> results(8);
  exec::parallelFor(&pool, results.size(), [&](std::size_t i) {
    NumSimulator simulator(circuit, {0.0});
    simulator.setExecutor(&pool);
    while (simulator.step()) {
    }
    results[i] = io::saveVector(simulator.package(), simulator.state());
  });
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i], results[0]) << "outer task " << i << " diverged";
  }
}

} // namespace
