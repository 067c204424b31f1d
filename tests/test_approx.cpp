/// \file test_approx.cpp
/// The fidelity-bounded approximation engine (arXiv 2002.04904): the
/// Package::prune contribution/budget contract, the simulator's per-gate and
/// one-shot policies, determinism of approximated sweeps across --jobs,
/// canonicalization of pruned states through QDDS round trips, the serve
/// protocol-v2 knobs (including the exactness-contract 400 on algebraic
/// sessions), and the accuracyError off-unit-reference regression.
#include "algorithms/bwt.hpp"
#include "algorithms/grover.hpp"
#include "core/algebraic_system.hpp"
#include "core/approximation.hpp"
#include "core/numeric_system.hpp"
#include "core/package.hpp"
#include "eval/accuracy.hpp"
#include "eval/report.hpp"
#include "eval/sweep.hpp"
#include "io/snapshot.hpp"
#include "obs/deterministic.hpp"
#include "qc/simulator.hpp"
#include "reference.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <span>
#include <complex>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace {

using namespace qadd;

using NumPackage = dd::Package<dd::NumericSystem>;
using NumSimulator = qc::Simulator<dd::NumericSystem>;

/// A Grover state midway through amplitude amplification: structured but not
/// sparse — plenty of small-contribution subtrees for prune to rank.
std::shared_ptr<NumPackage> runGrover(qc::Qubit qubits, NumSimulator*& out,
                                      std::optional<NumSimulator>& storage,
                                      const dd::ApproxSpec& approx = {}) {
  auto package = std::make_shared<NumPackage>(static_cast<dd::Qubit>(qubits),
                                              dd::NumericSystem::Config{});
  storage.emplace(package, algos::grover({qubits, (1ULL << qubits) - 2, 0}));
  if (approx.policy != dd::ApproxPolicy::None) {
    storage->setApproximation(approx);
  }
  storage->run();
  out = &*storage;
  return package;
}

double stateNorm(NumPackage& package, const NumPackage::VEdge& e) {
  return package.system().toComplex(package.innerProduct(e, e)).real();
}

// -- Package::prune ---------------------------------------------------------------

TEST(ApproxPrune, FidelityBoundHolds) {
  NumSimulator* sim = nullptr;
  std::optional<NumSimulator> storage;
  auto package = runGrover(8, sim, storage);
  const auto root = sim->state();
  const std::size_t exactNodes = package->countNodes(root);

  for (const double budget : {0.5, 0.1, 0.01, 0.001}) {
    const auto result = package->prune(root, budget);
    EXPECT_GE(result.achievedFidelity, 1.0 - budget - 1e-9)
        << "fidelity bound violated for budget " << budget;
    EXPECT_LE(result.budgetSpent, budget + 1e-12);
    EXPECT_LE(result.nodesAfter, result.nodesBefore);
    EXPECT_EQ(result.nodesBefore, exactNodes);
    // The pruned state is renormalized back to unit length.
    EXPECT_NEAR(stateNorm(*package, result.edge), 1.0, 1e-9);
    // The reported fidelity is the actual overlap with the input, not just
    // the budget bookkeeping.
    EXPECT_NEAR(result.achievedFidelity, package->fidelity(result.edge, root), 1e-12);
  }
}

TEST(ApproxPrune, LargerBudgetsNeverGrowTheDiagram) {
  NumSimulator* sim = nullptr;
  std::optional<NumSimulator> storage;
  auto package = runGrover(8, sim, storage);
  const auto root = sim->state();
  std::size_t previousNodes = package->countNodes(root) + 1;
  for (const double budget : {1e-4, 1e-3, 1e-2, 1e-1, 0.5}) {
    const auto result = package->prune(root, budget);
    EXPECT_LE(result.nodesAfter, previousNodes)
        << "budget " << budget << " produced a larger diagram than a smaller budget";
    previousNodes = result.nodesAfter;
  }
}

TEST(ApproxPrune, BudgetZeroIsANoop) {
  NumSimulator* sim = nullptr;
  std::optional<NumSimulator> storage;
  auto package = runGrover(6, sim, storage);
  const auto root = sim->state();
  const auto result = package->prune(root, 0.0);
  EXPECT_EQ(result.edge.node, root.node);
  EXPECT_EQ(result.edge.w, root.w);
  EXPECT_EQ(result.edgesPruned, 0U);
  EXPECT_EQ(result.achievedFidelity, 1.0);
  EXPECT_EQ(io::saveVector(*package, result.edge), io::saveVector(*package, root));
}

TEST(ApproxPrune, PrunedStateIsCanonical) {
  // Prune -> snapshot -> reload into a fresh package -> snapshot again must
  // be byte-identical: the pruned DD is a first-class canonical diagram, not
  // a package-private artifact.
  NumSimulator* sim = nullptr;
  std::optional<NumSimulator> storage;
  auto package = runGrover(8, sim, storage);
  const auto result = package->prune(sim->state(), 0.05);
  ASSERT_GT(result.edgesPruned, 0U);
  const std::vector<std::uint8_t> bytes = io::saveVector(*package, result.edge);

  NumPackage fresh(8, dd::NumericSystem::Config{});
  const auto reloaded = io::loadVector(fresh, bytes);
  EXPECT_EQ(io::saveVector(fresh, reloaded), bytes)
      << "QDDS round trip of a pruned state must be byte-identical";
  EXPECT_EQ(fresh.countNodes(reloaded), result.nodesAfter);
}

TEST(ApproxPrune, CountsIntoPackageStats) {
  NumSimulator* sim = nullptr;
  std::optional<NumSimulator> storage;
  auto package = runGrover(8, sim, storage);
  const auto result = package->prune(sim->state(), 0.1);
  ASSERT_GT(result.edgesPruned, 0U);
  // The telemetry counters are compiled out under QADD_OBS=OFF.
  if constexpr (obs::kEnabled) {
    EXPECT_TRUE(package->stats().approx.any());
    EXPECT_EQ(package->stats().approx.pruneRuns.value(), 1U);
    EXPECT_EQ(package->stats().approx.edgesPruned.value(), result.edgesPruned);

    std::ostringstream os;
    eval::writeStatsJson(os, package->stats());
    EXPECT_NE(os.str().find("\"approx\""), std::string::npos);
    EXPECT_NE(os.str().find("\"pruneRuns\""), std::string::npos);
  }
}

// -- prune's exact output, pinned ---------------------------------------------------

using reference::fnv1a;

std::uint64_t bitsOf(double value) { return std::bit_cast<std::uint64_t>(value); }

/// A seeded circuit with arbitrary rotation angles (not just Clifford+T), so
/// the weights — and hence the prune contributions — are irregular.  Uses
/// only raw mt19937_64 words: the circuit is the same on every platform.
qc::Circuit seededRotationCircuit(std::uint64_t seed, qc::Qubit nqubits, std::size_t gates) {
  const qc::GateKind kinds[] = {qc::GateKind::H,  qc::GateKind::T,  qc::GateKind::Rx,
                                qc::GateKind::Ry, qc::GateKind::Rz, qc::GateKind::X};
  std::mt19937_64 rng(seed);
  qc::Circuit circuit(nqubits, "fuzz");
  for (std::size_t i = 0; i < gates; ++i) {
    const auto kind = kinds[rng() % std::size(kinds)];
    const double angle = static_cast<double>(rng() % 1000) * 0.001 * M_PI;
    const auto target = static_cast<qc::Qubit>(rng() % nqubits);
    std::vector<qc::ControlSpec> controls;
    if (const auto control = static_cast<qc::Qubit>(rng() % nqubits);
        rng() % 2 == 0 && control != target) {
      controls.push_back({control, true});
    }
    circuit.append({kind, angle, target, std::move(controls)});
  }
  return circuit;
}

qc::Circuit pinnedWorkload(const std::string& name) {
  if (name == "bwt3") {
    return algos::bwt({3, 6});
  }
  if (name == "grover6") {
    return algos::grover({6, (1ULL << 6) - 2, 0});
  }
  if (name == "grover8") {
    return algos::grover({8, (1ULL << 8) - 2, 0});
  }
  if (name == "fuzzA") {
    return seededRotationCircuit(20261, 6, 120);
  }
  return seededRotationCircuit(40961, 7, 160); // fuzzB
}

/// One simulator run under a fidelity target of 0.9.
struct PinnedRun {
  const char* workload;
  double epsilon;
  dd::ApproxPolicy policy;
  std::uint64_t stateHash;    ///< FNV-1a of the final state's QDDS bytes
  std::uint64_t fidelityBits; ///< approxFidelity() as IEEE-754 bits
  std::size_t prunedNodes;    ///< approxPrunedNodes()
};

/// One call of a direct prune chain (each call prunes the previous result).
struct PinnedPrune {
  double budget;
  std::size_t edgesPruned;
  std::uint64_t spentBits;
  std::uint64_t fidelityBits;
  std::size_t nodesAfter;
  std::uint64_t stateHash;
};

const char* policyName(dd::ApproxPolicy policy) {
  return policy == dd::ApproxPolicy::PerGate ? "PerGate" : "OneShot";
}

TEST(ApproxPrune, ResultsBitIdenticalToRecordedValues) {
  using dd::ApproxPolicy;
  // prune's bookkeeping must not change what it selects or how it measures:
  // any mismatch here is a behaviour change.  A failure prints the actual
  // row in table syntax.
  const PinnedRun runs[] = {
      {"bwt3", 0.0, ApproxPolicy::PerGate, 0xa5851f00491f9764ULL, 0x3fed02e9781f5e72ULL, 100},
      {"bwt3", 0.0, ApproxPolicy::OneShot, 0xd782726b94a4c3b8ULL, 0x3fed7ebe1b439f3dULL, 53},
      {"bwt3", 1e-10, ApproxPolicy::PerGate, 0x5193b0a50e6692b9ULL, 0x3fed115d930578ccULL, 81},
      {"bwt3", 1e-10, ApproxPolicy::OneShot, 0x5e5accbe8533714eULL, 0x3fed5845c6bd67c1ULL, 51},
      {"bwt3", 1e-5, ApproxPolicy::PerGate, 0x5c92eac4f89fdf2fULL, 0x3fed0b967063ed84ULL, 77},
      {"bwt3", 1e-5, ApproxPolicy::OneShot, 0x59a00a1d07d5ccf2ULL, 0x3fed5845c6bd67c1ULL, 51},
      {"grover6", 0.0, ApproxPolicy::PerGate, 0x284b2f526a2ed254ULL, 0x3fedf832b7d93c52ULL, 67},
      {"grover6", 0.0, ApproxPolicy::OneShot, 0x580c14ac24819f59ULL, 0x3fefe407a7548427ULL, 52},
      {"grover6", 1e-10, ApproxPolicy::PerGate, 0xd9cdfd1edc19b0e5ULL, 0x3fedde8c675577c9ULL, 84},
      {"grover6", 1e-10, ApproxPolicy::OneShot, 0xd9cdfd1edc19b0e5ULL, 0x3fefe407a7548495ULL, 5},
      {"grover6", 1e-5, ApproxPolicy::PerGate, 0x425637763004b7b8ULL, 0x3feeac902dcbe91aULL, 71},
      {"grover6", 1e-5, ApproxPolicy::OneShot, 0x425637763004b7b8ULL, 0x3fefe407a7548495ULL, 5},
      {"grover8", 0.0, ApproxPolicy::PerGate, 0xbd7e57b741ce4b1ULL, 0x3fee12598c4f60f4ULL, 589},
      {"grover8", 0.0, ApproxPolicy::OneShot, 0xbd7e57b741ce4b1ULL, 0x3fefff90f07216e7ULL, 220},
      {"grover8", 1e-10, ApproxPolicy::PerGate, 0x4b301b4e486e459ULL, 0x3fec4edcca24081aULL, 247},
      {"grover8", 1e-10, ApproxPolicy::OneShot, 0xb8c8766314ef03fbULL, 0x3fefff90f0721dd3ULL, 7},
      {"grover8", 1e-5, ApproxPolicy::PerGate, 0x88cd6c86b5775d01ULL, 0x3fecf5624ca63efaULL, 2460},
      {"grover8", 1e-5, ApproxPolicy::OneShot, 0x9eb74d5bf50e49aULL, 0x3feffbf03ef7bd7dULL, 7},
      {"fuzzA", 0.0, ApproxPolicy::PerGate, 0xe8dbf1772de1275aULL, 0x3fed091d04c619fdULL, 100},
      {"fuzzA", 0.0, ApproxPolicy::OneShot, 0x90714c2e9462d1d5ULL, 0x3feda37957431c62ULL, 17},
      {"fuzzA", 1e-10, ApproxPolicy::PerGate, 0xcce8e8cd962b3130ULL, 0x3fed1117eaefa2cdULL, 81},
      {"fuzzA", 1e-10, ApproxPolicy::OneShot, 0x88cb708534fb500fULL, 0x3feda37957431c4dULL, 17},
      {"fuzzA", 1e-5, ApproxPolicy::PerGate, 0x14428c9c78dff373ULL, 0x3fed0e591867f4c8ULL, 81},
      {"fuzzA", 1e-5, ApproxPolicy::OneShot, 0xc6e481766a7b4a00ULL, 0x3feda37957431c4dULL, 17},
      {"fuzzB", 0.0, ApproxPolicy::PerGate, 0xf0d7939734788b1dULL, 0x3fed03da0ecfb0cbULL, 287},
      {"fuzzB", 0.0, ApproxPolicy::OneShot, 0x5de84918079f987dULL, 0x3fed745561c7e460ULL, 40},
      {"fuzzB", 1e-10, ApproxPolicy::PerGate, 0x9937b7ba2e68bd49ULL, 0x3fecfa44652ae4a7ULL, 247},
      {"fuzzB", 1e-10, ApproxPolicy::OneShot, 0x55740e0996e9be90ULL, 0x3fed745561c7e477ULL, 40},
      {"fuzzB", 1e-5, ApproxPolicy::PerGate, 0x4dcd96ccf6f3850ULL, 0x3fecfb95c4e28700ULL, 241},
      {"fuzzB", 1e-5, ApproxPolicy::OneShot, 0x3161745badcff9aaULL, 0x3fed74489068837aULL, 40},
  };
  for (const PinnedRun& pinned : runs) {
    auto package = std::make_shared<NumPackage>(
        static_cast<dd::Qubit>(pinnedWorkload(pinned.workload).qubits()),
        dd::NumericSystem::Config{pinned.epsilon,
                                  dd::NumericSystem::Normalization::LeftmostNonzero});
    NumSimulator simulator(package, pinnedWorkload(pinned.workload));
    simulator.setApproximation({0.1, pinned.policy});
    simulator.run();
    const std::uint64_t hash = fnv1a(io::saveVector(*package, simulator.state()));
    const std::uint64_t fidelity = bitsOf(simulator.approxFidelity());
    const std::size_t pruned = simulator.approxPrunedNodes();
    EXPECT_TRUE(hash == pinned.stateHash && fidelity == pinned.fidelityBits &&
                pruned == pinned.prunedNodes)
        << std::hex << "actual: {\"" << pinned.workload << "\", " << pinned.epsilon
        << ", ApproxPolicy::" << policyName(pinned.policy) << ", 0x" << hash << "ULL, 0x"
        << fidelity << "ULL, " << std::dec << pruned << "},";
  }

  const double budgets[] = {1e-6, 1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.3};
  const std::map<std::string, std::vector<PinnedPrune>> chains = {
      {"bwt3",
       {
           {1e-6, 0, 0x0ULL, 0x3ff0000000000000ULL, 112, 0xb108e94618ecfec6ULL},
           {1e-4, 0, 0x0ULL, 0x3ff0000000000000ULL, 112, 0xb108e94618ecfec6ULL},
           {1e-3, 5, 0x3f4c6980cbc80becULL, 0x3feff8e59fcd0dd0ULL, 107, 0x516a454f7c1d9db2ULL},
           {1e-2, 18, 0x3f839c5390e869baULL, 0x3fefb18eb1bc5e5bULL, 91, 0x3a266713b6e8cbddULL},
           {0.05, 26, 0x3fa8375a6a4275dbULL, 0x3fee8f51ec115876ULL, 65, 0xc57de13e0eff33f0ULL},
           {0.1, 22, 0x3fb85006eb2bde21ULL, 0x3fecf5ff229a8438ULL, 46, 0x20d6f887638a6328ULL},
           {0.3, 25, 0x3fd2b21e7b3c3d30ULL, 0x3fe8f1143b9c2c05ULL, 26, 0xa7f8055ac6362873ULL},
       }},
      {"grover8",
       {
           {1e-6, 4, 0x3eabdfc33d1a4d39ULL, 0x3feffffe4203ca8eULL, 225, 0x98b6c5b327a99823ULL},
           {1e-4, 314, 0x3f1a13d8931bd58cULL, 0x3fefff92ae6858c2ULL, 8, 0xbd7e57b741ce4b1ULL},
           {1e-3, 0, 0x0ULL, 0x3ff0000000000000ULL, 8, 0xbd7e57b741ce4b1ULL},
           {1e-2, 0, 0x0ULL, 0x3ff0000000000000ULL, 8, 0xbd7e57b741ce4b1ULL},
           {0.05, 0, 0x0ULL, 0x3ff0000000000000ULL, 8, 0xbd7e57b741ce4b1ULL},
           {0.1, 0, 0x0ULL, 0x3ff0000000000000ULL, 8, 0xbd7e57b741ce4b1ULL},
           {0.3, 0, 0x0ULL, 0x3ff0000000000000ULL, 8, 0xbd7e57b741ce4b1ULL},
       }},
      {"fuzzB",
       {
           {1e-6, 0, 0x0ULL, 0x3ff0000000000000ULL, 127, 0xa537a3984b289f7dULL},
           {1e-4, 2, 0x3f1021ec4f4578a4ULL, 0x3fefff7ef09d859dULL, 126, 0x41c199586687f747ULL},
           {1e-3, 3, 0x3f45cdb3a68268c5ULL, 0x3feffa8c93165f69ULL, 124, 0xe2f25c2a87c36147ULL},
           {1e-2, 14, 0x3f837c8986c188fcULL, 0x3fefb20dd9e4f9daULL, 111, 0x821720e31f5fb685ULL},
           {0.05, 23, 0x3fa8515c67647232ULL, 0x3fee95375647e41aULL, 93, 0x70c4b538951c2371ULL},
           {0.1, 21, 0x3fb8f273f6e6785bULL, 0x3fece1b1812330f4ULL, 75, 0xc7e4f1b5444006cULL},
           {0.3, 33, 0x3fd2a98509ea50dbULL, 0x3fe6ab3d7b0ad790ULL, 45, 0x7e87a136f1cb0c1dULL},
       }},
  };
  for (const auto& [workload, expected] : chains) {
    auto package = std::make_shared<NumPackage>(
        static_cast<dd::Qubit>(pinnedWorkload(workload).qubits()), dd::NumericSystem::Config{});
    NumSimulator simulator(package, pinnedWorkload(workload));
    simulator.run();
    auto state = simulator.state();
    for (std::size_t i = 0; i < std::size(budgets); ++i) {
      const auto result = package->prune(state, budgets[i]);
      const PinnedPrune actual{budgets[i],
                               result.edgesPruned,
                               bitsOf(result.budgetSpent),
                               bitsOf(result.achievedFidelity),
                               result.nodesAfter,
                               fnv1a(io::saveVector(*package, result.edge))};
      const bool same = i < expected.size() && expected[i].edgesPruned == actual.edgesPruned &&
                        expected[i].spentBits == actual.spentBits &&
                        expected[i].fidelityBits == actual.fidelityBits &&
                        expected[i].nodesAfter == actual.nodesAfter &&
                        expected[i].stateHash == actual.stateHash;
      EXPECT_TRUE(same) << workload << std::hex << " actual: {" << budgets[i] << ", " << std::dec
                        << actual.edgesPruned << ", 0x" << std::hex << actual.spentBits
                        << "ULL, 0x" << actual.fidelityBits << "ULL, " << std::dec
                        << actual.nodesAfter << ", 0x" << std::hex << actual.stateHash << "ULL},";
      state = result.edge;
    }
  }
}

/// Reachable-node count through an explicit visited set — independent of
/// the package's visit-epoch bookkeeping.
std::size_t countWithSet(const NumPackage::VEdge& root) {
  std::set<const NumPackage::VNode*> seen;
  std::vector<const NumPackage::VNode*> stack;
  if (root.node != nullptr) {
    stack.push_back(root.node);
  }
  while (!stack.empty()) {
    const auto* node = stack.back();
    stack.pop_back();
    if (!seen.insert(node).second) {
      continue;
    }
    for (const auto& child : node->e) {
      if (child.node != nullptr) {
        stack.push_back(child.node);
      }
    }
  }
  return seen.size();
}

TEST(ApproxPrune, TraversalsStayCorrectAroundPrune) {
  // prune marks nodes through the package's visit epochs; every traversal
  // before and after it — node counts, a second prune over shared nodes, and
  // prunes over nodes recycled by garbage collection — must still count
  // exactly what an explicit visited set counts.
  auto package = std::make_shared<NumPackage>(8, dd::NumericSystem::Config{});
  NumSimulator first(package, algos::grover({8, (1ULL << 8) - 2, 0}));
  first.run();
  const auto state = first.state();
  const auto expectCounts = [&](const NumPackage::VEdge& e, const char* what) {
    EXPECT_EQ(package->countNodes(e), countWithSet(e)) << what;
  };
  expectCounts(state, "input before any prune");

  const auto noop = package->prune(state, 1e-30);
  ASSERT_EQ(noop.edgesPruned, 0U);
  EXPECT_EQ(noop.nodesBefore, countWithSet(state));
  EXPECT_EQ(noop.nodesAfter, noop.nodesBefore);
  expectCounts(state, "input after a no-op prune");

  const auto pruned = package->prune(state, 0.05);
  ASSERT_GT(pruned.edgesPruned, 0U);
  EXPECT_EQ(pruned.nodesBefore, countWithSet(state));
  EXPECT_EQ(pruned.nodesAfter, countWithSet(pruned.edge));
  expectCounts(state, "input after a pruning prune");
  expectCounts(pruned.edge, "pruned state");
  package->incRef(pruned.edge);

  // A second prune over a diagram that shares nodes with the first input.
  const auto again = package->prune(pruned.edge, 0.05);
  EXPECT_EQ(again.nodesBefore, countWithSet(pruned.edge));
  EXPECT_EQ(again.nodesAfter, countWithSet(again.edge));
  expectCounts(state, "first input after the second prune");
  expectCounts(again.edge, "twice-pruned state");

  // Free a whole state's worth of nodes, then build new states out of the
  // recycled ones (their visit marks are left over from earlier traversals).
  {
    NumSimulator scratch(package, seededRotationCircuit(7, 8, 60));
    scratch.run();
    (void)package->prune(scratch.state(), 0.05);
  }
  const auto report = package->garbageCollect();
  EXPECT_GT(report.swept, 0U);
  NumSimulator second(package, seededRotationCircuit(11, 8, 60));
  second.run();
  expectCounts(second.state(), "state built from recycled nodes");
  for (const double budget : {1e-30, 0.02, 0.2}) {
    const auto result = package->prune(second.state(), budget);
    EXPECT_EQ(result.nodesBefore, countWithSet(second.state())) << budget;
    EXPECT_EQ(result.nodesAfter, countWithSet(result.edge)) << budget;
    expectCounts(state, "first input between prunes");
    expectCounts(pruned.edge, "pruned state between prunes");
  }

  // The selection depends on the diagram only, not on the traversal history.
  const auto repeat = package->prune(state, 0.05);
  EXPECT_EQ(repeat.edge, pruned.edge);
  EXPECT_EQ(repeat.edgesPruned, pruned.edgesPruned);
  EXPECT_EQ(bitsOf(repeat.budgetSpent), bitsOf(pruned.budgetSpent));
  EXPECT_EQ(bitsOf(repeat.achievedFidelity), bitsOf(pruned.achievedFidelity));
  package->decRef(pruned.edge);
}

TEST(ApproxPrune, AlgebraicPackageRefuses) {
  dd::Package<dd::AlgebraicSystem> package(3);
  const std::array<bool, 3> bits{false, false, false};
  const auto basis = package.makeBasisState(std::span<const bool>(bits));
  EXPECT_THROW((void)package.prune(basis, 0.1), std::logic_error)
      << "the algebraic system is exact; prune must refuse";
}

// -- simulator policies -----------------------------------------------------------

TEST(ApproxPrune, PerGatePolicyKeepsCumulativeFidelityBound) {
  const double budget = 0.05;
  NumSimulator* sim = nullptr;
  std::optional<NumSimulator> storage;
  auto package =
      runGrover(9, sim, storage, {budget, dd::ApproxPolicy::PerGate});
  EXPECT_GE(sim->approxFidelity(), 1.0 - budget - 1e-9)
      << "the product of per-prune fidelities must respect the total budget";
  EXPECT_LT(sim->approxFidelity(), 1.0) << "a 5% budget on Grover should actually prune";
  EXPECT_GT(sim->approxPrunedNodes(), 0U);
  EXPECT_NEAR(stateNorm(*package, sim->state()), 1.0, 1e-9);

  // The approximated diagram never exceeds the exact one.
  NumSimulator* exact = nullptr;
  std::optional<NumSimulator> exactStorage;
  auto exactPackage = runGrover(9, exact, exactStorage);
  EXPECT_LE(sim->stateNodes(), exact->stateNodes());
}

TEST(ApproxPrune, OneShotPolicyPrunesOnlyAtTheEnd) {
  const qc::Qubit qubits = 8;
  auto package = std::make_shared<NumPackage>(static_cast<dd::Qubit>(qubits),
                                              dd::NumericSystem::Config{});
  NumSimulator simulator(package, algos::grover({qubits, (1ULL << qubits) - 2, 0}));
  simulator.setApproximation({0.1, dd::ApproxPolicy::OneShot});
  const std::size_t half = simulator.circuit().size() / 2;
  while (simulator.gateIndex() < half) {
    simulator.step();
  }
  EXPECT_EQ(simulator.approxPrunedNodes(), 0U) << "one-shot must not prune mid-circuit";
  EXPECT_EQ(simulator.approxFidelity(), 1.0);
  simulator.run();
  EXPECT_GE(simulator.approxFidelity(), 1.0 - 0.1 - 1e-9);
  EXPECT_GT(simulator.approxPrunedNodes(), 0U);
}

TEST(ApproxPrune, SimulatorRejectsBadSpecs) {
  const qc::Qubit qubits = 3;
  auto package = std::make_shared<NumPackage>(static_cast<dd::Qubit>(qubits),
                                              dd::NumericSystem::Config{});
  NumSimulator simulator(package, algos::grover({qubits, 1, 1}));
  EXPECT_THROW(simulator.setApproximation({1.5, dd::ApproxPolicy::PerGate}),
               std::invalid_argument);
  EXPECT_THROW(simulator.setApproximation({-0.1, dd::ApproxPolicy::PerGate}),
               std::invalid_argument);

  using AlgSimulator = qc::Simulator<dd::AlgebraicSystem>;
  auto algPackage = std::make_shared<dd::Package<dd::AlgebraicSystem>>(qubits);
  AlgSimulator algSimulator(algPackage, algos::grover({qubits, 1, 1}));
  EXPECT_THROW(algSimulator.setApproximation({0.1, dd::ApproxPolicy::PerGate}),
               std::invalid_argument);
}

// -- RunSpec sweeps ---------------------------------------------------------------

namespace {

std::string deterministicCsv(const std::vector<eval::SimulationTrace>& traces) {
  obs::setDeterministic(true);
  std::ostringstream os;
  eval::writeCsv(os, traces);
  obs::setDeterministic(false);
  return os.str();
}

eval::SweepSpec approxSweep() {
  eval::SweepSpec sweep(algos::grover({6, (1ULL << 6) - 2, 0}));
  sweep.options.sampleEvery = 7;
  sweep.options.captureFinalState = true;
  sweep.reference = eval::ReferencePolicy::Inline;
  for (const double epsilon : {0.0, 1e-10, 1e-5}) {
    sweep.addRun({epsilon});
  }
  sweep.applyApprox({0.1, dd::ApproxPolicy::PerGate});
  return sweep;
}

} // namespace

TEST(ApproxSweep, LabelsCarryTheApproxAxis) {
  const eval::SweepSpec sweep = approxSweep();
  const eval::SweepResult result = eval::runSweep(sweep, nullptr);
  ASSERT_EQ(result.traces.size(), 1U + sweep.points.size());
  EXPECT_EQ(result.traces[1].label, "numeric eps=0 approx=pergate:f0.9");
  for (std::size_t i = 1; i < result.traces.size(); ++i) {
    EXPECT_GE(result.traces[i].finalFidelity, 1.0 - 0.1 - 1e-9);
    EXPECT_LE(result.traces[i].finalFidelity, 1.0);
  }
}

TEST(ApproxSweep, DeterministicAcrossJobs) {
  const eval::SweepSpec sweep = approxSweep();
  const eval::SweepResult serial = eval::runSweep(sweep, nullptr);
  exec::ThreadPool pool(4);
  const eval::SweepResult parallel = eval::runSweep(sweep, &pool);
  ASSERT_EQ(serial.traces.size(), parallel.traces.size());
  EXPECT_EQ(deterministicCsv(serial.traces), deterministicCsv(parallel.traces))
      << "approximated sweeps must stay byte-identical between --jobs 1 and --jobs 4";
  for (std::size_t i = 0; i < serial.traces.size(); ++i) {
    EXPECT_EQ(serial.traces[i].finalStateSnapshot, parallel.traces[i].finalStateSnapshot)
        << "final state of " << serial.traces[i].label;
    EXPECT_EQ(serial.traces[i].prunedNodes, parallel.traces[i].prunedNodes);
    EXPECT_EQ(serial.traces[i].finalFidelity, parallel.traces[i].finalFidelity);
  }
}

TEST(ApproxSweep, InactiveSpecLeavesLegacyBehaviorIntact) {
  // RunSpec with a default ApproxSpec must reproduce the pre-approximation
  // behavior bit for bit: same labels, fidelity pinned at 1, no pruning.
  eval::SweepSpec sweep(algos::grover({5, (1ULL << 5) - 2, 0}));
  sweep.options.sampleEvery = 7;
  sweep.reference = eval::ReferencePolicy::None;
  for (const double epsilon : {0.0, 1e-5}) {
    sweep.addRun({epsilon});
  }
  sweep.applyApprox({}); // inactive: a no-op by contract
  const eval::SweepResult result = eval::runSweep(sweep, nullptr);
  ASSERT_EQ(result.traces.size(), 2U);
  EXPECT_EQ(result.traces[0].label, "numeric eps=0");
  EXPECT_EQ(result.traces[1].label, "numeric eps=1e-05");
  for (const auto& trace : result.traces) {
    EXPECT_EQ(trace.finalFidelity, 1.0);
    EXPECT_EQ(trace.prunedNodes, 0U);
  }
  // A two-field initializer leaves the approximation axis off.
  const eval::RunSpec plain{1e-3, false};
  EXPECT_FALSE(plain.approx.active());
}

TEST(ApproxSweep, CsvCarriesFidelityColumns) {
  const eval::SweepSpec sweep = approxSweep();
  const eval::SweepResult result = eval::runSweep(sweep, nullptr);
  std::ostringstream os;
  eval::writeCsv(os, result.traces);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("fidelity,prunednodes"), std::string::npos);
  EXPECT_EQ(csv.find("series,"), 0U);
}

// -- serve protocol v2 ------------------------------------------------------------

TEST(ApproxServe, NumericSessionsAcceptAndReportApproximation) {
  serve::ServerConfig config;
  config.port = 0;
  config.workers = 2;
  config.idleTimeoutSeconds = 0;
  serve::Server server(config);
  server.start();

  serve::Client client;
  client.connect("127.0.0.1", server.port(), 30.0);

  serve::json::Value hello = serve::json::Value::object();
  hello.set("op", "hello");
  const auto helloReply = client.call(hello);
  EXPECT_GE(helloReply.getNumber("protocol"), 2.0) << "approx knobs arrived with protocol v2";

  serve::json::Value open = serve::json::Value::object();
  open.set("op", "open");
  open.set("session", "approx");
  open.set("system", "num");
  open.set("qubits", static_cast<std::size_t>(8));
  open.set("approx_fidelity", 0.9);
  const auto opened = client.call(open);
  ASSERT_TRUE(opened.getBool("ok")) << "numeric session must accept approx_fidelity";
  EXPECT_NEAR(opened.getNumber("approx_fidelity"), 0.9, 1e-12);
  EXPECT_EQ(opened.getString("approx_policy"), "pergate");

  serve::json::Value run = serve::json::Value::object();
  run.set("op", "run");
  run.set("session", "approx");
  run.set("circuit", algos::grover({8, (1ULL << 8) - 2, 0}).toText());
  const auto ran = client.call(run);
  ASSERT_TRUE(ran.getBool("ok"));
  EXPECT_GE(ran.getNumber("fidelity"), 1.0 - 0.1 - 1e-9);
  EXPECT_LE(ran.getNumber("fidelity"), 1.0);
  EXPECT_NE(ran.find("pruned_nodes"), nullptr);

  server.stop();
}

TEST(ApproxServe, AlgebraicSessionsRejectApproximationWith400) {
  serve::ServerConfig config;
  config.port = 0;
  config.workers = 1;
  config.idleTimeoutSeconds = 0;
  serve::Server server(config);
  server.start();

  serve::Client client;
  client.connect("127.0.0.1", server.port(), 30.0);

  serve::json::Value open = serve::json::Value::object();
  open.set("op", "open");
  open.set("session", "exact");
  open.set("system", "alg");
  open.set("qubits", static_cast<std::size_t>(4));
  open.set("approx_fidelity", 0.9);
  const auto rejected = client.call(open);
  EXPECT_FALSE(rejected.getBool("ok"));
  const serve::json::Value* error = rejected.find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(static_cast<int>(error->getNumber("code")), serve::kBadRequest)
      << "the exactness contract: approximated results must never enter the exact cache";

  // A policy without a fidelity budget is a contradiction on any system.
  serve::json::Value bad = serve::json::Value::object();
  bad.set("op", "open");
  bad.set("session", "bad");
  bad.set("system", "num");
  bad.set("qubits", static_cast<std::size_t>(4));
  bad.set("approx_policy", "oneshot");
  const auto alsoRejected = client.call(bad);
  EXPECT_FALSE(alsoRejected.getBool("ok"));
  EXPECT_EQ(static_cast<int>(alsoRejected.find("error")->getNumber("code")),
            serve::kBadRequest);

  server.stop();
}

// -- accuracyError off-unit references --------------------------------------------

TEST(ApproxAccuracy, ScaledReferenceGivesTheSameError) {
  const std::vector<std::complex<double>> numeric = {{0.6, 0.0}, {0.0, 0.8}};
  const std::vector<std::complex<double>> unitReference = {{1.0, 0.0}, {0.0, 0.0}};
  std::vector<std::complex<double>> scaledReference = unitReference;
  for (auto& amplitude : scaledReference) {
    amplitude *= 2.0;
  }
  const double unitError = eval::accuracyError(numeric, unitReference);
  const double scaledError = eval::accuracyError(numeric, scaledReference);
  EXPECT_NEAR(scaledError, unitError, 1e-12)
      << "a reference scaled off unit norm must be renormalized, not penalized";
  // Historic behavior is preserved bit for bit on unit references.
  double expected = 0.0;
  for (std::size_t i = 0; i < numeric.size(); ++i) {
    expected += std::norm(numeric[i] - unitReference[i]);
  }
  EXPECT_EQ(unitError, std::sqrt(expected));
}

TEST(ApproxAccuracy, ZeroNumericAgainstScaledReferenceIsMaximal) {
  const std::vector<std::complex<double>> zero(4, {0.0, 0.0});
  const std::vector<std::complex<double>> scaled = {{3.0, 0.0}, {0.0, 0.0}, {0.0, 0.0}, {0.0, 0.0}};
  EXPECT_NEAR(eval::accuracyError(zero, scaled), 1.0, 1e-12)
      << "the zero vector is maximally wrong regardless of the reference's length";
  EXPECT_EQ(eval::accuracyError(zero, zero), 0.0);
}

} // namespace
