/// \file test_approx.cpp
/// The fidelity-bounded approximation engine (arXiv 2002.04904): the
/// Package::prune contribution/budget contract, the simulator's per-gate and
/// one-shot policies, determinism of approximated sweeps across --jobs,
/// canonicalization of pruned states through QDDS round trips, the serve
/// protocol-v2 knobs (including the exactness-contract 400 on algebraic
/// sessions), and the accuracyError off-unit-reference regression.
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
#include "serve/client.hpp"
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <optional>
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
