/// \file alg_exact.cpp
/// Workload `alg-exact`: the paper's three exact families on the algebraic
/// plane, closed loop on one thread, a fresh qc::Simulator per op.  The
/// time goes to Q[omega]/BigInt weight arithmetic inside the DD kernels:
/// GSE mostly spills to multi-limb BigInt, BWT stays on the word-size fast
/// paths, Grover sits between.
#include "replay.hpp"
#include "workloads.hpp"

#include "algorithms/bwt.hpp"
#include "algorithms/grover.hpp"
#include "algorithms/gse.hpp"
#include "eval/accuracy.hpp"
#include "io/snapshot.hpp"
#include "qc/simulator.hpp"

#include <array>
#include <cmath>
#include <span>

namespace perf {
namespace {

using namespace qadd;
using Alg = dd::AlgebraicSystem;
using Num = dd::NumericSystem;

constexpr qc::Qubit kGroverQubits = 11;
// Both marked elements have bit 10 set, so the oracle needs no X
// conjugation and the two instances have the same gate count.
constexpr std::array<std::uint64_t, 2> kGroverMarked = {0x4D5, 0x6B2};
constexpr unsigned kGseSystemQubits = 2;
constexpr unsigned kGsePrecisionQubits = 3;
// One set bit each: the eigenstate preparation is one X gate for both.
constexpr std::array<std::uint64_t, 2> kGseEigenstates = {1, 2};
constexpr unsigned kBwtDepth = 5;
constexpr unsigned kBwtSteps = 8;
/// Tolerance of the numeric-plane run of each instance that accuracy_err
/// compares with the exact result (the figure programs' default ε).
constexpr double kNumericEpsilon = 1e-10;

enum class Family { Grover, Gse, Bwt };

struct Instance {
  Family family = Family::Grover;
  std::uint64_t parameter = 0; ///< marked element or eigenstate
  qc::Circuit circuit{1};
  std::vector<std::uint8_t> snapshot; ///< QDDS bytes of the exact final state
  std::size_t nodes = 0;
  double numericError = 0.0; ///< accuracyError(ε=kNumericEpsilon result, exact result)

  [[nodiscard]] std::string name() const {
    static constexpr std::array<const char*, 3> kNames = {"grover", "gse", "bwt"};
    return std::string(kNames[static_cast<std::size_t>(family)]) + "(" +
           std::to_string(parameter) + ")";
  }
};

struct Setup {
  std::vector<Instance> grover, gse, bwt;
  double generateMs = 0.0;
  double compileMs = 0.0;
};

/// One pass: every pool instance once, as (Grover, GSE, BWT) rotations in
/// a seeded instance order.
std::vector<const Instance*> nextPass(const Setup& setup, SeededOrder& order) {
  const auto grover = order.permutation(setup.grover.size());
  const auto gse = order.permutation(setup.gse.size());
  std::vector<const Instance*> pass;
  for (std::size_t i = 0; i < grover.size(); ++i) {
    pass.push_back(&setup.grover[grover[i]]);
    pass.push_back(&setup.gse[gse[i]]);
    pass.push_back(&setup.bwt[0]);
  }
  return pass;
}

Instance makeInstance(Family family, std::uint64_t parameter, qc::Circuit circuit) {
  Instance instance;
  instance.family = family;
  instance.parameter = parameter;
  instance.circuit = std::move(circuit);
  return instance;
}

/// Simulate on the exact plane and check the result against references
/// that do not use the DD package: the dense simulation for every family,
/// plus the closed-form Grover success probability and the expected GSE
/// phase.  The reference runs of the whole pool are the warm-up pass.  The
/// same circuit on the numeric plane gives the instance's accuracy error.
void buildReference(Instance& instance, Outcome& outcome) {
  qc::Simulator<Alg> simulator(instance.circuit);
  simulator.run();
  instance.nodes = simulator.stateNodes();
  instance.snapshot = io::saveVector(simulator.package(), simulator.state());
  const auto exact = simulator.package().amplitudes(simulator.state());
  const la::Vector dense = denseSimulate(instance.circuit);
  const std::string what = instance.name();
  outcome.check(eval::accuracyError(dense.data(), exact) < 1e-9,
                what + ": exact result differs from dense simulation");
  Num::Config config;
  config.epsilon = kNumericEpsilon;
  qc::Simulator<Num> numeric(instance.circuit, config);
  numeric.run();
  instance.numericError =
      eval::accuracyError(numeric.package().amplitudes(numeric.state()), exact);
  outcome.check(instance.numericError < 1e-6, what + ": numeric result is far from the exact one");
  if (instance.family == Family::Grover) {
    const double probability = std::norm(exact[basisIndex(instance.parameter, kGroverQubits)]);
    const double expected = algos::groverSuccessProbability(
        kGroverQubits, algos::groverOptimalIterations(kGroverQubits));
    outcome.check(std::abs(probability - expected) < 1e-9,
                  what + ": marked-element probability differs from the closed form");
  } else if (instance.family == Family::Gse) {
    // Phase register = qubits 0..m-1 (ancilla 0 is the most significant
    // phase bit); the system register must stay in the prepared eigenstate.
    const std::size_t outcomes = std::size_t{1} << kGsePrecisionQubits;
    const std::size_t systemIndex = basisIndex(instance.parameter, kGseSystemQubits);
    std::vector<double> distribution(outcomes, 0.0);
    double onEigenstate = 0.0;
    for (std::size_t index = 0; index < exact.size(); ++index) {
      const double p = std::norm(exact[index]);
      distribution[index >> kGseSystemQubits] += p;
      if ((index & ((std::size_t{1} << kGseSystemQubits) - 1)) == systemIndex) {
        onEigenstate += p;
      }
    }
    algos::GseOptions options;
    options.systemQubits = kGseSystemQubits;
    options.precisionQubits = kGsePrecisionQubits;
    options.eigenstate = instance.parameter;
    const double phase =
        algos::gseExpectedPhase(options, algos::makeMolecularInstance(kGseSystemQubits));
    const auto peak = static_cast<std::size_t>(
        std::max_element(distribution.begin(), distribution.end()) - distribution.begin());
    const auto below = static_cast<std::size_t>(std::floor(phase * static_cast<double>(outcomes)));
    outcome.check(peak == below % outcomes || peak == (below + 1) % outcomes,
                  what + ": most likely phase estimate is not next to the expected phase");
    outcome.check(onEigenstate > 0.99, what + ": system register left the eigenstate");
  }
}

Setup setUp(Outcome& outcome) {
  Setup setup;
  double generateSeconds = 0.0;
  double compileSeconds = 0.0;
  auto start = Clock::now();
  for (const std::uint64_t marked : kGroverMarked) {
    setup.grover.push_back(
        makeInstance(Family::Grover, marked, algos::grover({kGroverQubits, marked, 0})));
  }
  setup.bwt.push_back(makeInstance(Family::Bwt, 0, algos::bwt({kBwtDepth, kBwtSteps})));
  generateSeconds += secondsSince(start);
  for (const std::uint64_t eigenstate : kGseEigenstates) {
    algos::GseOptions options;
    options.systemQubits = kGseSystemQubits;
    options.precisionQubits = kGsePrecisionQubits;
    options.eigenstate = eigenstate;
    // algos::gse = gseRotationCircuit + Clifford+T compile; timing the
    // rotation circuit alone splits out the compile.
    start = Clock::now();
    (void)algos::gseRotationCircuit(options);
    const double rotationSeconds = secondsSince(start);
    start = Clock::now();
    setup.gse.push_back(makeInstance(Family::Gse, eigenstate, algos::gse(options)));
    const double gseSeconds = secondsSince(start);
    generateSeconds += gseSeconds;
    compileSeconds += std::max(0.0, gseSeconds - rotationSeconds);
  }
  setup.generateMs = generateSeconds * 1e3;
  setup.compileMs = compileSeconds * 1e3;
  for (auto* pool : {&setup.grover, &setup.gse, &setup.bwt}) {
    for (Instance& instance : *pool) {
      buildReference(instance, outcome);
    }
    // Equal gate counts within a pool keep the work of a pass independent
    // of the seeded order.
    for (const Instance& instance : *pool) {
      outcome.check(instance.circuit.size() == pool->front().circuit.size(),
                    instance.name() + ": gate count differs within its pool");
    }
  }
  return setup;
}

OpResult runOp(const Instance& instance) {
  const auto start = Clock::now();
  qc::Simulator<Alg> simulator(instance.circuit);
  simulator.run();
  const double seconds = secondsSince(start);
  const bool ok = simulator.stateNodes() == instance.nodes &&
                  io::saveVector(simulator.package(), simulator.state()) == instance.snapshot;
  return {seconds, ok};
}

struct TracedTotals {
  double gates = 0, buildSeconds = 0, multiplySeconds = 0, saveSeconds = 0, loadSeconds = 0,
         snapshotBytes = 0;
  std::uint64_t hits = 0, spills = 0, ops = 0;
  CoreCounters core;
};

/// The same op through replaySteps with spans, plus a timed QDDS save and
/// load of the result.
OpResult runTracedOp(const Instance& instance, Tracer& tracer, std::uint64_t opId,
                     TracedTotals& totals) {
  const Scope opSpan(&tracer, "op", Tracer::kNone, opId);
  const auto start = Clock::now();
  dd::Package<Alg> package(instance.circuit.qubits());
  const auto before = package.stats().weights; // process-wide fast-path tallies
  const auto replay = replaySteps(package, instance.circuit, &tracer, opSpan.id(), opId);
  const double seconds = secondsSince(start);
  const auto after = package.stats();
  auto t = Clock::now();
  const auto bytes = io::saveVector(package, replay.state);
  const auto saved = Clock::now();
  const auto loaded = io::loadVector(package, std::span<const std::uint8_t>(instance.snapshot));
  const auto done = Clock::now();
  tracer.record("io.saveVector", opSpan.id(), opId, t, saved);
  tracer.record("io.loadVector", opSpan.id(), opId, saved, done);
  totals.gates += static_cast<double>(instance.circuit.size());
  totals.buildSeconds += replay.buildSeconds;
  totals.multiplySeconds += replay.multiplySeconds;
  totals.saveSeconds += secondsBetween(t, saved);
  totals.loadSeconds += secondsBetween(saved, done);
  totals.snapshotBytes += static_cast<double>(bytes.size());
  totals.hits += after.weights.smallPathHits - before.smallPathHits;
  totals.spills += after.weights.smallPathSpills - before.smallPathSpills;
  ++totals.ops;
  totals.core.add(after, true);
  const bool ok = bytes == instance.snapshot && loaded == replay.state &&
                  package.countNodes(replay.state) == instance.nodes;
  return {seconds, ok};
}

} // namespace

Outcome runAlgExact(const Options& options) {
  Outcome outcome;
  std::vector<double> setupSeconds, generateMs, compileMs;
  Setup setup;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    setup = {}; // tear the previous set-up down first
    setupSeconds.push_back(timeAtReferenceSpeed([&] { setup = setUp(outcome); }));
    generateMs.push_back(setup.generateMs);
    compileMs.push_back(setup.compileMs);
  }
  // Self-check: two seeds give the same op rotation with the same gate
  // counts per op.
  {
    SeededOrder a(options.seed);
    SeededOrder b(options.seed + 1);
    const auto passA = nextPass(setup, a);
    const auto passB = nextPass(setup, b);
    bool same = passA.size() == passB.size();
    for (std::size_t i = 0; same && i < passA.size(); ++i) {
      same = passA[i]->family == passB[i]->family &&
             passA[i]->circuit.size() == passB[i]->circuit.size();
    }
    outcome.check(same, "two seeds give different op rotations");
  }
  // dd_nodes and accuracy_err over one pass (seed-independent).
  EndToEnd e2e;
  {
    SeededOrder order(options.seed);
    const auto pass = nextPass(setup, order);
    std::vector<double> errors;
    for (const Instance* instance : pass) {
      e2e.ddNodes += static_cast<double>(instance->nodes);
      errors.push_back(instance->numericError);
    }
    e2e.accuracyErr = mean(errors);
  }
  e2e.setupS = median(setupSeconds);

  SeededOrder order(options.seed);
  const auto passes = [&] { return nextPass(setup, order); };
  const auto plainOp = [](const Instance* instance) { return runOp(*instance); };
  if (!options.trace) {
    const LoopResult loop = closedLoop(options.seconds, passes, plainOp);
    e2e.setClosedLoop(loop);
    loop.writeCsv(options.tmpDir + "/ops.csv");
    outcome.attempted = loop.attempted;
    outcome.failed = loop.attempted - loop.verified;
    outcome.metrics = e2e.metrics();
    outcome.notes.push_back("ops per pass " + std::to_string(loop.attempted / loop.passes) +
                            ", passes " + std::to_string(loop.passes));
    outcome.notes.push_back(rawTimingNote(loop));
    return outcome;
  }

  // Traced run: an untraced half, then the same passes through the traced
  // replay.
  const LoopResult plain = closedLoop(options.seconds / 2, passes, plainOp);
  const auto tracer = std::make_shared<Tracer>();
  outcome.tracer = tracer;
  TracedTotals totals;
  std::uint64_t opId = 0;
  const LoopResult traced = closedLoop(
      options.seconds / 2, passes,
      [&](const Instance* instance) { return runTracedOp(*instance, *tracer, opId++, totals); });
  outcome.attempted = plain.attempted + traced.attempted;
  outcome.failed = outcome.attempted - plain.verified - traced.verified;

  LayerMetrics layer;
  layer.generateMs = median(generateMs);
  layer.compileMs = median(compileMs);
  const auto ops = static_cast<double>(totals.ops);
  layer.gates = totals.gates / ops;
  layer.gateBuildUs = totals.buildSeconds / totals.gates * 1e6;
  layer.mvUs = totals.multiplySeconds / totals.gates * 1e6;
  layer.core = totals.core;
  layer.spillFrac = spillFraction(totals.hits, totals.spills);
  layer.workers = 1;
  layer.saveMs = totals.saveSeconds / ops * 1e3;
  layer.loadMs = totals.loadSeconds / ops * 1e3;
  layer.snapshotKb = totals.snapshotBytes / ops / 1024.0;
  // Both halves run whole passes, so their mean op latencies compare like
  // for like.
  layer.traceOverhead = mean(traced.latencyMs) / mean(plain.latencyMs) - 1.0;
  outcome.metrics = layer.metrics();
  return outcome;
}

} // namespace perf
