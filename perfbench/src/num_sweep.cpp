/// \file num_sweep.cpp
/// Workload `num-sweep`: each op is one eval::runSweep — the figure
/// programs' ε list plus one PerGate f=0.9 point — fanned out over a pool of
/// exec::defaultJobs() workers, with the exact reference loaded from a QREF
/// file built during set-up.  The time goes to the numeric DD kernels, the
/// unique and computed tables, the ε complex table, prune and the fan-out,
/// whose critical path is the one slow exact-structure point.  Algebraic
/// arithmetic runs only in set-up.
#include "replay.hpp"
#include "workloads.hpp"

#include "algorithms/bwt.hpp"
#include "algorithms/grover.hpp"
#include "eval/accuracy.hpp"
#include "eval/sweep.hpp"
#include "exec/thread_pool.hpp"
#include "io/snapshot.hpp"

#include <array>
#include <cmath>
#include <complex>
#include <span>

namespace perf {
namespace {

using namespace qadd;
using Alg = dd::AlgebraicSystem;
using Num = dd::NumericSystem;

constexpr qc::Qubit kGroverQubits = 9;
// Bit 8 set in both: no oracle X conjugation, equal gate counts.
constexpr std::array<std::uint64_t, 2> kGroverMarked = {0x1A9, 0x135};
constexpr unsigned kBwtDepth = 5;
constexpr unsigned kBwtSteps = 8;
/// The ε list of the figure programs (bench/fig3_grover and friends).
constexpr std::array<double, 6> kEpsilons = {0.0, 1e-20, 1e-15, 1e-10, 1e-5, 1e-3};
/// The extra fidelity-bounded point: PerGate pruning to f = 0.9 at ε=1e-10.
constexpr double kPrunedEpsilon = 1e-10;
constexpr double kPrunedFidelity = 0.9;

struct PointResult {
  std::size_t nodes = 0;
  double error = 0.0;
};

struct Instance {
  std::string name;
  std::uint64_t marked = 0; ///< Grover only
  qc::Circuit circuit{1};
  eval::SweepSpec spec{qc::Circuit{1}};
  std::vector<std::complex<double>> exact; ///< exact final amplitudes
  std::size_t exactNodes = 0;
  /// Per numeric point, the values of the first verified sweep; later
  /// sweeps must repeat them exactly (they do not depend on worker count
  /// or scheduling).
  std::vector<PointResult> expected;
};

struct Setup {
  std::vector<Instance> grover, bwt;
  std::unique_ptr<exec::ThreadPool> pool;
  double generateMs = 0.0;
  double referenceSeconds = 0.0;
  CoreCounters referenceCounters;
  std::uint64_t hits = 0, spills = 0;
};

eval::SweepSpec makeSpec(const qc::Circuit& circuit, const std::string& qrefPath) {
  eval::SweepSpec spec(circuit);
  spec.options.sampleEvery = std::max<std::size_t>(1, circuit.size() / 60);
  spec.options.captureFinalState = true; // the checks reload every numeric result
  spec.reference = eval::ReferencePolicy::Cached;
  spec.referenceCachePath = qrefPath;
  for (const double epsilon : kEpsilons) {
    spec.addRun({epsilon, false});
  }
  eval::RunSpec pruned;
  pruned.epsilon = kPrunedEpsilon;
  pruned.approx = {1.0 - kPrunedFidelity, dd::ApproxPolicy::PerGate};
  spec.addRun(pruned);
  return spec;
}

/// What runSweep hands every trace: the spec's options with the pool as the
/// kernel fork target.
eval::TraceOptions poolOptions(const eval::SweepSpec& spec, exec::ThreadPool* pool) {
  eval::TraceOptions options = spec.options;
  options.kernelPool = pool;
  return options;
}

/// One pass: every Grover instance once, each followed by the BWT sweep,
/// in a seeded order.
std::vector<Instance*> nextPass(Setup& setup, SeededOrder& order) {
  std::vector<Instance*> pass;
  for (const std::size_t i : order.permutation(setup.grover.size())) {
    pass.push_back(&setup.grover[i]);
    pass.push_back(&setup.bwt[0]);
  }
  return pass;
}

struct IoTimes {
  double saveSeconds = 0, loadSeconds = 0, bytes = 0;
  std::size_t snapshots = 0;
};

/// Check the numeric traces of one sweep: each captured final state,
/// reloaded on its own, must have the reported node count and reported
/// accuracy (recomputed here against the exact amplitudes), and must repeat
/// the instance's first verified sweep exactly.
bool verifyPoints(Instance& instance, std::span<const eval::SimulationTrace> numeric,
                  IoTimes* io) {
  if (numeric.size() != instance.spec.points.size()) {
    return false;
  }
  const bool first = instance.expected.empty();
  bool ok = true;
  for (std::size_t k = 0; k < numeric.size(); ++k) {
    const eval::SimulationTrace& trace = numeric[k];
    Num::Config config;
    config.epsilon = instance.spec.points[k].epsilon;
    dd::Package<Num> package(instance.circuit.qubits(), config);
    const auto t0 = Clock::now();
    const auto state =
        io::loadVector(package, std::span<const std::uint8_t>(trace.finalStateSnapshot));
    const auto t1 = Clock::now();
    if (io != nullptr) {
      const auto bytes = io::saveVector(package, state);
      io->loadSeconds += secondsBetween(t0, t1);
      io->saveSeconds += secondsSince(t1);
      io->bytes += static_cast<double>(bytes.size());
      ++io->snapshots;
    }
    const double error = eval::accuracyError(package.amplitudes(state), instance.exact);
    ok = ok && package.countNodes(state) == trace.finalNodes &&
         std::abs(error - trace.finalError) <= 1e-9 + 1e-6 * error;
    // Bit-exact interning and the ε=1e-10 plane must be accurate; the other
    // points are where the paper shows ε error.
    const eval::RunSpec& point = instance.spec.points[k];
    if (!point.approx.active() && (point.epsilon == 0.0 || point.epsilon == kPrunedEpsilon)) {
      ok = ok && trace.finalError < 1e-6;
    }
    if (first) {
      instance.expected.push_back({trace.finalNodes, trace.finalError});
    } else {
      ok = ok && trace.finalNodes == instance.expected[k].nodes &&
           trace.finalError == instance.expected[k].error;
    }
  }
  if (first && !ok) {
    instance.expected.clear();
  }
  return ok;
}

OpResult runOp(Instance& instance, exec::ThreadPool* pool) {
  const auto start = Clock::now();
  const eval::SweepResult result = eval::runSweep(instance.spec, pool);
  const double seconds = secondsSince(start);
  const bool ok = result.referenceFromCache && !result.traces.empty() &&
                  verifyPoints(instance,
                               std::span<const eval::SimulationTrace>(result.traces).subspan(1),
                               nullptr);
  return {seconds, ok};
}

Setup setUp(const Options& options, Outcome& outcome) {
  Setup setup;
  auto start = Clock::now();
  for (const std::uint64_t marked : kGroverMarked) {
    Instance instance;
    instance.name = "grover9_" + std::to_string(marked);
    instance.marked = marked;
    instance.circuit = algos::grover({kGroverQubits, marked, 0});
    setup.grover.push_back(std::move(instance));
  }
  Instance bwt;
  bwt.name = "bwt5_8";
  bwt.circuit = algos::bwt({kBwtDepth, kBwtSteps});
  setup.bwt.push_back(std::move(bwt));
  setup.generateMs = secondsSince(start) * 1e3;
  setup.pool = std::make_unique<exec::ThreadPool>(exec::defaultJobs());

  for (auto* pool : {&setup.grover, &setup.bwt}) {
    for (Instance& instance : *pool) {
      instance.spec = makeSpec(instance.circuit, options.tmpDir + "/" + instance.name + ".qref");
      // Build the QREF file the timed sweeps load, the way runSweep builds
      // it on a cache miss, but serially: set-up time should not depend on
      // how the pool's threads are scheduled.
      const auto before = dd::Package<Alg>(1).stats().weights;
      start = Clock::now();
      const eval::CachedAlgebraicReference reference = eval::traceAlgebraicCached(
          instance.circuit, poolOptions(instance.spec, nullptr), instance.spec.referenceCachePath,
          true);
      setup.referenceSeconds += secondsSince(start);
      const auto after = dd::Package<Alg>(1).stats().weights;
      setup.hits += after.smallPathHits - before.smallPathHits;
      setup.spills += after.smallPathSpills - before.smallPathSpills;
      setup.referenceCounters.add(reference.trace.finalStats, true);
      instance.exactNodes = reference.trace.finalNodes;
      // Independent check of the reference: its final exact state against
      // the dense simulation (and, for Grover, the closed form).
      dd::Package<Alg> package(instance.circuit.qubits());
      const auto state =
          io::loadVector(package, std::span<const std::uint8_t>(reference.finalState));
      instance.exact = package.amplitudes(state);
      const la::Vector dense = denseSimulate(instance.circuit);
      outcome.check(eval::accuracyError(dense.data(), instance.exact) < 1e-9,
                    instance.name + ": exact reference differs from dense simulation");
      outcome.check(package.countNodes(state) == instance.exactNodes,
                    instance.name + ": QREF final state has the wrong size");
    }
    for (const Instance& instance : *pool) {
      outcome.check(instance.circuit.size() == pool->front().circuit.size(),
                    instance.name + ": gate count differs within its pool");
    }
  }
  for (Instance& instance : setup.grover) {
    const std::size_t index = basisIndex(instance.marked, kGroverQubits);
    const double expected = algos::groverSuccessProbability(
        kGroverQubits, algos::groverOptimalIterations(kGroverQubits));
    outcome.check(std::abs(std::norm(instance.exact[index]) - expected) < 1e-9,
                  instance.name + ": marked-element probability differs from the closed form");
  }
  // Warm-up pass: every instance once; it also records the values every
  // later sweep must repeat.
  for (auto* pool : {&setup.grover, &setup.bwt}) {
    for (Instance& instance : *pool) {
      outcome.check(runOp(instance, setup.pool.get()).ok, instance.name + ": warm-up sweep failed");
    }
  }
  return setup;
}

struct TracedTotals {
  std::vector<double> samplingMs, criticalS, fanoutS, efficiency, qrefLoadMs;
  CoreCounters core;
  IoTimes io;
  /// Slowest point seen: (instance, point index, seconds).
  Instance* criticalInstance = nullptr;
  std::size_t criticalPoint = 0;
  double criticalSeconds = 0.0;
};

/// runSweep's two phases replayed through the same public calls, with one
/// span for the reference load, one for the fan-out and one per point on
/// the worker that ran it.
OpResult runTracedOp(Instance& instance, exec::ThreadPool* pool, Tracer& tracer,
                     std::uint64_t opId, TracedTotals& totals) {
  const Scope opSpan(&tracer, "op", Tracer::kNone, opId);
  const auto start = Clock::now();
  const eval::TraceOptions options = poolOptions(instance.spec, pool);
  eval::CachedAlgebraicReference reference;
  {
    const Scope span(&tracer, "eval.traceAlgebraicCached", opSpan.id(), opId);
    reference = eval::traceAlgebraicCached(instance.circuit, options,
                                           instance.spec.referenceCachePath, false);
  }
  const std::size_t points = instance.spec.points.size();
  std::vector<eval::SimulationTrace> traces(points);
  std::vector<double> pointSeconds(points, 0.0);
  const auto fanStart = Clock::now();
  {
    const Scope fan(&tracer, "exec.parallelFor", opSpan.id(), opId);
    exec::parallelFor(pool, points, [&](std::size_t k) {
      const Scope span(&tracer, "eval.traceRun", fan.id(), opId);
      const auto pointStart = Clock::now();
      traces[k] = eval::traceRun(instance.circuit, instance.spec.points[k], &reference.trajectory,
                                 options, instance.spec.normalization);
      pointSeconds[k] = secondsSince(pointStart);
    });
  }
  const double fanout = secondsSince(fanStart);
  const double seconds = secondsSince(start);

  const bool ok = reference.fromCache && verifyPoints(instance, traces, &totals.io);
  obs::PackageStats aggregated;
  double busy = 0.0;
  for (std::size_t k = 0; k < points; ++k) {
    aggregated += traces[k].finalStats;
    busy += pointSeconds[k];
    totals.samplingMs.push_back((pointSeconds[k] - traces[k].totalSeconds) * 1e3);
    if (pointSeconds[k] > totals.criticalSeconds) {
      totals.criticalSeconds = pointSeconds[k];
      totals.criticalInstance = &instance;
      totals.criticalPoint = k;
    }
  }
  totals.core.add(aggregated, false);
  totals.criticalS.push_back(*std::max_element(pointSeconds.begin(), pointSeconds.end()));
  totals.fanoutS.push_back(fanout);
  totals.efficiency.push_back(busy / (static_cast<double>(pool->workers()) * fanout));
  totals.qrefLoadMs.push_back(reference.cacheSeconds * 1e3);
  return {seconds, ok};
}

} // namespace

Outcome runNumSweep(const Options& options) {
  Outcome outcome;
  std::vector<double> setupSeconds, generateMs, referenceSeconds;
  Setup setup;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    setup = {};
    setupSeconds.push_back(timeAtReferenceSpeed([&] { setup = setUp(options, outcome); }));
    generateMs.push_back(setup.generateMs);
    referenceSeconds.push_back(setup.referenceSeconds);
  }
  {
    SeededOrder a(options.seed);
    SeededOrder b(options.seed + 1);
    const auto passA = nextPass(setup, a);
    const auto passB = nextPass(setup, b);
    bool same = passA.size() == passB.size();
    for (std::size_t i = 0; same && i < passA.size(); ++i) {
      same = passA[i]->circuit.size() == passB[i]->circuit.size() &&
             passA[i]->spec.points == passB[i]->spec.points;
    }
    outcome.check(same, "two seeds give different op rotations");
  }
  EndToEnd e2e;
  e2e.setupS = median(setupSeconds);
  {
    SeededOrder order(options.seed);
    std::vector<double> errors;
    for (const Instance* instance : nextPass(setup, order)) {
      e2e.ddNodes += static_cast<double>(instance->exactNodes);
      for (const PointResult& point : instance->expected) {
        e2e.ddNodes += static_cast<double>(point.nodes);
        errors.push_back(point.error);
      }
    }
    e2e.accuracyErr = mean(errors);
  }

  exec::ThreadPool* pool = setup.pool.get();
  SeededOrder order(options.seed);
  const auto passes = [&] { return nextPass(setup, order); };
  const auto plainOp = [pool](Instance* instance) { return runOp(*instance, pool); };
  if (!options.trace) {
    const LoopResult loop = closedLoop(options.seconds, passes, plainOp);
    e2e.setClosedLoop(loop);
    loop.writeCsv(options.tmpDir + "/ops.csv");
    outcome.attempted = loop.attempted;
    outcome.failed = loop.attempted - loop.verified;
    outcome.metrics = e2e.metrics();
    outcome.notes.push_back("workers " + std::to_string(pool->workers()) + ", passes " +
                            std::to_string(loop.passes));
    outcome.notes.push_back(rawTimingNote(loop));
    return outcome;
  }

  const LoopResult plain = closedLoop(options.seconds / 2, passes, plainOp);
  const auto tracer = std::make_shared<Tracer>();
  outcome.tracer = tracer;
  TracedTotals totals;
  std::uint64_t opId = 0;
  const LoopResult traced =
      closedLoop(options.seconds / 2, passes, [&](Instance* instance) {
        return runTracedOp(*instance, pool, *tracer, opId++, totals);
      });
  outcome.attempted = plain.attempted + traced.attempted;
  outcome.failed = outcome.attempted - plain.verified - traced.verified;

  LayerMetrics layer;
  // Serial replay of each instance against a parallel one, back to back.
  double serialFanout = 0.0;
  double parallelFanout = 0.0;
  for (auto* instances : {&setup.grover, &setup.bwt}) {
    for (Instance& instance : *instances) {
      const eval::SweepResult parallel = eval::runSweep(instance.spec, pool);
      const eval::SweepResult serial = eval::runSweep(instance.spec, nullptr);
      parallelFanout += parallel.numericSweepSeconds;
      serialFanout += serial.numericSweepSeconds;
      outcome.check(
          verifyPoints(instance, std::span<const eval::SimulationTrace>(serial.traces).subspan(1),
                       nullptr),
          instance.name + ": serial sweep differs from the parallel one");
    }
  }
  layer.speedup = serialFanout / parallelFanout;
  // The slowest point, replayed serially gate by gate.
  if (totals.criticalInstance != nullptr) {
    const Instance& instance = *totals.criticalInstance;
    const eval::RunSpec& point = instance.spec.points[totals.criticalPoint];
    Num::Config config;
    config.epsilon = point.epsilon;
    dd::Package<Num> package(instance.circuit.qubits(), config);
    const Scope span(tracer.get(), "replay.critical_point", Tracer::kNone, opId);
    const auto replay = replaySteps(package, instance.circuit, tracer.get(), span.id(), opId);
    const auto gates = static_cast<double>(instance.circuit.size());
    layer.gateBuildUs = replay.buildSeconds / gates * 1e6;
    layer.mvUs = replay.multiplySeconds / gates * 1e6;
    if (!point.approx.active()) {
      outcome.check(package.countNodes(replay.state) ==
                        instance.expected[totals.criticalPoint].nodes,
                    instance.name + ": serial replay of the critical point differs");
    }
    outcome.notes.push_back("critical point: " + instance.name + " eps=" +
                            std::to_string(point.epsilon) +
                            ", replay gc " + std::to_string(replay.gcSeconds * 1e3) + " ms");
  }
  std::size_t concurrentPoints = 0;
  for (const eval::RunSpec& point : setup.grover[0].spec.points) {
    Num::Config config;
    config.epsilon = point.epsilon;
    dd::Package<Num> probe(kGroverQubits, config);
    probe.setExecutor(pool);
    concurrentPoints += probe.concurrentKernels() ? 1 : 0;
    probe.setExecutor(nullptr);
  }

  layer.generateMs = median(generateMs);
  SeededOrder gateOrder(options.seed);
  std::vector<double> gates;
  for (const Instance* instance : nextPass(setup, gateOrder)) {
    gates.push_back(static_cast<double>(instance->circuit.size()));
  }
  layer.gates = mean(gates);
  layer.core = totals.core;
  layer.core.algEntries = setup.referenceCounters.algEntries;
  layer.core.algMaxBits = setup.referenceCounters.algMaxBits;
  layer.core.algOpcacheHitRate = setup.referenceCounters.algOpcacheHitRate;
  layer.spillFrac = spillFraction(setup.hits, setup.spills);
  layer.concurrentPoints = static_cast<double>(concurrentPoints);
  layer.referenceS = median(referenceSeconds);
  layer.qrefLoadMs = mean(totals.qrefLoadMs);
  layer.samplingMs = mean(totals.samplingMs);
  layer.criticalS = mean(totals.criticalS);
  layer.workers = static_cast<double>(pool->workers());
  layer.fanoutS = mean(totals.fanoutS);
  layer.efficiency = mean(totals.efficiency);
  const auto snapshots = static_cast<double>(std::max<std::size_t>(1, totals.io.snapshots));
  layer.saveMs = totals.io.saveSeconds / snapshots * 1e3;
  layer.loadMs = totals.io.loadSeconds / snapshots * 1e3;
  layer.snapshotKb = totals.io.bytes / snapshots / 1024.0;
  layer.traceOverhead = mean(traced.latencyMs) / mean(plain.latencyMs) - 1.0;
  outcome.metrics = layer.metrics();
  return outcome;
}

} // namespace perf
