/// \file approx_tradeoff.cpp
/// Accuracy-vs-compactness trade-off of the fidelity-bounded approximation
/// engine (docs/APPROXIMATION.md): simulates Grover (24 qubits), GSE and BWT
/// once exactly under the eps = 0 numeric system, once with the PerGate
/// policy at a cumulative fidelity target of 0.9, and once unpruned at
/// eps = 1e-10 — the stronger baseline, since tolerance unification alone
/// already merges the round-off duplicates that blow up eps = 0 — and writes
/// BENCH_approx.json with the peak/final diagram sizes, the achieved
/// fidelity and the pruned-node counts of each run, plus the time PerGate
/// pruning costs over the tolerance run (`pruneOverhead`).
///
/// Enforced gates (exit 1 on failure): on the Grover workload the
/// approximated run must peak at least 5x fewer state nodes than the exact
/// run, and every approximated run must keep its cumulative fidelity at or
/// above the 0.9 target (the prune ledger guarantees this by construction —
/// the gate catches accounting regressions, not tuning).  Grover is the
/// workload where pruning shines: at eps = 0 floating-point round-off splits
/// the two-amplitude Grover state into hundreds of thousands of
/// near-duplicate nodes, all of which carry next to no contribution mass.
/// BWT is the honest counter-case — its walk genuinely spreads mass, so a
/// 0.1 budget buys only a modest reduction.
///
///   ./approx_tradeoff [--help]
#include "algorithms/bwt.hpp"
#include "algorithms/grover.hpp"
#include "algorithms/gse.hpp"
#include "core/package.hpp"
#include "eval/driver_cli.hpp"
#include "qc/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

namespace {

using namespace qadd;
using Clock = std::chrono::steady_clock;

constexpr double kFidelityTarget = 0.9; ///< cumulative fidelity floor
constexpr double kNodeGate = 5.0;       ///< Grover peak-node reduction floor
const char* const kGateWorkload = "grover";

struct Run {
  std::size_t peakNodes = 0;  ///< max state nodes over all gate applications
  std::size_t finalNodes = 0; ///< state nodes after the last gate
  double fidelity = 1.0;      ///< cumulative achieved fidelity
  std::size_t prunedNodes = 0;
  double seconds = 0.0;
};

Run simulate(const qc::Circuit& circuit, const dd::ApproxSpec& approx, double epsilon = 0.0) {
  qc::Simulator<dd::NumericSystem> simulator(
      circuit, {epsilon, dd::NumericSystem::Normalization::LeftmostNonzero});
  if (approx.active()) {
    simulator.setApproximation(approx);
  }
  Run run;
  const auto start = Clock::now();
  simulator.run([&](auto& sim) { run.peakNodes = std::max(run.peakNodes, sim.stateNodes()); });
  run.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  run.finalNodes = simulator.stateNodes();
  run.fidelity = simulator.approxFidelity();
  run.prunedNodes = simulator.approxPrunedNodes();
  return run;
}

struct Workload {
  std::string name;
  qc::Circuit circuit;
  Run exact;
  Run approx;
  Run tolerance; ///< unpruned eps = 1e-10

  /// Wall time of PerGate pruning relative to the unpruned tolerance run.
  [[nodiscard]] double pruneOverhead() const {
    return tolerance.seconds > 0.0 ? approx.seconds / tolerance.seconds : 0.0;
  }

  [[nodiscard]] double nodeReduction() const {
    return approx.peakNodes > 0 ? static_cast<double>(exact.peakNodes) /
                                      static_cast<double>(approx.peakNodes)
                                : 0.0;
  }
  [[nodiscard]] bool fidelityGatePassed() const {
    return approx.fidelity >= kFidelityTarget - 1e-9;
  }
  [[nodiscard]] bool nodeGatePassed() const { return nodeReduction() >= kNodeGate; }
};

void emitWorkload(std::ofstream& os, const Workload& w, bool last) {
  os << "    \"" << w.name << "\": {\n"
     << "      \"qubits\": " << w.circuit.qubits() << ",\n"
     << "      \"gates\": " << w.circuit.size() << ",\n"
     << "      \"exactNodes\": " << w.exact.peakNodes << ",\n"
     << "      \"exactFinalNodes\": " << w.exact.finalNodes << ",\n"
     << "      \"approxNodes\": " << w.approx.peakNodes << ",\n"
     << "      \"approxFinalNodes\": " << w.approx.finalNodes << ",\n"
     << "      \"toleranceNodes\": " << w.tolerance.peakNodes << ",\n"
     << "      \"toleranceFinalNodes\": " << w.tolerance.finalNodes << ",\n"
     << "      \"nodeReduction\": " << w.nodeReduction() << ",\n"
     << "      \"achievedFidelity\": " << w.approx.fidelity << ",\n"
     << "      \"prunedNodes\": " << w.approx.prunedNodes << ",\n"
     << "      \"exactSeconds\": " << w.exact.seconds << ",\n"
     << "      \"approxSeconds\": " << w.approx.seconds << ",\n"
     << "      \"toleranceSeconds\": " << w.tolerance.seconds << ",\n"
     << "      \"pruneOverhead\": " << w.pruneOverhead() << ",\n"
     << "      \"nodeGatePassed\": " << (w.nodeGatePassed() ? "true" : "false") << ",\n"
     << "      \"fidelityGatePassed\": " << (w.fidelityGatePassed() ? "true" : "false") << "\n"
     << "    }" << (last ? "\n" : ",\n");
}

} // namespace

int main(int argc, char** argv) {
  const eval::DriverSpec spec{
      "approx_tradeoff",
      "BENCH_approx.json: exact eps=0 numeric vs fidelity-bounded PerGate pruning.",
      {},
      false};
  (void)eval::parseDriverCli(argc, argv, spec);

  // Two Grover iterations keep the exact run's node blow-up (and hence the
  // bench run-time) bounded while still crossing the GC watermark; the
  // optimal iteration count at 24 qubits (~3200) is far out of reach for the
  // exact eps = 0 run — which is the point of the approximation engine.
  const dd::ApproxSpec approx{1.0 - kFidelityTarget, dd::ApproxPolicy::PerGate};
  constexpr double kToleranceEpsilon = 1e-10;
  std::vector<Workload> workloads;
  workloads.push_back({"grover", algos::grover({24, (1ULL << 24) / 3, 2}), {}, {}, {}});
  workloads.push_back({"gse", algos::gseRotationCircuit({6, 8, 1.0, 0}), {}, {}, {}});
  workloads.push_back({"bwt", algos::bwt({4, 10}), {}, {}, {}});

  std::cout << "== approx_tradeoff: exact eps=0 vs PerGate pruning at fidelity "
            << kFidelityTarget << " ==\n";
  bool nodeGatePassed = true;
  bool fidelityGatePassed = true;
  for (Workload& w : workloads) {
    w.exact = simulate(w.circuit, {});
    w.approx = simulate(w.circuit, approx);
    w.tolerance = simulate(w.circuit, {}, kToleranceEpsilon);
    std::cout << std::fixed << std::setprecision(2) << w.name << " (n=" << w.circuit.qubits()
              << ", " << w.circuit.size() << " gates): peak " << w.exact.peakNodes << " vs "
              << w.approx.peakNodes << " nodes (" << w.nodeReduction() << "x), fidelity "
              << std::setprecision(6) << w.approx.fidelity << ", " << w.approx.prunedNodes
              << " nodes pruned, " << std::setprecision(2) << w.exact.seconds << " s vs "
              << w.approx.seconds << " s (unpruned eps=1e-10: " << w.tolerance.peakNodes
              << " peak nodes, " << w.tolerance.seconds << " s; prune overhead "
              << w.pruneOverhead() << "x)\n";
    if (!w.fidelityGatePassed()) {
      fidelityGatePassed = false;
      std::cerr << "FAIL: " << w.name << " achieved fidelity " << std::setprecision(6)
                << w.approx.fidelity << " below the " << kFidelityTarget << " target\n";
    }
    if (w.name == kGateWorkload && !w.nodeGatePassed()) {
      nodeGatePassed = false;
      std::cerr << "FAIL: " << w.name << " peak-node reduction " << std::setprecision(2)
                << w.nodeReduction() << "x below the " << kNodeGate << "x gate\n";
    }
  }

  std::ofstream os("BENCH_approx.json");
  os << std::setprecision(6) << std::fixed;
  os << "{\n  \"bench\": \"approx_tradeoff\",\n"
     << "  \"workload\": \"Grover/GSE/BWT, exact eps=0 vs PerGate pruning vs unpruned eps=1e-10\",\n"
     << "  \"fidelityTarget\": " << kFidelityTarget << ",\n"
     << "  \"nodeGatePassed\": " << (nodeGatePassed ? "true" : "false") << ",\n"
     << "  \"fidelityGatePassed\": " << (fidelityGatePassed ? "true" : "false") << ",\n"
     << "  \"workloads\": " << workloads.size() << ",\n"
     << "  \"series\": {\n";
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    emitWorkload(os, workloads[i], i + 1 == workloads.size());
  }
  os << "  }\n}\n";
  std::cout << "report written to BENCH_approx.json\n";

  if (!nodeGatePassed || !fidelityGatePassed) {
    return 1;
  }
  std::cout << "approximation gates passed (grover >= " << kNodeGate << "x, fidelity >= "
            << kFidelityTarget << ")\n";
  return 0;
}
