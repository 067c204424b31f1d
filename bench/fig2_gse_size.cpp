/// \file fig2_gse_size.cpp
/// Regenerates Fig. 2 of the paper: the size of the numeric QMDD while
/// simulating the GSE algorithm for different tolerance values, including the
/// two extremes the paper highlights in bold — eps = 0 (largest, most
/// precise) and eps = 1e-3 (collapses to an all-zero vector: perfectly
/// compact, completely wrong).
///
///   ./fig2_gse_size [systemQubits] [precisionQubits] [--jobs N] [--stats]
///                   [--trace-json <path>] [--help]
/// Writes fig2_gse_size.csv.  The five tolerance runs fan out across --jobs
/// workers; Fig. 2 studies sizes only, so no algebraic reference is run.
#include "algorithms/gse.hpp"
#include "eval/driver_cli.hpp"
#include "eval/report.hpp"
#include "eval/sweep.hpp"

#include <cmath>
#include <fstream>
#include <iostream>

int main(int argc, char** argv) {
  using namespace qadd;

  const eval::DriverSpec spec{
      "fig2_gse_size",
      "Fig. 2: numeric QMDD size while simulating GSE across tolerance values.",
      {{"systemQubits", 3, "Ising system register width"},
       {"precisionQubits", 6, "phase-estimation ancilla width"}},
      false};
  const eval::DriverCli cli = eval::parseDriverCli(argc, argv, spec);
  algos::GseOptions options;
  options.systemQubits = static_cast<unsigned>(cli.positionals[0]);
  options.precisionQubits = static_cast<unsigned>(cli.positionals[1]);
  // Place the eigenphase a hair (3e-5) off a grid point of the ancilla
  // register: the exact post-QFT state then carries small-but-real leakage
  // tails.  Tight eps must represent them (dense diagram); eps >= the tail
  // magnitude merges them away — compact, information lost, and at 1e-3 the
  // cascade zeroes the entire vector (the paper's bold worst case).
  const algos::IsingHamiltonian hamiltonian = algos::makeMolecularInstance(options.systemQubits);
  const double energy = hamiltonian.eigenvalue(options.eigenstate);
  const double targetPhase = 5.0 / std::ldexp(1.0, static_cast<int>(options.precisionQubits)) + 3e-5;
  options.evolutionTime = -2.0 * M_PI * targetPhase / energy;
  const qc::Circuit circuit = algos::gse(options, {4, 1});
  std::cout << "== Fig. 2: GSE (Clifford+T approximated), "
            << options.systemQubits + options.precisionQubits << " qubits, " << circuit.size()
            << " gates, T-count " << circuit.tCount() << " ==\n";

  eval::SweepSpec sweep(circuit);
  sweep.options.sampleEvery = std::max<std::size_t>(1, circuit.size() / 60);
  cli.obs.applyTo(sweep.options);
  sweep.reference = eval::ReferencePolicy::None;
  for (const double epsilon : {0.0, 1e-10, 1e-6, 1e-4, 1e-3}) {
    sweep.addRun({epsilon});
  }
  sweep.applyApprox(cli.approx);

  const auto pool = cli.makePool();
  const eval::SweepResult result = eval::runSweep(sweep, pool.get());
  std::cout << "numeric sweep: " << sweep.points.size() << " runs on " << result.jobs
            << (result.jobs == 1 ? " worker in " : " workers in ") << result.numericSweepSeconds
            << " s\n";

  eval::printSummaryTable(std::cout, result.traces);
  eval::printAsciiChart(std::cout, "Fig. 2: QMDD size while simulating GSE", result.traces,
                        eval::Series::Nodes, false);
  for (const auto& trace : result.traces) {
    if (trace.collapsedToZero) {
      std::cout << "NOTE: " << trace.label
                << " collapsed to the all-zero vector (the paper's bold worst case).\n";
    }
  }

  std::ofstream csv("fig2_gse_size.csv");
  eval::writeCsv(csv, result.traces);
  std::cout << "\nseries written to fig2_gse_size.csv\n";
  eval::finishDriverCli(cli, std::cout, result);
  return 0;
}
