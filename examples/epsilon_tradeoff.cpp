/// \file epsilon_tradeoff.cpp
/// Interactive version of the paper's core experiment: sweep the tolerance
/// epsilon of the numerical QMDD over a Grover simulation and print, for each
/// value, the final diagram size and accuracy — side by side with the
/// algebraic representation, which needs no such knob.
///
///   ./epsilon_tradeoff [nqubits] [--jobs N] [--stats] [--trace-json <path>]
///                      [--help]
#include "algorithms/grover.hpp"
#include "eval/driver_cli.hpp"
#include "eval/report.hpp"
#include "eval/sweep.hpp"

#include <iostream>

int main(int argc, char** argv) {
  using namespace qadd;

  const eval::DriverSpec spec{
      "epsilon_tradeoff",
      "The paper's core trade-off: numeric ε sweep vs the knob-free algebraic QMDD.",
      {{"nqubits", 8, "circuit width"}},
      false};
  const eval::DriverCli cli = eval::parseDriverCli(argc, argv, spec);
  const auto nqubits = static_cast<qc::Qubit>(cli.positionals[0]);
  const qc::Circuit circuit = algos::grover({nqubits, (1ULL << nqubits) - 2, 0});
  std::cout << "Grover, " << nqubits << " qubits, " << circuit.size() << " gates\n";

  eval::SweepSpec sweep(circuit);
  sweep.options.sampleEvery = std::max<std::size_t>(1, circuit.size() / 40);
  cli.obs.applyTo(sweep.options);
  sweep.reference = eval::ReferencePolicy::Inline;
  for (const double epsilon : {0.0, 1e-15, 1e-10, 1e-5, 1e-2}) {
    sweep.addRun({epsilon});
  }
  sweep.applyApprox(cli.approx);

  const auto pool = cli.makePool();
  const eval::SweepResult result = eval::runSweep(sweep, pool.get());

  eval::printSummaryTable(std::cout, result.traces);
  eval::printAsciiChart(std::cout, "state DD size over the simulation", result.traces,
                        eval::Series::Nodes, false);
  eval::printAsciiChart(std::cout, "accuracy error (numeric flavors)", result.traces,
                        eval::Series::Error, true);
  std::cout << "\nReading the table: eps = 0 is accurate but bloated; large eps is\n"
               "compact but wrong (down to a zero vector); the algebraic diagram is\n"
               "compact AND exact — the trade-off is gone (paper, Sections III & V).\n";
  eval::finishDriverCli(cli, std::cout, result);
  return 0;
}
