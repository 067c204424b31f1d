/// \file fig4_bwt.cpp
/// Regenerates Fig. 4 of the paper: the Binary-Welded-Tree quantum walk
/// (graph exploration, all gates exactly representable) under the epsilon
/// sweep and the algebraic representation; size / accuracy / run-time.
/// Expected shape: as for Grover — the walk state has genuine structure that
/// tight-eps numerics shatters, mid eps preserves, large eps destroys.
///
///   ./fig4_bwt [depth] [steps] [--jobs N] [--stats] [--trace-json <path>]
///              [--help]
/// Writes fig4_bwt.csv.  The six numeric runs fan out across --jobs workers.
#include "algorithms/bwt.hpp"
#include "eval/driver_cli.hpp"
#include "eval/report.hpp"
#include "eval/sweep.hpp"

#include <fstream>
#include <iostream>

int main(int argc, char** argv) {
  using namespace qadd;

  const eval::DriverSpec spec{
      "fig4_bwt",
      "Fig. 4: Binary-Welded-Tree walk under the numeric ε sweep vs the algebraic QMDD.",
      {{"depth", 4, "welded-tree depth"}, {"steps", 8, "walk steps"}},
      false};
  const eval::DriverCli cli = eval::parseDriverCli(argc, argv, spec);
  algos::BwtOptions options;
  options.depth = static_cast<unsigned>(cli.positionals[0]);
  options.steps = static_cast<unsigned>(cli.positionals[1]);
  const qc::Circuit circuit = algos::bwt(options);
  std::cout << "== Fig. 4: BWT walk, depth " << options.depth << " (" << circuit.qubits()
            << " qubits), " << options.steps << " steps, " << circuit.size() << " gates ==\n";

  eval::SweepSpec sweep(circuit);
  sweep.options.sampleEvery = std::max<std::size_t>(1, circuit.size() / 60);
  cli.obs.applyTo(sweep.options);
  sweep.reference = eval::ReferencePolicy::Inline;
  for (const double epsilon : {0.0, 1e-20, 1e-15, 1e-10, 1e-5, 1e-3}) {
    sweep.addRun({epsilon});
  }
  sweep.applyApprox(cli.approx);

  const auto pool = cli.makePool();
  const eval::SweepResult result = eval::runSweep(sweep, pool.get());
  std::cout << "numeric sweep: " << sweep.points.size() << " runs on " << result.jobs
            << (result.jobs == 1 ? " worker in " : " workers in ") << result.numericSweepSeconds
            << " s\n";

  eval::printSummaryTable(std::cout, result.traces);
  eval::printAsciiChart(std::cout, "Fig. 4a: QMDD size (nodes)", result.traces,
                        eval::Series::Nodes, false);
  eval::printAsciiChart(std::cout, "Fig. 4b: accuracy error", result.traces, eval::Series::Error,
                        true);
  eval::printAsciiChart(std::cout, "Fig. 4c: run-time [s]", result.traces, eval::Series::Seconds,
                        false);

  std::ofstream csv("fig4_bwt.csv");
  eval::writeCsv(csv, result.traces);
  std::cout << "\nseries written to fig4_bwt.csv\n";
  eval::finishDriverCli(cli, std::cout, result);
  return 0;
}
