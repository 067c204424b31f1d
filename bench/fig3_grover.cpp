/// \file fig3_grover.cpp
/// Regenerates Fig. 3 of the paper: simulating Grover's algorithm under the
/// numerical QMDD for eps in {0, 1e-20, 1e-15, 1e-10, 1e-5, 1e-3} and under
/// the exact algebraic QMDD, reporting
///   (a) the per-gate size of the state diagram,
///   (b) the accuracy relative to the exact result,
///   (c) the accumulated simulation run-time.
/// Expected shape (who wins): tight eps (0 / 1e-20) is accurate but blows the
/// diagram up; mid eps is compact and accurate; large eps is compact but
/// wrong; the algebraic diagram is compact AND exact at a modest constant
/// run-time overhead versus the best-tuned numeric run.
///
///   ./fig3_grover [nqubits] [--jobs N] [--stats] [--trace-json <path>]
///                 [--checkpoint-every K] [--refresh-reference] [--help]
/// Writes fig3_grover.csv next to the binary.  The exact algebraic reference
/// (the expensive part of the sweep) is cached in fig3_reference.qref and
/// reused on subsequent runs; the six numeric runs fan out across --jobs
/// workers (value columns of the CSV are identical for any worker count).
#include "algorithms/grover.hpp"
#include "eval/driver_cli.hpp"
#include "eval/report.hpp"
#include "eval/sweep.hpp"

#include <fstream>
#include <iostream>

int main(int argc, char** argv) {
  using namespace qadd;

  const eval::DriverSpec spec{
      "fig3_grover",
      "Fig. 3: Grover's algorithm under the numeric ε sweep vs the exact algebraic QMDD.",
      {{"nqubits", 10, "circuit width (the paper uses 15)"}},
      true};
  const eval::DriverCli cli = eval::parseDriverCli(argc, argv, spec);
  const auto nqubits = static_cast<qc::Qubit>(cli.positionals[0]);
  const qc::Circuit circuit = algos::grover({nqubits, (1ULL << nqubits) / 3, 0});
  std::cout << "== Fig. 3: Grover's algorithm, " << nqubits << " qubits, " << circuit.size()
            << " gates ==\n";

  eval::SweepSpec sweep(circuit);
  sweep.options.sampleEvery = std::max<std::size_t>(1, circuit.size() / 60);
  cli.obs.applyTo(sweep.options);
  sweep.reference = eval::ReferencePolicy::Cached;
  sweep.referenceCachePath = "fig3_reference.qref";
  sweep.refreshReference = cli.obs.refreshReference;
  for (const double epsilon : {0.0, 1e-20, 1e-15, 1e-10, 1e-5, 1e-3}) {
    sweep.addRun({epsilon});
  }
  sweep.applyApprox(cli.approx); // --approx-fidelity adds the third axis per point

  const auto pool = cli.makePool();
  const eval::SweepResult result = eval::runSweep(sweep, pool.get());
  std::cout << (result.referenceFromCache
                    ? "algebraic reference loaded from fig3_reference.qref in "
                    : "algebraic reference computed and cached in ")
            << result.referenceCacheSeconds << " s\n";
  std::cout << "numeric sweep: " << sweep.points.size() << " runs on " << result.jobs
            << (result.jobs == 1 ? " worker in " : " workers in ") << result.numericSweepSeconds
            << " s\n";

  eval::printSummaryTable(std::cout, result.traces);
  eval::printAsciiChart(std::cout, "Fig. 3a: QMDD size (nodes)", result.traces,
                        eval::Series::Nodes, false);
  eval::printAsciiChart(std::cout, "Fig. 3b: accuracy error", result.traces, eval::Series::Error,
                        true);
  eval::printAsciiChart(std::cout, "Fig. 3c: run-time [s]", result.traces, eval::Series::Seconds,
                        false);

  std::ofstream csv("fig3_grover.csv");
  eval::writeCsv(csv, result.traces);
  std::cout << "\nseries written to fig3_grover.csv\n";
  eval::finishDriverCli(cli, std::cout, result);
  return 0;
}
