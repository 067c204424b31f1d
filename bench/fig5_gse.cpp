/// \file fig5_gse.cpp
/// Regenerates Fig. 5 of the paper: the GSE benchmark under the epsilon sweep
/// and the algebraic representation; size / accuracy / run-time, plus the
/// coefficient-bit-width series that explains the algebraic run-time blow-up
/// (Section V-B: GSE's Clifford+T approximation produces "generic" values
/// whose exact representation grows, while the numeric QMDD is insensitive
/// to the particular complex numbers involved).
/// Expected shape: the algebraic DD size tracks the tight-eps numeric sizes
/// (little redundancy to find), but its run-time grows disproportionally.
///
///   ./fig5_gse [systemQubits] [precisionQubits] [--jobs N] [--stats]
///              [--trace-json <path>] [--checkpoint-every K]
///              [--refresh-reference] [--help]
/// Writes fig5_gse.csv.  The exact algebraic reference is cached in
/// fig5_reference.qref and reused on subsequent runs of the same
/// configuration — for GSE the algebraic run dominates the sweep (Section
/// V-B's bit-width blow-up), so the cache saves the most here.  The six
/// numeric runs fan out across --jobs workers.
#include "algorithms/gse.hpp"
#include "eval/driver_cli.hpp"
#include "eval/report.hpp"
#include "eval/sweep.hpp"

#include <fstream>
#include <iostream>

int main(int argc, char** argv) {
  using namespace qadd;

  const eval::DriverSpec spec{
      "fig5_gse",
      "Fig. 5: GSE under the numeric ε sweep vs the exact algebraic QMDD (+ bit widths).",
      {{"systemQubits", 3, "Ising system register width"},
       {"precisionQubits", 4, "phase-estimation ancilla width"}},
      true};
  const eval::DriverCli cli = eval::parseDriverCli(argc, argv, spec);
  algos::GseOptions options;
  options.systemQubits = static_cast<unsigned>(cli.positionals[0]);
  options.precisionQubits = static_cast<unsigned>(cli.positionals[1]);
  const qc::Circuit circuit = algos::gse(options, {4, 1});
  std::cout << "== Fig. 5: GSE (Clifford+T approximated), "
            << options.systemQubits + options.precisionQubits << " qubits, " << circuit.size()
            << " gates, T-count " << circuit.tCount() << " ==\n";

  eval::SweepSpec sweep(circuit);
  sweep.options.sampleEvery = std::max<std::size_t>(1, circuit.size() / 60);
  cli.obs.applyTo(sweep.options);
  sweep.reference = eval::ReferencePolicy::Cached;
  sweep.referenceCachePath = "fig5_reference.qref";
  sweep.refreshReference = cli.obs.refreshReference;
  for (const double epsilon : {0.0, 1e-20, 1e-15, 1e-10, 1e-5, 1e-3}) {
    sweep.addRun({epsilon});
  }
  sweep.applyApprox(cli.approx);

  const auto pool = cli.makePool();
  const eval::SweepResult result = eval::runSweep(sweep, pool.get());
  std::cout << (result.referenceFromCache
                    ? "algebraic reference loaded from fig5_reference.qref in "
                    : "algebraic reference computed and cached in ")
            << result.referenceCacheSeconds << " s\n";
  std::cout << "numeric sweep: " << sweep.points.size() << " runs on " << result.jobs
            << (result.jobs == 1 ? " worker in " : " workers in ") << result.numericSweepSeconds
            << " s\n";

  eval::printSummaryTable(std::cout, result.traces);
  eval::printAsciiChart(std::cout, "Fig. 5a: QMDD size (nodes)", result.traces,
                        eval::Series::Nodes, false);
  eval::printAsciiChart(std::cout, "Fig. 5b: accuracy error", result.traces, eval::Series::Error,
                        true);
  eval::printAsciiChart(std::cout, "Fig. 5c: run-time [s]", result.traces, eval::Series::Seconds,
                        false);
  eval::printAsciiChart(std::cout, "coefficient bit width (the algebraic cost driver)",
                        {result.traces.front()}, eval::Series::MaxBits, false);

  std::ofstream csv("fig5_gse.csv");
  eval::writeCsv(csv, result.traces);
  std::cout << "\nseries written to fig5_gse.csv\n";
  eval::finishDriverCli(cli, std::cout, result);
  return 0;
}
