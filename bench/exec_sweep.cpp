/// \file exec_sweep.cpp
/// Before/after series for the parallel ε-sweep executor (qadd::exec): runs
/// the Fig. 3 numeric tolerance portion — the six ε simulations, each in its
/// own thread-confined package — once serially (`--jobs 1`, the pre-exec
/// code path) and once on a worker pool, and writes BENCH_exec.json with the
/// wall-clock of both plus the speedup.  The per-trace value series are
/// checked identical between the two runs before the report is written, so
/// the speedup is never bought with a divergent result.
///
///   ./exec_sweep [nqubits] [--jobs N] [--help]
///                             (default: 9 qubits, QADD_JOBS/hardware jobs)
#include "algorithms/grover.hpp"
#include "eval/driver_cli.hpp"
#include "eval/sweep.hpp"

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <vector>

namespace {

using namespace qadd;

/// The value columns of one trace (everything writeCsv emits except the
/// wall-clock `seconds` and the address-sensitive `cachehitrate`).
std::vector<std::size_t> valueSeries(const eval::SimulationTrace& trace) {
  std::vector<std::size_t> values;
  values.reserve(trace.points.size() * 4);
  for (const eval::TracePoint& point : trace.points) {
    values.push_back(point.gateIndex);
    values.push_back(point.nodes);
    values.push_back(point.maxBits);
    values.push_back(point.tableFill);
  }
  return values;
}

} // namespace

int main(int argc, char** argv) {
  const eval::DriverSpec spec{
      "exec_sweep",
      "BENCH_exec.json: serial vs parallel wall-clock of the Fig. 3 numeric ε sweep.",
      {{"nqubits", 9, "Grover circuit width"}},
      false};
  const eval::DriverCli cli = eval::parseDriverCli(argc, argv, spec);
  const auto nqubits = static_cast<qc::Qubit>(cli.positionals[0]);
  const qc::Circuit circuit = algos::grover({nqubits, (1ULL << nqubits) / 3, 0});

  eval::SweepSpec sweep(circuit);
  sweep.options.sampleEvery = std::max<std::size_t>(1, circuit.size() / 60);
  sweep.reference = eval::ReferencePolicy::None; // time the numeric portion only
  for (const double epsilon : {0.0, 1e-20, 1e-15, 1e-10, 1e-5, 1e-3}) {
    sweep.addRun({epsilon});
  }
  sweep.applyApprox(cli.approx);

  std::cout << "== exec_sweep: Fig. 3 numeric portion, " << nqubits << " qubits, "
            << circuit.size() << " gates, " << sweep.points.size() << " tolerance runs ==\n";

  // Warm-up run (page cache, lazy allocations), then the measured pair.
  (void)eval::runSweep(sweep, nullptr);
  const eval::SweepResult serial = eval::runSweep(sweep, nullptr);
  exec::ThreadPool pool(cli.jobs);
  const eval::SweepResult parallel = eval::runSweep(sweep, &pool);

  for (std::size_t i = 0; i < serial.traces.size(); ++i) {
    if (valueSeries(serial.traces[i]) != valueSeries(parallel.traces[i])) {
      std::cerr << "FAIL: value series of " << serial.traces[i].label
                << " differ between --jobs 1 and --jobs " << cli.jobs << "\n";
      return 1;
    }
  }

  const double speedup = parallel.numericSweepSeconds > 0.0
                             ? serial.numericSweepSeconds / parallel.numericSweepSeconds
                             : 0.0;
  std::cout << std::fixed << std::setprecision(3) << "jobs=1: " << serial.numericSweepSeconds
            << " s\njobs=" << cli.jobs << ": " << parallel.numericSweepSeconds << " s\nspeedup: "
            << std::setprecision(2) << speedup << "x (value series identical)\n";

  std::ofstream os("BENCH_exec.json");
  os << std::setprecision(6) << std::fixed;
  os << "{\n  \"bench\": \"exec_sweep\",\n  \"workload\": \"fig3 numeric epsilon sweep\",\n"
     << "  \"qubits\": " << nqubits << ",\n  \"gates\": " << circuit.size()
     << ",\n  \"epsilonRuns\": " << sweep.points.size() << ",\n  \"workers\": " << cli.jobs
     << ",\n  \"series\": {\n    \"numericSweep\": {\n      \"jobs1Seconds\": "
     << serial.numericSweepSeconds << ",\n      \"jobsNSeconds\": " << parallel.numericSweepSeconds
     << ",\n      \"speedup\": " << speedup << ",\n      \"identicalValueSeries\": true\n    }\n"
     << "  }\n}\n";
  std::cout << "report written to BENCH_exec.json\n";
  return 0;
}
