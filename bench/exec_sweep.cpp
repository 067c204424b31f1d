/// \file exec_sweep.cpp
/// Before/after series for the parallel ε-sweep executor (qadd::exec): runs
/// the Fig. 3 numeric tolerance portion — the six ε simulations, each in its
/// own thread-confined package — serially (`--jobs 1`, the pre-exec code
/// path) and on a worker pool, three times each in alternation after a
/// warm-up, and writes BENCH_exec.json with the best wall-clock of each side
/// plus the speedup.  The per-trace value series are checked identical
/// between every serial/parallel pair before the report is written, so the
/// speedup is never bought with a divergent result.  With at least 4
/// workers on a host with at least 4 hardware threads the run fails below a
/// 1.8x speedup; the outcome is reported as `speedupGatePassed` either way.
///
///   ./exec_sweep [nqubits] [--jobs N] [--help]
///                             (default: 9 qubits, QADD_JOBS/hardware jobs)
#include "algorithms/grover.hpp"
#include "eval/driver_cli.hpp"
#include "eval/sweep.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <thread>
#include <vector>

namespace {

using namespace qadd;

/// Minimum speedup of the 4-worker sweep over the serial one.
constexpr double kSpeedupGate = 1.8;
/// Timed serial/parallel pairs after the warm-up; each side reports its best.
constexpr int kTimedPairs = 3;

/// The integral value columns of one trace (writeCsv's gate, nodes, maxbits
/// and tablefill).
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

  // Warm-up run (page cache, lazy allocations), then kTimedPairs serial /
  // parallel pairs, alternating so a noisy stretch of a shared host hits
  // both sides; each side is timed by its fastest run (min-of-reps, as in
  // gate_apply), which filters scheduler noise out of the gated speedup.
  (void)eval::runSweep(sweep, nullptr);
  exec::ThreadPool pool(cli.jobs);
  double serialSeconds = std::numeric_limits<double>::infinity();
  double parallelSeconds = std::numeric_limits<double>::infinity();
  for (int pair = 0; pair < kTimedPairs; ++pair) {
    const eval::SweepResult serial = eval::runSweep(sweep, nullptr);
    const eval::SweepResult parallel = eval::runSweep(sweep, &pool);
    for (std::size_t i = 0; i < serial.traces.size(); ++i) {
      if (valueSeries(serial.traces[i]) != valueSeries(parallel.traces[i])) {
        std::cerr << "FAIL: value series of " << serial.traces[i].label
                  << " differ between --jobs 1 and --jobs " << cli.jobs << "\n";
        return 1;
      }
    }
    serialSeconds = std::min(serialSeconds, serial.numericSweepSeconds);
    parallelSeconds = std::min(parallelSeconds, parallel.numericSweepSeconds);
  }

  const double speedup = parallelSeconds > 0.0 ? serialSeconds / parallelSeconds : 0.0;
  std::cout << std::fixed << std::setprecision(3) << "jobs=1: " << serialSeconds << " s\njobs="
            << cli.jobs << ": " << parallelSeconds << " s (best of " << kTimedPairs
            << ")\nspeedup: " << std::setprecision(2) << speedup
            << "x (value series identical)\n";
  const bool speedupGatePassed = speedup >= kSpeedupGate;

  std::ofstream os("BENCH_exec.json");
  os << std::setprecision(6) << std::fixed;
  os << "{\n  \"bench\": \"exec_sweep\",\n  \"workload\": \"fig3 numeric epsilon sweep\",\n"
     << "  \"qubits\": " << nqubits << ",\n  \"gates\": " << circuit.size()
     << ",\n  \"epsilonRuns\": " << sweep.points.size() << ",\n  \"workers\": " << cli.jobs
     << ",\n  \"speedupGatePassed\": " << (speedupGatePassed ? "true" : "false")
     << ",\n  \"series\": {\n    \"numericSweep\": {\n      \"jobs1Seconds\": "
     << serialSeconds << ",\n      \"jobsNSeconds\": " << parallelSeconds
     << ",\n      \"speedup\": " << speedup << ",\n      \"identicalValueSeries\": true\n    }\n"
     << "  }\n}\n";
  std::cout << "report written to BENCH_exec.json\n";

  const unsigned hardware = std::thread::hardware_concurrency();
  if (cli.jobs >= 4 && hardware >= 4 && !speedupGatePassed) {
    std::cerr << "FAIL: " << cli.jobs << "-worker sweep speedup " << std::setprecision(2)
              << speedup << "x is below the " << kSpeedupGate << "x gate (" << hardware
              << " hardware threads)\n";
    return 1;
  }
  return 0;
}
