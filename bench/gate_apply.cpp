/// \file gate_apply.cpp
/// Gate-application series for skip-level matrix DDs: applies H, T and CX
/// gate towers to an n-qubit register for n in {8, 16, 32, 64, 96} and
/// writes BENCH_skip.json with the per-gate apply time and the matrix nodes
/// each tower interns.
///
/// Enforced gate (exit 1 on failure): matrix nodes per gate are independent
/// of the register width — for every family, skipMatrixNodes / gates at each
/// width equals its value at n = 64 (1 for H and T, 4 for CX).  A gate that
/// materialized its identity tower would grow with n instead.
///
///   ./gate_apply [reps] [--help]   (default: 5 timing repetitions)
#include "core/package.hpp"
#include "eval/driver_cli.hpp"
#include "qc/circuit.hpp"
#include "qc/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

namespace {

using namespace qadd;
using Clock = std::chrono::steady_clock;
using Pkg = dd::Package<dd::NumericSystem>;

constexpr qc::Qubit kWidths[] = {8, 16, 32, 64, 96};
constexpr std::size_t kGateIndex = 3;                ///< the node gate's reference width
constexpr qc::Qubit kGateWidth = kWidths[kGateIndex]; ///< n = 64
const char* const kFamilies[] = {"H", "T", "CX"};

std::vector<qc::Operation> towerOps(const std::string& family, qc::Qubit n) {
  std::vector<qc::Operation> ops;
  if (family == "CX") {
    for (qc::Qubit q = 0; q + 1 < n; ++q) {
      ops.push_back({qc::GateKind::X, 0.0, static_cast<qc::Qubit>(q + 1), {{q, true}}});
    }
  } else {
    const qc::GateKind kind = family == "H" ? qc::GateKind::H : qc::GateKind::T;
    for (qc::Qubit q = 0; q < n; ++q) {
      ops.push_back({kind, 0.0, q, {}});
    }
  }
  return ops;
}

struct Sample {
  double microsPerGate = std::numeric_limits<double>::infinity();
  std::size_t matrixNodes = 0; ///< distinct matrix nodes the tower interned
  std::size_t gates = 0;
};

/// One (family, width) point: fresh package per repetition (cold
/// unique/computed tables — the end-to-end circuit-simulation pattern, where
/// every gate is built and applied once), min-of-reps timing.
Sample runTower(const std::string& family, qc::Qubit n, std::size_t reps) {
  Sample sample;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    Pkg package(n, {0.0, dd::NumericSystem::Normalization::LeftmostNonzero});
    auto state = package.makeZeroState();
    if (family != "H") {
      // T and CX act trivially on |0..0>; prepare the uniform superposition
      // first (untimed) so the timed applies do real work.
      for (const qc::Operation& op : towerOps("H", n)) {
        state = package.multiply(qc::makeOperationDD(package, op), state);
      }
    }
    const std::size_t nodesBefore = package.stats().mUnique.entries;
    const std::vector<qc::Operation> ops = towerOps(family, n);
    const auto start = Clock::now();
    for (const qc::Operation& op : ops) {
      state = package.multiply(qc::makeOperationDD(package, op), state);
    }
    const double seconds = std::chrono::duration<double>(Clock::now() - start).count();
    sample.microsPerGate =
        std::min(sample.microsPerGate, seconds * 1e6 / static_cast<double>(ops.size()));
    sample.matrixNodes = package.stats().mUnique.entries - nodesBefore;
    sample.gates = ops.size();
  }
  return sample;
}

void emitPoint(std::ofstream& os, qc::Qubit n, const Sample& sample, bool last) {
  os << "      \"n" << n << "\": {\n"
     << "        \"qubits\": " << n << ",\n"
     << "        \"gates\": " << sample.gates << ",\n"
     << "        \"skipMicrosPerGate\": " << sample.microsPerGate << ",\n"
     << "        \"skipMatrixNodes\": " << sample.matrixNodes << "\n"
     << "      }" << (last ? "\n" : ",\n");
}

} // namespace

int main(int argc, char** argv) {
  const eval::DriverSpec spec{"gate_apply",
                              "BENCH_skip.json: skip-level matrix gate application.",
                              {{"reps", 5, "timing repetitions per point"}},
                              false};
  const eval::DriverCli cli = eval::parseDriverCli(argc, argv, spec);
  const auto reps = static_cast<std::size_t>(cli.positionals[0]);

  std::cout << "== gate_apply: H/T/CX towers, exact numeric ==\n";
  (void)runTower("H", 8, 1); // warm-up: page cache, lazy allocations
  std::vector<std::vector<Sample>> all; // [family][width]
  for (const char* family : kFamilies) {
    std::vector<Sample> samples;
    for (const qc::Qubit n : kWidths) {
      samples.push_back(runTower(family, n, reps));
      std::cout << std::fixed << std::setprecision(2) << family << " n=" << n << ": "
                << samples.back().microsPerGate << " us/gate, " << samples.back().matrixNodes
                << " matrix nodes for " << samples.back().gates << " gates\n";
    }
    all.push_back(std::move(samples));
  }

  // Node gate: nodes per gate must not depend on the register width.  The
  // ratio is structural and machine-independent, so it is compared exactly
  // (cross-multiplied) against the reference width.
  bool nodeGatePassed = true;
  for (std::size_t f = 0; f < std::size(kFamilies); ++f) {
    const Sample& ref = all[f][kGateIndex];
    for (std::size_t i = 0; i < std::size(kWidths); ++i) {
      const Sample& sample = all[f][i];
      if (sample.matrixNodes * ref.gates != ref.matrixNodes * sample.gates) {
        nodeGatePassed = false;
        std::cerr << "FAIL: " << kFamilies[f] << " at n=" << kWidths[i] << " interns "
                  << sample.matrixNodes << " matrix nodes for " << sample.gates
                  << " gates; at n=" << kGateWidth << " it is " << ref.matrixNodes << " for "
                  << ref.gates << "\n";
      }
    }
  }

  std::ofstream os("BENCH_skip.json");
  os << std::setprecision(6) << std::fixed;
  os << "{\n  \"bench\": \"gate_apply\",\n"
     << "  \"workload\": \"H/T/CX gate towers, exact numeric (eps=0)\",\n"
     << "  \"gateQubits\": " << kGateWidth << ",\n"
     << "  \"nodeGatePassed\": " << (nodeGatePassed ? "true" : "false") << ",\n"
     << "  \"series\": {\n";
  for (std::size_t f = 0; f < std::size(kFamilies); ++f) {
    os << "    \"" << kFamilies[f] << "\": {\n";
    for (std::size_t i = 0; i < all[f].size(); ++i) {
      emitPoint(os, kWidths[i], all[f][i], i + 1 == all[f].size());
    }
    os << "    }" << (f + 1 == std::size(kFamilies) ? "\n" : ",\n");
  }
  os << "  }\n}\n";
  std::cout << "report written to BENCH_skip.json\n";

  if (!nodeGatePassed) {
    return 1;
  }
  std::cout << "node gate passed: matrix nodes per gate independent of n\n";
  return 0;
}
