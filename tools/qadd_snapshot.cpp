/// \file qadd_snapshot.cpp
/// Command-line inspector and profiler for QDDS snapshots and QCKP
/// checkpoints:
///
///   qadd_snapshot info <file>                  header + meta (works on .qckp too)
///   qadd_snapshot verify <file>                full CRC + rebuild check
///   qadd_snapshot diff <a> <b>                 exact root comparison (exit 1 if different)
///   qadd_snapshot convert <in> <out> [eps]     algebraic -> numeric(double, eps) snapshot
///   qadd_snapshot write-sample <out> [qubits]  GHZ sample snapshot (CI artifact)
///   qadd_snapshot profile <file> [--json]      per-level node/edge/sharing table
///                                              (or the JSON object with --json)
///   qadd_snapshot dot <file> [--max-nodes N]   Graphviz DOT on stdout (refuses
///                                              diagrams above N nodes, default
///                                              256 — DOT is for small DDs)
///   qadd_snapshot metrics <file>               load into a matching package and
///                                              render its telemetry in Prometheus
///                                              text format
///
/// Checkpoints are unwrapped to their embedded state snapshot everywhere.
/// Exit codes: 0 success/identical, 1 diff found, 2 usage error (or a DOT
/// request above --max-nodes), 3 bad file.
#include "io/checkpoint.hpp"
#include "io/snapshot.hpp"
#include "obs/exposition.hpp"
#include "obs/profiler.hpp"
#include "qc/circuit.hpp"
#include "qc/simulator.hpp"

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

namespace {

using namespace qadd;

/// Read a file and unwrap a checkpoint to its embedded QDDS blob.
std::vector<std::uint8_t> snapshotBytes(const std::string& path) {
  return io::snapshotOf(io::readBytesFile(path));
}

/// Load the snapshot's DD (either kind) into `package`; returns the node
/// count of the rebuilt diagram.
template <class System>
std::size_t loadAndCount(dd::Package<System>& package, const std::vector<std::uint8_t>& bytes,
                         io::DdKind kind) {
  if (kind == io::DdKind::Vector) {
    const auto root = io::loadVector(package, bytes);
    return package.countNodes(root);
  }
  const auto root = io::loadMatrix(package, bytes);
  return package.countNodes(root);
}

int cmdInfo(const std::string& path) {
  std::vector<std::uint8_t> bytes = io::readBytesFile(path);
  std::cout << path << ": ";
  if (io::isCheckpoint(bytes)) {
    const io::CheckpointData checkpoint = io::readCheckpoint(bytes);
    const std::string& text = checkpoint.circuitText;
    std::cout << "QCKP checkpoint at gate " << checkpoint.gateIndex << " of circuit \""
              << text.substr(0, text.find('\n')) << "\" (" << bytes.size() << " bytes)\n";
    std::cout << "  embedded state: " << io::readInfo(checkpoint.snapshot).describe() << "\n";
    return 0;
  }
  std::cout << io::readInfo(bytes).describe() << "\n";
  return 0;
}

int cmdVerify(const std::string& path) {
  const std::vector<std::uint8_t> bytes = snapshotBytes(path);
  return io::withMatchingPackage(bytes, [&](auto& package, const io::SnapshotInfo& info) {
    const std::size_t rebuilt = loadAndCount(package, bytes, info.kind);
    std::cout << path << ": OK — " << info.describe() << "\n";
    std::cout << "  rebuilt canonical DD has " << rebuilt << " nodes ("
              << package.counters().io.loadDedupNodes.value() << " deduped on load)\n";
    if (rebuilt != info.nodeCount) {
      // A fresh package must reproduce the stored node count exactly; a
      // difference means the snapshot was not canonical for this system.
      std::cout << "  WARNING: stored node count is " << info.nodeCount
                << " (snapshot not canonical under this configuration)\n";
      return 1;
    }
    return 0;
  });
}

int cmdDiff(const std::string& pathA, const std::string& pathB) {
  const std::vector<std::uint8_t> bytesA = snapshotBytes(pathA);
  const std::vector<std::uint8_t> bytesB = snapshotBytes(pathB);
  const io::SnapshotInfo infoA = io::readInfo(bytesA);
  const io::SnapshotInfo infoB = io::readInfo(bytesB);
  if (infoA.kind != infoB.kind || infoA.system != infoB.system ||
      infoA.qubits != infoB.qubits || infoA.epsilon != infoB.epsilon ||
      infoA.floatDigits != infoB.floatDigits) {
    std::cout << "different (incomparable meta):\n  " << infoA.describe() << "\n  "
              << infoB.describe() << "\n";
    return 1;
  }
  // Load both into ONE package: canonicity makes equality a root comparison.
  return io::withMatchingPackage(bytesA, [&](auto& package, const io::SnapshotInfo& info) {
    if (info.kind == io::DdKind::Vector) {
      const auto rootA = io::loadVector(package, bytesA);
      package.incRef(rootA);
      const auto rootB = io::loadVector(package, bytesB);
      if (rootA == rootB) {
        std::cout << "identical (" << package.countNodes(rootA) << " shared nodes)\n";
        return 0;
      }
      const double fidelity = package.fidelity(rootA, rootB);
      std::cout << "different: |<a|b>|^2 = " << fidelity << ", " << package.countNodes(rootA)
                << " vs " << package.countNodes(rootB) << " nodes\n";
      return 1;
    }
    const auto rootA = io::loadMatrix(package, bytesA);
    package.incRef(rootA);
    const auto rootB = io::loadMatrix(package, bytesB);
    if (rootA == rootB) {
      std::cout << "identical (" << package.countNodes(rootA) << " shared nodes)\n";
      return 0;
    }
    std::cout << "different: " << package.countNodes(rootA) << " vs " << package.countNodes(rootB)
              << " nodes\n";
    return 1;
  });
}

int cmdConvert(const std::string& inPath, const std::string& outPath, double epsilon) {
  const std::vector<std::uint8_t> bytes = snapshotBytes(inPath);
  const io::SnapshotInfo info = io::readInfo(bytes);
  if (info.system != io::SystemTag::Algebraic) {
    std::cerr << "qadd_snapshot: convert expects an algebraic snapshot (numeric -> algebraic "
                 "would fabricate exactness)\n";
    return 2;
  }
  dd::AlgebraicSystem::Config algConfig;
  algConfig.normalization = static_cast<dd::AlgebraicSystem::Normalization>(info.normalization);
  dd::Package<dd::AlgebraicSystem> algebraic(info.qubits, algConfig);
  dd::NumericSystem::Config numConfig;
  numConfig.epsilon = epsilon;
  dd::Package<dd::NumericSystem> numeric(info.qubits, numConfig);
  std::vector<std::uint8_t> converted;
  if (info.kind == io::DdKind::Vector) {
    const auto algRoot = io::loadVector(algebraic, bytes);
    const auto numRoot = io::convertVector(algebraic, algRoot, numeric);
    converted = io::saveVector(numeric, numRoot);
  } else {
    const auto algRoot = io::loadMatrix(algebraic, bytes);
    const auto numRoot = io::convertMatrix(algebraic, algRoot, numeric);
    converted = io::saveMatrix(numeric, numRoot);
  }
  io::writeBytesFile(outPath, converted);
  std::cout << outPath << ": " << io::readInfo(converted).describe() << "\n";
  return 0;
}

int cmdWriteSample(const std::string& outPath, qc::Qubit nqubits) {
  // GHZ state: exactly representable, nontrivial weights (1/sqrt2^?), shares
  // structure — a good wire-format probe.
  qc::Circuit circuit(nqubits, "ghz");
  circuit.h(0);
  for (qc::Qubit q = 1; q < nqubits; ++q) {
    circuit.cx(q - 1, q);
  }
  qc::Simulator<dd::AlgebraicSystem> simulator(circuit);
  simulator.run();
  const std::vector<std::uint8_t> bytes =
      io::saveVector(simulator.package(), simulator.state());
  io::writeBytesFile(outPath, bytes);
  std::cout << outPath << ": " << io::readInfo(bytes).describe() << "\n";
  return 0;
}

int cmdProfile(const std::string& path, bool json) {
  const std::vector<std::uint8_t> bytes = snapshotBytes(path);
  const obs::DdProfile profile = obs::profileSnapshot(bytes);
  if (json) {
    obs::writeProfileJson(std::cout, profile);
  } else {
    std::cout << path << ": " << io::readInfo(bytes).describe() << "\n";
    obs::printProfileTable(std::cout, profile);
  }
  return 0;
}

int cmdDot(const std::string& path, std::size_t maxNodes) {
  const std::vector<std::uint8_t> bytes = snapshotBytes(path);
  const io::SnapshotInfo info = io::readInfo(bytes);
  if (info.nodeCount > maxNodes) {
    std::cerr << "qadd_snapshot: " << path << " has " << info.nodeCount
              << " nodes; refusing to render DOT above " << maxNodes
              << " (raise with --max-nodes)\n";
    return 2;
  }
  std::cout << obs::snapshotToDot(bytes);
  return 0;
}

/// Load the snapshot into a fresh matching package and render that package's
/// telemetry (io counters, live nodes, weight-table view) in Prometheus text
/// format.
int cmdMetrics(const std::string& path) {
  const std::vector<std::uint8_t> bytes = snapshotBytes(path);
  return io::withMatchingPackage(bytes, [&](auto& package, const io::SnapshotInfo& info) {
    if (info.kind == io::DdKind::Vector) {
      (void)io::loadVector(package, bytes);
    } else {
      (void)io::loadMatrix(package, bytes);
    }
    obs::renderPrometheus(std::cout, package.stats());
    return 0;
  });
}

int usage() {
  std::cerr << "usage: qadd_snapshot info <file>\n"
               "       qadd_snapshot verify <file>\n"
               "       qadd_snapshot diff <a> <b>\n"
               "       qadd_snapshot convert <in.qdds> <out.qdds> [eps]\n"
               "       qadd_snapshot write-sample <out.qdds> [qubits]\n"
               "       qadd_snapshot profile <file> [--json]\n"
               "       qadd_snapshot dot <file> [--max-nodes N]\n"
               "       qadd_snapshot metrics <file>\n"
               "<file> may be a QCKP checkpoint wherever a QDDS snapshot is read.\n";
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  const std::string command = argv[1];
  try {
    if (command == "info" && argc == 3) {
      return cmdInfo(argv[2]);
    }
    if (command == "verify" && argc == 3) {
      return cmdVerify(argv[2]);
    }
    if (command == "diff" && argc == 4) {
      return cmdDiff(argv[2], argv[3]);
    }
    if (command == "convert" && (argc == 4 || argc == 5)) {
      return cmdConvert(argv[2], argv[3], argc == 5 ? std::atof(argv[4]) : 0.0);
    }
    if (command == "write-sample" && (argc == 3 || argc == 4)) {
      return cmdWriteSample(argv[2],
                            argc == 4 ? static_cast<qc::Qubit>(std::atoi(argv[3])) : 8);
    }
    const auto flagged = [&](int withFlag, const char* flag) {
      return argc == 3 || (argc == withFlag && std::strcmp(argv[3], flag) == 0);
    };
    if (command == "profile" && flagged(4, "--json")) {
      return cmdProfile(argv[2], argc == 4);
    }
    if (command == "dot" && flagged(5, "--max-nodes")) {
      return cmdDot(argv[2], argc == 5 ? std::strtoull(argv[4], nullptr, 10) : 256);
    }
    if (command == "metrics" && argc == 3) {
      return cmdMetrics(argv[2]);
    }
  } catch (const std::exception& error) {
    std::cerr << "qadd_snapshot: " << error.what() << "\n";
    return 3;
  }
  return usage();
}
