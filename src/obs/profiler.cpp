#include "obs/profiler.hpp"

#include "core/export.hpp"
#include "io/snapshot.hpp"

#include <iomanip>
#include <ostream>

namespace qadd::obs {

DdProfile profileSnapshot(std::span<const std::uint8_t> bytes) {
  return io::withMatchingPackage(bytes, [&](auto& package, const io::SnapshotInfo& info) {
    if (info.kind == io::DdKind::Vector) {
      return profileDd(package, io::loadVector(package, bytes));
    }
    return profileDd(package, io::loadMatrix(package, bytes));
  });
}

std::string snapshotToDot(std::span<const std::uint8_t> bytes) {
  return io::withMatchingPackage(bytes, [&](auto& package, const io::SnapshotInfo& info) {
    if (info.kind == io::DdKind::Vector) {
      return dd::toDot(package, io::loadVector(package, bytes));
    }
    return dd::toDot(package, io::loadMatrix(package, bytes));
  });
}

namespace {

void writeHistogram(std::ostream& os, const std::vector<std::uint64_t>& histogram) {
  os << "[";
  for (std::size_t i = 0; i < histogram.size(); ++i) {
    os << (i == 0 ? "" : ",") << histogram[i];
  }
  os << "]";
}

} // namespace

void writeProfileJson(std::ostream& os, const DdProfile& profile) {
  os << std::setprecision(12);
  os << "{\"system\":\"" << profile.system << "\",\"kind\":\"" << profile.kind
     << "\",\"qubits\":" << profile.qubits << ",\"totalNodes\":" << profile.totalNodes
     << ",\"totalEdges\":" << profile.totalEdges
     << ",\"distinctEdgeWeights\":" << profile.distinctEdgeWeights
     << ",\"weightHistogramKind\":\"" << profile.weightHistogramKind << "\",\"levels\":[";
  for (std::size_t k = 0; k < profile.levels.size(); ++k) {
    const LevelProfile& level = profile.levels[k];
    os << (k == 0 ? "" : ",") << "\n{\"level\":" << k << ",\"nodes\":" << level.nodes
       << ",\"edges\":" << level.edges << ",\"edgesToTerminal\":" << level.edgesToTerminal
       << ",\"zeroEdges\":" << level.zeroEdges << ",\"incomingEdges\":" << level.incomingEdges
       << ",\"skippedBy\":" << level.skippedBy << ",\"fanOut\":" << level.fanOut()
       << ",\"sharing\":" << level.sharing() << ",\"weightHistogram\":";
    writeHistogram(os, level.weightHistogram);
    os << "}";
  }
  os << "\n]}\n";
}

void printProfileTable(std::ostream& os, const DdProfile& profile) {
  os << "-- DD profile: " << profile.kind << ", " << profile.qubits << " qubits ["
     << profile.system << "] --\n";
  os << profile.totalNodes << " nodes, " << profile.totalEdges << " edges, "
     << profile.distinctEdgeWeights << " distinct edge weights\n";
  os << std::left << std::setw(7) << "level" << std::right << std::setw(8) << "nodes"
     << std::setw(8) << "edges" << std::setw(8) << "->term" << std::setw(8) << "zero"
     << std::setw(9) << "skipped" << std::setw(9) << "fan-out" << std::setw(9) << "sharing"
     << "  "
     << (profile.weightHistogramKind == "bits" ? "weight bits" : "weight magnitude bands")
     << "\n";
  for (std::size_t k = 0; k < profile.levels.size(); ++k) {
    const LevelProfile& level = profile.levels[k];
    os << std::left << std::setw(7) << k << std::right << std::setw(8) << level.nodes
       << std::setw(8) << level.edges << std::setw(8) << level.edgesToTerminal << std::setw(8)
       << level.zeroEdges << std::setw(9) << level.skippedBy << std::setw(9) << std::fixed
       << std::setprecision(2) << level.fanOut() << std::setw(9) << level.sharing() << "  ";
    os.unsetf(std::ios::floatfield);
    bool any = false;
    for (std::size_t b = 0; b < level.weightHistogram.size(); ++b) {
      if (level.weightHistogram[b] != 0) {
        os << (profile.weightHistogramKind == "bits" ? "" : "2^-") << b << ":"
           << level.weightHistogram[b] << (profile.weightHistogramKind == "bits" ? "b " : " ");
        any = true;
      }
    }
    if (!any) {
      os << "-";
    }
    os << "\n";
  }
}

} // namespace qadd::obs
