#include "eval/reference_cache.hpp"

#include "io/codec.hpp"
#include "io/snapshot.hpp"

#include <chrono>
#include <fstream>
#include <utility>

namespace qadd::eval {

namespace {

constexpr std::array<std::uint8_t, 4> kQrefMagic{'Q', 'R', 'E', 'F'};
constexpr std::uint16_t kQrefVersion = 1;

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint32_t circuitFingerprint(const qc::Circuit& circuit) {
  const std::string text = circuit.toText();
  return io::Crc32::of({reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
}

} // namespace

std::vector<std::uint8_t> encodeReference(const qc::Circuit& circuit, const TraceOptions& options,
                                          const SimulationTrace& trace,
                                          const ReferenceTrajectory& trajectory,
                                          std::span<const std::uint8_t> finalState) {
  io::ByteWriter writer;
  writer.raw(kQrefMagic);
  writer.u16(kQrefVersion);
  writer.u32(circuitFingerprint(circuit));
  writer.u32(circuit.qubits());
  writer.varint(options.sampleEvery);
  writer.string(trace.label);
  writer.varint(trace.points.size());
  for (const TracePoint& point : trace.points) {
    writer.varint(point.gateIndex);
    writer.varint(point.nodes);
    writer.f64(point.seconds);
    writer.f64(point.error);
    writer.varint(point.maxBits);
    writer.varint(point.peakNodes);
    writer.f64(point.cacheHitRate);
    writer.varint(point.tableFill);
  }
  writer.f64(trace.totalSeconds);
  writer.varint(trace.finalNodes);
  writer.varint(trace.peakNodes);
  writer.u8(trace.collapsedToZero ? 1 : 0);
  writer.f64(trace.finalError);
  writer.varint(trajectory.sampleEvery);
  writer.varint(trajectory.samples.size());
  for (const auto& sample : trajectory.samples) {
    writer.varint(sample.size());
    for (const std::complex<double>& amplitude : sample) {
      writer.f64(amplitude.real());
      writer.f64(amplitude.imag());
    }
  }
  writer.block(finalState);
  writer.u32(io::Crc32::of(writer.bytes()));
  return writer.take();
}

bool decodeReference(std::span<const std::uint8_t> bytes, const qc::Circuit& circuit,
                     const TraceOptions& options, SimulationTrace& trace,
                     ReferenceTrajectory& trajectory, std::vector<std::uint8_t>& finalState) {
  constexpr std::size_t kFooterBytes = 4;
  if (bytes.size() < kQrefMagic.size() + 2 + kFooterBytes) {
    throw io::SnapshotError("reference cache too short to hold a QREF header");
  }
  const std::uint32_t storedCrc = io::ByteReader(bytes.last(kFooterBytes)).u32();
  if (storedCrc != io::Crc32::of(bytes.first(bytes.size() - kFooterBytes))) {
    throw io::SnapshotError("reference cache CRC mismatch: file is corrupted");
  }
  io::ByteReader reader(bytes.first(bytes.size() - kFooterBytes));
  const auto magic = reader.raw(kQrefMagic.size());
  if (!std::equal(magic.begin(), magic.end(), kQrefMagic.begin())) {
    throw io::SnapshotError("bad magic bytes (not a QREF reference cache)");
  }
  if (reader.u16() != kQrefVersion) {
    return false; // older/newer cache: recompute
  }
  if (reader.u32() != circuitFingerprint(circuit) || reader.u32() != circuit.qubits() ||
      reader.varint() != options.sampleEvery) {
    return false; // stale cache for some other sweep
  }
  trace = {};
  trajectory = {};
  finalState.clear();
  trace.label = reader.string();
  const std::uint64_t pointCount = reader.varint();
  if (pointCount > bytes.size()) {
    throw io::SnapshotError("implausible trace point count in reference cache");
  }
  trace.points.reserve(static_cast<std::size_t>(pointCount));
  for (std::uint64_t i = 0; i < pointCount; ++i) {
    TracePoint point;
    point.gateIndex = static_cast<std::size_t>(reader.varint());
    point.nodes = static_cast<std::size_t>(reader.varint());
    point.seconds = reader.f64();
    point.error = reader.f64();
    point.maxBits = static_cast<std::size_t>(reader.varint());
    point.peakNodes = static_cast<std::size_t>(reader.varint());
    point.cacheHitRate = reader.f64();
    point.tableFill = static_cast<std::size_t>(reader.varint());
    trace.points.push_back(point);
  }
  trace.totalSeconds = reader.f64();
  trace.finalNodes = static_cast<std::size_t>(reader.varint());
  trace.peakNodes = static_cast<std::size_t>(reader.varint());
  trace.collapsedToZero = reader.u8() != 0;
  trace.finalError = reader.f64();
  trajectory.sampleEvery = static_cast<std::size_t>(reader.varint());
  const std::uint64_t sampleCount = reader.varint();
  if (sampleCount > bytes.size()) {
    throw io::SnapshotError("implausible sample count in reference cache");
  }
  trajectory.samples.reserve(static_cast<std::size_t>(sampleCount));
  for (std::uint64_t i = 0; i < sampleCount; ++i) {
    const std::uint64_t length = reader.varint();
    if (length > reader.remaining() / 16 + 1) {
      throw io::SnapshotError("implausible amplitude count in reference cache");
    }
    std::vector<std::complex<double>> sample;
    sample.reserve(static_cast<std::size_t>(length));
    for (std::uint64_t j = 0; j < length; ++j) {
      const double re = reader.f64();
      const double im = reader.f64();
      sample.emplace_back(re, im);
    }
    trajectory.samples.push_back(std::move(sample));
  }
  const auto blob = reader.block();
  finalState.assign(blob.begin(), blob.end());
  if (!reader.atEnd()) {
    throw io::SnapshotError("trailing bytes in reference cache");
  }
  trace.finalStateSnapshot = finalState;
  return true;
}

CachedAlgebraicReference traceAlgebraicCached(const qc::Circuit& circuit,
                                              const TraceOptions& options,
                                              const std::string& cachePath, bool refresh) {
  CachedAlgebraicReference result;
  if (!refresh) {
    const auto start = Clock::now();
    try {
      const std::vector<std::uint8_t> bytes = io::readBytesFile(cachePath);
      if (decodeReference(bytes, circuit, options, result.trace, result.trajectory,
                          result.finalState)) {
        result.fromCache = true;
        result.cacheSeconds = secondsSince(start);
        result.trace.label += " [cached]";
        return result;
      }
    } catch (const io::SnapshotError&) {
      // missing, corrupted, or stale cache: fall through to recomputation
    }
  }
  TraceOptions computeOptions = options;
  computeOptions.captureFinalState = true;
  result.trace = traceAlgebraic(circuit, computeOptions, &result.trajectory);
  result.finalState = result.trace.finalStateSnapshot;
  const auto start = Clock::now();
  io::writeBytesFile(cachePath, encodeReference(circuit, options, result.trace,
                                                result.trajectory, result.finalState));
  result.cacheSeconds = secondsSince(start);
  return result;
}

} // namespace qadd::eval
