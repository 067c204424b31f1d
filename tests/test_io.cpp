/// Tests for qadd::io — the byte codecs (CRC-32, varints, float records), the
/// QDDS snapshot format (round trips under both weight systems, corruption
/// and cross-configuration rejection, load-time dedup), the QCKP simulator
/// checkpoints, the QREF reference cache, and the algebraic -> numeric
/// snapshot conversion.  Also pins the fig3 eps=1e-5 tolerance-mode
/// regression: a reloaded reference state must match a recomputation exactly.
#include "algorithms/grover.hpp"
#include "eval/reference_cache.hpp"
#include "eval/trace.hpp"
#include "io/checkpoint.hpp"
#include "io/snapshot.hpp"
#include "qc/simulator.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <type_traits>

namespace qadd {
namespace {

using dd::AlgebraicSystem;
using dd::NumericSystem;

// -- byte codecs ------------------------------------------------------------------

TEST(IoCodec, Crc32CheckValue) {
  const std::uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(io::Crc32::of(digits), 0xCBF43926U);
  EXPECT_EQ(io::Crc32::of({}), 0x00000000U);
  // Incremental updates must match the one-shot digest.
  io::Crc32 incremental;
  incremental.update(std::span(digits).first(4)).update(std::span(digits).subspan(4));
  EXPECT_EQ(incremental.value(), 0xCBF43926U);
}

TEST(IoCodec, VarintRoundTrip) {
  io::ByteWriter writer;
  const std::uint64_t values[] = {0,   1,   127, 128,  129,  16383, 16384,
                                  255, 300, 1ULL << 32, ~0ULL};
  for (const std::uint64_t value : values) {
    writer.varint(value);
  }
  io::ByteReader reader(writer.bytes());
  for (const std::uint64_t value : values) {
    EXPECT_EQ(reader.varint(), value);
  }
  EXPECT_TRUE(reader.atEnd());
}

TEST(IoCodec, SignedVarintRoundTrip) {
  io::ByteWriter writer;
  const std::int64_t values[] = {0, -1, 1, -64, 64, std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max()};
  for (const std::int64_t value : values) {
    writer.svarint(value);
  }
  io::ByteReader reader(writer.bytes());
  for (const std::int64_t value : values) {
    EXPECT_EQ(reader.svarint(), value);
  }
  // Zigzag keeps small magnitudes short: -1 encodes in one byte.
  io::ByteWriter one;
  one.svarint(-1);
  EXPECT_EQ(one.size(), 1U);
}

TEST(IoCodec, FixedWidthLittleEndian) {
  io::ByteWriter writer;
  writer.u16(0x1234);
  writer.u32(0xDEADBEEF);
  writer.u64(0x0102030405060708ULL);
  EXPECT_EQ(writer.bytes()[0], 0x34); // least-significant byte first
  io::ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.u16(), 0x1234);
  EXPECT_EQ(reader.u32(), 0xDEADBEEFU);
  EXPECT_EQ(reader.u64(), 0x0102030405060708ULL);
}

TEST(IoCodec, ReaderThrowsOnOverrun) {
  const std::vector<std::uint8_t> two{0x01, 0x02};
  io::ByteReader reader(two);
  EXPECT_THROW((void)reader.u32(), io::SnapshotError);
  // A runaway varint (continuation bit forever) is rejected.
  const std::vector<std::uint8_t> runaway(11, 0x80);
  io::ByteReader varintReader(runaway);
  EXPECT_THROW((void)varintReader.varint(), io::SnapshotError);
  // A block whose length prefix exceeds the buffer is rejected.
  const std::vector<std::uint8_t> liar{0x7F, 0x01};
  io::ByteReader blockReader(liar);
  EXPECT_THROW((void)blockReader.block(), io::SnapshotError);
}

TEST(IoCodec, FloatRecordRoundTripIsExact) {
  const double values[] = {0.0,
                           1.0,
                           -1.0,
                           1.0 / 3.0,
                           -0.7071067811865476,
                           std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           3.141592653589793};
  for (const double value : values) {
    io::ByteWriter writer;
    io::detail::writeFloat<double>(writer, value);
    io::ByteReader reader(writer.bytes());
    const double back = io::detail::readFloat<double>(reader);
    EXPECT_EQ(back, value); // bit-exact, not approximate
    EXPECT_TRUE(reader.atEnd());
  }
  // Long double (64-bit mantissa on x86) must survive too — the record stores
  // mantissa bits, not the in-memory layout with its padding bytes.
  const long double extended = 1.0L / 3.0L;
  io::ByteWriter writer;
  io::detail::writeFloat<long double>(writer, extended);
  io::ByteReader reader(writer.bytes());
  EXPECT_EQ(io::detail::readFloat<long double>(reader), extended);
}

TEST(IoCodec, FloatRecordRejectsNonFinite) {
  io::ByteWriter writer;
  EXPECT_THROW(io::detail::writeFloat<double>(writer, std::numeric_limits<double>::infinity()),
               io::SnapshotError);
  EXPECT_THROW(io::detail::writeFloat<double>(writer, std::nan("")), io::SnapshotError);
}

// -- QDDS snapshots ---------------------------------------------------------------

/// |GHZ_n> — exactly representable, nontrivial shared structure.
qc::Circuit ghzCircuit(qc::Qubit nqubits) {
  qc::Circuit circuit(nqubits, "ghz");
  circuit.h(0);
  for (qc::Qubit q = 1; q < nqubits; ++q) {
    circuit.cx(q - 1, q);
  }
  return circuit;
}

TEST(QddsSnapshot, AlgebraicVectorRoundTripSamePackage) {
  qc::Simulator<AlgebraicSystem> simulator(ghzCircuit(6));
  simulator.run();
  const auto bytes = io::saveVector(simulator.package(), simulator.state());

  const auto reloaded = io::loadVector(simulator.package(), bytes);
  // Canonicity: re-interning into the same package reproduces the exact edge.
  EXPECT_TRUE(reloaded == simulator.state());
}

TEST(QddsSnapshot, AlgebraicVectorRoundTripFreshPackageIsBitIdentical) {
  qc::Simulator<AlgebraicSystem> simulator(ghzCircuit(6));
  simulator.run();
  auto& package = simulator.package();
  const auto bytes = io::saveVector(package, simulator.state());

  dd::Package<AlgebraicSystem> fresh(package.qubits());
  const auto reloaded = io::loadVector(fresh, bytes);
  EXPECT_EQ(fresh.countNodes(reloaded), package.countNodes(simulator.state()));
  // Strongest exactness check: re-serializing the reloaded DD reproduces the
  // original byte stream (same topological order, same interned weights).
  EXPECT_EQ(io::saveVector(fresh, reloaded), bytes);
}

TEST(QddsSnapshot, NumericVectorRoundTripUlpExact) {
  for (const double epsilon : {0.0, 1e-10, 1e-5}) {
    qc::Simulator<NumericSystem> simulator(
        ghzCircuit(5), {epsilon, NumericSystem::Normalization::LeftmostNonzero});
    simulator.run();
    const auto bytes = io::saveVector(simulator.package(), simulator.state());

    dd::Package<NumericSystem> fresh(simulator.package().qubits(),
                                     {epsilon, NumericSystem::Normalization::LeftmostNonzero});
    const auto reloaded = io::loadVector(fresh, bytes);
    const auto original = simulator.package().amplitudes(simulator.state());
    const auto restored = fresh.amplitudes(reloaded);
    ASSERT_EQ(original.size(), restored.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
      // ULP-0: the float records are bit patterns, not approximations.
      EXPECT_EQ(restored[i].real(), original[i].real()) << "eps " << epsilon << " index " << i;
      EXPECT_EQ(restored[i].imag(), original[i].imag()) << "eps " << epsilon << " index " << i;
    }
  }
}

TEST(QddsSnapshot, MatrixRoundTrip) {
  dd::Package<AlgebraicSystem> package(3);
  const qc::Operation hadamard{qc::GateKind::H, 0.0, 1, {}};
  const auto gate = qc::makeOperationDD(package, hadamard);
  const auto bytes = io::saveMatrix(package, gate);
  EXPECT_EQ(io::readInfo(bytes).kind, io::DdKind::Matrix);

  const auto reloaded = io::loadMatrix(package, bytes);
  EXPECT_TRUE(reloaded == gate);

  dd::Package<AlgebraicSystem> fresh(3);
  const auto rebuilt = io::loadMatrix(fresh, bytes);
  EXPECT_EQ(io::saveMatrix(fresh, rebuilt), bytes);
}

TEST(QddsSnapshot, ReadInfoReportsHeaderFields) {
  qc::Simulator<AlgebraicSystem> simulator(ghzCircuit(7));
  simulator.run();
  const auto bytes = io::saveVector(simulator.package(), simulator.state());
  const io::SnapshotInfo info = io::readInfo(bytes);
  EXPECT_EQ(info.kind, io::DdKind::Vector);
  EXPECT_EQ(info.system, io::SystemTag::Algebraic);
  EXPECT_EQ(info.qubits, 7U);
  EXPECT_EQ(info.nodeCount, simulator.package().countNodes(simulator.state()));
  EXPECT_EQ(info.totalBytes, bytes.size());
  EXPECT_EQ(info.payloadBytes + io::kQddsHeaderBytes + io::kQddsFooterBytes, bytes.size());
}

TEST(QddsSnapshot, LoadDedupsAgainstLiveNodes) {
  qc::Simulator<AlgebraicSystem> simulator(ghzCircuit(6));
  simulator.run();
  auto& package = simulator.package();
  const auto bytes = io::saveVector(package, simulator.state());
  const std::size_t nodeCount = package.countNodes(simulator.state());

  const std::size_t allocatedBefore = package.allocatedNodes();
  const std::uint64_t dedupBefore = package.counters().io.loadDedupNodes.value();
  const auto reloaded = io::loadVector(package, bytes);
  EXPECT_TRUE(reloaded == simulator.state());
  // Every stored node already lives in the unique table: nothing allocated,
  // everything counted as deduplicated (counters are no-ops with QADD_OBS=OFF).
  EXPECT_EQ(package.allocatedNodes(), allocatedBefore);
  if (obs::kEnabled) {
    EXPECT_EQ(package.counters().io.loadDedupNodes.value(), dedupBefore + nodeCount);
  }
}

TEST(QddsSnapshot, RejectsCorruptionEverywhere) {
  qc::Simulator<AlgebraicSystem> simulator(ghzCircuit(4));
  simulator.run();
  const auto bytes = io::saveVector(simulator.package(), simulator.state());
  dd::Package<AlgebraicSystem> fresh(4);

  // Any flipped byte must be caught (CRC covers header + payload; the CRC
  // bytes themselves then disagree with the recomputed digest).
  for (const std::size_t index : {std::size_t{0}, std::size_t{5}, bytes.size() / 2, bytes.size() - 1}) {
    auto corrupted = bytes;
    corrupted[index] ^= 0x40;
    EXPECT_THROW((void)io::loadVector(fresh, corrupted), io::SnapshotError) << "byte " << index;
  }
  // Truncation at any prefix length.
  for (const std::size_t keep : {std::size_t{0}, std::size_t{3}, io::kQddsHeaderBytes, bytes.size() - 1}) {
    const std::vector<std::uint8_t> truncated(bytes.begin(),
                                              bytes.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW((void)io::loadVector(fresh, truncated), io::SnapshotError) << "keep " << keep;
  }
  // Trailing garbage changes the digest too.
  auto extended = bytes;
  extended.push_back(0x00);
  EXPECT_THROW((void)io::loadVector(fresh, extended), io::SnapshotError);
}

TEST(QddsSnapshot, RejectsCrossConfigurationLoads) {
  qc::Simulator<AlgebraicSystem> algebraic(ghzCircuit(4));
  algebraic.run();
  const auto algebraicBytes = io::saveVector(algebraic.package(), algebraic.state());

  qc::Simulator<NumericSystem> numeric(ghzCircuit(4),
                                       {1e-5, NumericSystem::Normalization::LeftmostNonzero});
  numeric.run();
  const auto numericBytes = io::saveVector(numeric.package(), numeric.state());

  // Wrong weight system.
  dd::Package<NumericSystem> numericTarget(4, {1e-5, NumericSystem::Normalization::LeftmostNonzero});
  EXPECT_THROW((void)io::loadVector(numericTarget, algebraicBytes), io::SnapshotError);
  dd::Package<AlgebraicSystem> algebraicTarget(4);
  EXPECT_THROW((void)io::loadVector(algebraicTarget, numericBytes), io::SnapshotError);
  // Wrong tolerance: a snapshot taken at eps=1e-5 must not silently feed an
  // eps=0 table (the weights would masquerade as exact).
  dd::Package<NumericSystem> exactTarget(4, {0.0, NumericSystem::Normalization::LeftmostNonzero});
  EXPECT_THROW((void)io::loadVector(exactTarget, numericBytes), io::SnapshotError);
  // Wrong kind.
  EXPECT_THROW((void)io::loadMatrix(algebraicTarget, algebraicBytes), io::SnapshotError);
  // Wrong register width.
  dd::Package<AlgebraicSystem> narrowTarget(3);
  EXPECT_THROW((void)io::loadVector(narrowTarget, algebraicBytes), io::SnapshotError);
}

TEST(QddsSnapshot, AlgebraicNormalizationMismatchIsAllowed) {
  // Exact weights re-normalize losslessly, so a GcdDOmega package may load a
  // QOmegaInverse snapshot; the amplitudes must agree exactly.
  qc::Simulator<AlgebraicSystem> simulator(ghzCircuit(5));
  simulator.run();
  const auto bytes = io::saveVector(simulator.package(), simulator.state());

  dd::Package<AlgebraicSystem> gcd(5, {AlgebraicSystem::Normalization::GcdDOmega});
  const auto reloaded = io::loadVector(gcd, bytes);
  const auto original = simulator.package().amplitudes(simulator.state());
  const auto restored = gcd.amplitudes(reloaded);
  ASSERT_EQ(original.size(), restored.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_NEAR(std::abs(restored[i] - original[i]), 0.0, 1e-15);
  }
}

TEST(QddsSnapshot, FileRoundTrip) {
  qc::Simulator<AlgebraicSystem> simulator(ghzCircuit(5));
  simulator.run();
  const auto bytes = io::saveVector(simulator.package(), simulator.state());
  const std::string path = "test_io_roundtrip.qdds";
  io::writeBytesFile(path, bytes);
  EXPECT_EQ(io::readBytesFile(path), bytes);
  std::remove(path.c_str());
  EXPECT_THROW((void)io::readBytesFile(path), io::SnapshotError);
}

// -- algebraic -> numeric conversion ----------------------------------------------

TEST(QddsSnapshot, ConvertVectorPreservesState) {
  const qc::Circuit circuit = algos::grover({5, 11, 0});
  qc::Simulator<AlgebraicSystem> simulator(circuit);
  simulator.run();

  dd::Package<NumericSystem> numeric(simulator.package().qubits(),
                                     {0.0, NumericSystem::Normalization::LeftmostNonzero});
  const auto converted =
      io::convertVector(simulator.package(), simulator.state(), numeric);
  const auto exact = simulator.package().amplitudes(simulator.state());
  const auto rounded = numeric.amplitudes(converted);
  ASSERT_EQ(exact.size(), rounded.size());
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(std::abs(rounded[i] - exact[i]), 0.0, 1e-12) << "index " << i;
  }
  // Width mismatch is refused.
  dd::Package<NumericSystem> narrow(3, {0.0, NumericSystem::Normalization::LeftmostNonzero});
  EXPECT_THROW((void)io::convertVector(simulator.package(), simulator.state(), narrow),
               io::SnapshotError);
}

// -- matching-package loader ------------------------------------------------------

/// Which weight system io::withMatchingPackage chose, with the configuration
/// it built and the node count of the diagram loaded into it.
struct Matched {
  std::string system;
  double epsilon = 0.0;
  int normalization = 0;
  std::size_t nodes = 0;
};

Matched matchSnapshot(std::span<const std::uint8_t> bytes) {
  return io::withMatchingPackage(bytes, [&](auto& package, const io::SnapshotInfo&) {
    using System = std::decay_t<decltype(package.system())>;
    Matched matched;
    if constexpr (std::is_same_v<System, dd::ExtendedNumericSystem>) {
      matched.system = "long double";
    } else if constexpr (std::is_same_v<System, NumericSystem>) {
      matched.system = "double";
    } else {
      matched.system = "algebraic";
    }
    if constexpr (!System::kExact) {
      matched.epsilon = package.system().config().epsilon;
    }
    matched.normalization = static_cast<int>(package.system().config().normalization);
    matched.nodes = package.countNodes(io::loadVector(package, bytes));
    return matched;
  });
}

TEST(SnapshotLoader, PicksTheMatchingSystem) {
  qc::Simulator<AlgebraicSystem> algebraic(ghzCircuit(5),
                                           {AlgebraicSystem::Normalization::GcdDOmega});
  algebraic.run();
  const Matched alg = matchSnapshot(io::saveVector(algebraic.package(), algebraic.state()));
  EXPECT_EQ(alg.system, "algebraic");
  EXPECT_EQ(alg.normalization, static_cast<int>(AlgebraicSystem::Normalization::GcdDOmega));
  EXPECT_EQ(alg.nodes, algebraic.stateNodes());

  qc::Simulator<NumericSystem> numeric(ghzCircuit(5),
                                       {1e-10, NumericSystem::Normalization::MaxMagnitude});
  numeric.run();
  const Matched num = matchSnapshot(io::saveVector(numeric.package(), numeric.state()));
  EXPECT_EQ(num.system, "double");
  EXPECT_EQ(num.epsilon, 1e-10);
  EXPECT_EQ(num.normalization, static_cast<int>(NumericSystem::Normalization::MaxMagnitude));
  EXPECT_EQ(num.nodes, numeric.stateNodes());

  qc::Simulator<dd::ExtendedNumericSystem> extended(ghzCircuit(5), {1e-5});
  extended.run();
  const Matched ext = matchSnapshot(io::saveVector(extended.package(), extended.state()));
  EXPECT_EQ(ext.system, std::numeric_limits<long double>::digits ==
                                std::numeric_limits<double>::digits
                            ? "double"
                            : "long double");
  EXPECT_EQ(ext.epsilon, 1e-5);
  EXPECT_EQ(ext.nodes, extended.stateNodes());
}

TEST(SnapshotLoader, UnwrapsCheckpointsAndPassesSnapshotsThrough) {
  qc::Simulator<AlgebraicSystem> simulator(ghzCircuit(4));
  simulator.run();
  const auto snapshot = io::saveVector(simulator.package(), simulator.state());
  const auto checkpoint = simulator.saveCheckpoint();
  EXPECT_TRUE(io::isCheckpoint(checkpoint));
  EXPECT_FALSE(io::isCheckpoint(snapshot));
  EXPECT_EQ(io::snapshotOf(checkpoint), snapshot);
  EXPECT_EQ(io::snapshotOf(snapshot), snapshot);

  auto corrupted = checkpoint;
  corrupted[corrupted.size() / 2] ^= 0x01;
  EXPECT_THROW((void)io::snapshotOf(corrupted), io::SnapshotError);
}

TEST(SnapshotLoader, RejectsUnsupportedFloatWidth) {
  qc::Simulator<NumericSystem> simulator(ghzCircuit(4));
  simulator.run();
  auto bytes = io::saveVector(simulator.package(), simulator.state());
  // The numeric payload opens with the mantissa width; claim a 24-bit float
  // and re-seal the CRC so that only the width is wrong.
  bytes[io::kQddsHeaderBytes] = 24;
  const std::uint32_t crc =
      io::Crc32::of(std::span<const std::uint8_t>(bytes).first(bytes.size() - 4));
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  EXPECT_EQ(io::readInfo(bytes).floatDigits, 24);
  EXPECT_THROW((void)matchSnapshot(bytes), io::SnapshotError);
}

// -- QCKP checkpoints -------------------------------------------------------------

TEST(Checkpoint, EnvelopeRoundTrip) {
  io::CheckpointData data;
  data.gateIndex = 123;
  data.circuitText = "qubits 3\nh 0\ncx 0 1\n";
  data.snapshot = {0xDE, 0xAD, 0xBE, 0xEF};
  const auto bytes = io::writeCheckpoint(data);
  const io::CheckpointData back = io::readCheckpoint(bytes);
  EXPECT_EQ(back.gateIndex, data.gateIndex);
  EXPECT_EQ(back.circuitText, data.circuitText);
  EXPECT_EQ(back.snapshot, data.snapshot);

  auto corrupted = bytes;
  corrupted[bytes.size() / 2] ^= 0x01;
  EXPECT_THROW((void)io::readCheckpoint(corrupted), io::SnapshotError);
}

TEST(Checkpoint, ResumedGroverMatchesStraightRunExactly) {
  const qc::Circuit circuit = algos::grover({5, 7, 0});

  qc::Simulator<AlgebraicSystem> straight(circuit);
  straight.run();
  const auto straightBytes = io::saveVector(straight.package(), straight.state());

  // Run half the circuit, checkpoint, resume in a brand-new simulator.
  qc::Simulator<AlgebraicSystem> first(circuit);
  const std::size_t half = circuit.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(first.step());
  }
  const auto checkpoint = first.saveCheckpoint();

  qc::Simulator<AlgebraicSystem> resumed(circuit);
  resumed.resumeFrom(checkpoint);
  EXPECT_EQ(resumed.gateIndex(), half);
  resumed.run();
  // Bit-exact: the serialized final states are identical byte streams.
  EXPECT_EQ(io::saveVector(resumed.package(), resumed.state()), straightBytes);
}

TEST(Checkpoint, ResumeRejectsForeignCircuit) {
  qc::Simulator<AlgebraicSystem> simulator(ghzCircuit(4));
  simulator.run();
  const auto checkpoint = simulator.saveCheckpoint();

  qc::Simulator<AlgebraicSystem> other(ghzCircuit(5));
  EXPECT_THROW(other.resumeFrom(checkpoint), io::SnapshotError);
}

// -- QREF reference cache ---------------------------------------------------------

TEST(ReferenceCache, EncodeDecodeRoundTrip) {
  const qc::Circuit circuit = algos::grover({4, 5, 0});
  eval::TraceOptions options;
  options.sampleEvery = 7;
  options.captureFinalState = true;

  eval::ReferenceTrajectory trajectory;
  const eval::SimulationTrace trace = eval::traceAlgebraic(circuit, options, &trajectory);
  ASSERT_FALSE(trace.finalStateSnapshot.empty());

  const auto blob =
      eval::encodeReference(circuit, options, trace, trajectory, trace.finalStateSnapshot);
  eval::SimulationTrace decodedTrace;
  eval::ReferenceTrajectory decodedTrajectory;
  std::vector<std::uint8_t> decodedFinal;
  ASSERT_TRUE(eval::decodeReference(blob, circuit, options, decodedTrace, decodedTrajectory,
                                    decodedFinal));
  EXPECT_EQ(decodedTrace.label, trace.label);
  EXPECT_EQ(decodedTrace.finalNodes, trace.finalNodes);
  EXPECT_EQ(decodedTrace.points.size(), trace.points.size());
  for (std::size_t i = 0; i < trace.points.size(); ++i) {
    EXPECT_EQ(decodedTrace.points[i].gateIndex, trace.points[i].gateIndex);
    EXPECT_EQ(decodedTrace.points[i].nodes, trace.points[i].nodes);
  }
  ASSERT_EQ(decodedTrajectory.samples.size(), trajectory.samples.size());
  for (std::size_t s = 0; s < trajectory.samples.size(); ++s) {
    EXPECT_EQ(decodedTrajectory.samples[s], trajectory.samples[s]); // exact doubles
  }
  EXPECT_EQ(decodedFinal, trace.finalStateSnapshot);

  // A different circuit (or stride) makes the blob stale, not corrupt.
  const qc::Circuit other = algos::grover({4, 6, 0});
  EXPECT_FALSE(eval::decodeReference(blob, other, options, decodedTrace, decodedTrajectory,
                                     decodedFinal));
  eval::TraceOptions otherStride = options;
  otherStride.sampleEvery = 13;
  EXPECT_FALSE(eval::decodeReference(blob, circuit, otherStride, decodedTrace, decodedTrajectory,
                                     decodedFinal));
  // A flipped byte is corruption and must be loud.
  auto corrupted = blob;
  corrupted[blob.size() / 3] ^= 0x10;
  EXPECT_THROW((void)eval::decodeReference(corrupted, circuit, options, decodedTrace,
                                           decodedTrajectory, decodedFinal),
               io::SnapshotError);
}

TEST(ReferenceCache, CachedTraceMatchesComputedTrace) {
  const qc::Circuit circuit = algos::grover({4, 9, 0});
  eval::TraceOptions options;
  options.sampleEvery = 11;
  const std::string path = "test_io_reference.qref";
  std::remove(path.c_str());

  const auto computed = eval::traceAlgebraicCached(circuit, options, path);
  EXPECT_FALSE(computed.fromCache);
  const auto cached = eval::traceAlgebraicCached(circuit, options, path);
  EXPECT_TRUE(cached.fromCache);
  EXPECT_EQ(cached.trace.label, computed.trace.label + " [cached]");
  EXPECT_EQ(cached.trace.finalNodes, computed.trace.finalNodes);
  EXPECT_EQ(cached.trajectory.samples, computed.trajectory.samples);
  // refresh=true forces recomputation even with a valid cache on disk.
  const auto refreshed = eval::traceAlgebraicCached(circuit, options, path, true);
  EXPECT_FALSE(refreshed.fromCache);
  std::remove(path.c_str());
}

// -- fig3 eps=1e-5 regression -----------------------------------------------------

/// The fig3 sweep's interesting tolerance point (eps=1e-5: compact AND
/// accurate).  The ComplexTable's tolerance buckets make numeric runs
/// sensitive to lookup order, so pin the property the reference cache relies
/// on: recomputing the run and reloading its snapshot agree exactly — the
/// reloaded state re-interns onto the recomputed table without drift.
TEST(Fig3Regression, ToleranceModeReloadMatchesRecompute) {
  const qc::Circuit circuit = algos::grover({6, 21, 0});
  const NumericSystem::Config config{1e-5, NumericSystem::Normalization::LeftmostNonzero};

  qc::Simulator<NumericSystem> reference(circuit, config);
  reference.run();
  const auto snapshot = io::saveVector(reference.package(), reference.state());

  // Recompute in a fresh package (fresh allocator, fresh tolerance table).
  qc::Simulator<NumericSystem> recomputed(circuit, config);
  recomputed.run();
  // Determinism pin: the recomputed state serializes to the same bytes.
  EXPECT_EQ(io::saveVector(recomputed.package(), recomputed.state()), snapshot);

  // Reloading the snapshot into the recomputed package lands on the exact
  // same canonical edge — fidelity exactly 1, not 1-O(eps).
  const auto reloaded = io::loadVector(recomputed.package(), snapshot);
  EXPECT_TRUE(reloaded == recomputed.state());
  EXPECT_DOUBLE_EQ(recomputed.package().fidelity(reloaded, recomputed.state()), 1.0);
}

// -- golden snapshot regression ---------------------------------------------------

/// Old-format load-compat pin: a QDDS v1 file written by an earlier release
/// (PR 3 seed build: 5-qubit random Clifford+T state, 31 nodes, 83-bit
/// worst-case coefficients) must still load through the v2 reader.  The
/// rebuilt diagram re-canonicalizes through makeNode (vector DDs have no
/// identity patterns to collapse, so the node count is unchanged), and
/// writing it back now produces v2 bytes — which must themselves be a fixed
/// point of a further load/save round trip.
TEST(IoGolden, Pr3SnapshotLoadsAndResavesByteIdentical) {
  const std::string path = std::string(QADD_TESTDATA_DIR) + "/golden_pr3.qdds";
  std::ifstream file(path, std::ios::binary);
  ASSERT_TRUE(file.is_open()) << "missing golden file: " << path;
  const std::vector<std::uint8_t> golden{std::istreambuf_iterator<char>(file),
                                         std::istreambuf_iterator<char>()};
  ASSERT_EQ(golden.size(), 1973U) << "golden file changed on disk";
  EXPECT_EQ(io::readInfo(golden).version, 1U);

  dd::Package<AlgebraicSystem> package(5);
  const auto state = io::loadVector(package, golden);
  EXPECT_EQ(package.countNodes(state), 31U);

  // Re-serializing upgrades the envelope to the current version and appends
  // one entering-level varint per edge record: 31 nodes * 2 children + root.
  const auto resaved = io::saveVector(package, state);
  EXPECT_EQ(io::readInfo(resaved).version, io::kQddsVersion);
  EXPECT_EQ(resaved.size(), golden.size() + 31U * 2U + 1U);
  const auto reloaded = io::loadVector(package, resaved);
  EXPECT_TRUE(reloaded == state);
  EXPECT_EQ(io::saveVector(package, reloaded), resaved) << "v2 bytes are a fixed point";

  // The state is a unit vector (the generator applied only unitary gates).
  EXPECT_TRUE(package.system().isOne(package.innerProduct(state, state)));
}

} // namespace
} // namespace qadd
