/// \file checkpoint.hpp
/// QCKP — the simulator checkpoint envelope: a QDDS state snapshot plus the
/// simulation position it was taken at (gate index + the circuit's text
/// serialization, so a resume can verify it targets the same circuit).  The
/// envelope is CRC-checked independently of the embedded snapshot, which
/// keeps the two formats separable: any QDDS consumer can extract and load
/// the state blob on its own.
///
/// Layout: magic "QCKP" | u16 version | varint gateIndex | string circuit
/// text | block QDDS snapshot | u32 CRC-32 over everything before it.
///
/// This header is deliberately free of qc/ includes — the qc::Simulator
/// includes *us* to implement saveCheckpoint()/resumeFrom().
#pragma once

#include "io/codec.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace qadd::io {

inline constexpr std::array<std::uint8_t, 4> kQckpMagic{'Q', 'C', 'K', 'P'};
inline constexpr std::uint16_t kQckpVersion = 1;

/// Decoded checkpoint: where the simulation stood and the state it held.
struct CheckpointData {
  std::uint64_t gateIndex = 0; ///< gates applied when the checkpoint was taken
  std::string circuitText;     ///< qc::Circuit::toText() of the simulated circuit
  std::vector<std::uint8_t> snapshot; ///< embedded QDDS blob of the state DD
};

[[nodiscard]] inline std::vector<std::uint8_t> writeCheckpoint(const CheckpointData& data) {
  ByteWriter writer;
  writer.raw(kQckpMagic);
  writer.u16(kQckpVersion);
  writer.varint(data.gateIndex);
  writer.string(data.circuitText);
  writer.block(data.snapshot);
  writer.u32(Crc32::of(writer.bytes()));
  return writer.take();
}

[[nodiscard]] inline CheckpointData readCheckpoint(std::span<const std::uint8_t> bytes) {
  constexpr std::size_t kFooterBytes = 4;
  if (bytes.size() < kQckpMagic.size() + 2 + kFooterBytes) {
    throw SnapshotError("checkpoint too short to hold a QCKP header");
  }
  const std::uint32_t storedCrc = ByteReader(bytes.last(kFooterBytes)).u32();
  const std::uint32_t actualCrc = Crc32::of(bytes.first(bytes.size() - kFooterBytes));
  if (storedCrc != actualCrc) {
    throw SnapshotError("checkpoint CRC mismatch: file is corrupted");
  }
  ByteReader reader(bytes.first(bytes.size() - kFooterBytes));
  const auto magic = reader.raw(kQckpMagic.size());
  if (!std::equal(magic.begin(), magic.end(), kQckpMagic.begin())) {
    throw SnapshotError("bad magic bytes (not a QCKP checkpoint)");
  }
  const std::uint16_t version = reader.u16();
  if (version != kQckpVersion) {
    throw SnapshotError("unsupported QCKP version " + std::to_string(version));
  }
  CheckpointData data;
  data.gateIndex = reader.varint();
  data.circuitText = reader.string();
  const auto blob = reader.block();
  data.snapshot.assign(blob.begin(), blob.end());
  if (!reader.atEnd()) {
    throw SnapshotError("trailing bytes in checkpoint");
  }
  return data;
}

/// True iff the blob is a QCKP checkpoint (vs a bare QDDS snapshot).
[[nodiscard]] inline bool isCheckpoint(std::span<const std::uint8_t> bytes) {
  return bytes.size() >= kQckpMagic.size() &&
         std::equal(kQckpMagic.begin(), kQckpMagic.end(), bytes.begin());
}

/// The QDDS blob of a file's bytes: a checkpoint is unwrapped to its embedded
/// state snapshot, anything else passes through unchanged (to be validated
/// by the snapshot reader).  \throws SnapshotError on a corrupted checkpoint.
[[nodiscard]] inline std::vector<std::uint8_t> snapshotOf(std::vector<std::uint8_t> bytes) {
  if (isCheckpoint(bytes)) {
    return readCheckpoint(bytes).snapshot;
  }
  return bytes;
}

} // namespace qadd::io
