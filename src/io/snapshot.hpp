/// \file snapshot.hpp
/// QDDS — the versioned binary snapshot format for QMDD decision diagrams
/// (byte-level spec in docs/SNAPSHOT_FORMAT.md).
///
/// A snapshot stores one vector or matrix DD under either weight system:
///  - algebraic snapshots record every edge weight as its exact canonical
///    Q[omega] element (BigInt coefficients), so a reload is *bit-exact*:
///    the rebuilt DD has the identical canonical node count and exactly
///    equal weights;
///  - numeric snapshots record every weight as raw mantissa/exponent pairs
///    of the table's FloatT (exact IEEE round trip) together with the
///    tolerance ε the table was built with.  Loading into a package with a
///    different ε, float precision, or normalization is rejected loudly —
///    an ε-table's content is meaningless under another tolerance.
///
/// Nodes are written in topological (children-before-parents) order and are
/// re-interned through the target package's UniqueTable/MemoryManager on
/// load via the ordinary makeVNode/makeMNode path, so a loaded DD is
/// canonical by construction and shares nodes with whatever already lives in
/// the package (the load-dedup counter in obs::IoStats measures exactly
/// that).  Node records carry the *canonical* stored weights; the loader
/// folds any re-normalization factor into the parent edges, which makes
/// loads robust across algebraic normalization schemes and against
/// non-canonical input.
#pragma once

#include "core/algebraic_system.hpp"
#include "core/numeric_system.hpp"
#include "core/package.hpp"
#include "io/codec.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

namespace qadd::io {

inline constexpr std::array<std::uint8_t, 4> kQddsMagic{'Q', 'D', 'D', 'S'};
/// Current write version.  v2 (skip-level edges) appends an entering-level
/// varint to every child edge record and to the root edge record; v1
/// snapshots (no edge levels, identity structure fully materialized) still
/// load — the rebuild path re-canonicalizes them, collapsing identity
/// patterns into skip edges when the target package has skipping enabled.
inline constexpr std::uint16_t kQddsVersion = 2;
/// Oldest version parseEnvelope accepts.
inline constexpr std::uint16_t kQddsMinVersion = 1;
/// Fixed header: magic(4) version(2) kind(1) system(1) qubits(4) payload(8)
/// reserved(4).
inline constexpr std::size_t kQddsHeaderBytes = 24;
/// Trailing CRC-32 over header + payload.
inline constexpr std::size_t kQddsFooterBytes = 4;

enum class DdKind : std::uint8_t { Vector = 1, Matrix = 2 };
enum class SystemTag : std::uint8_t { Algebraic = 1, Numeric = 2 };

[[nodiscard]] std::string_view toString(DdKind kind);
[[nodiscard]] std::string_view toString(SystemTag tag);

/// Parsed header + payload meta of a snapshot (the `qadd_snapshot info`
/// view); obtainable without a package via readInfo().
struct SnapshotInfo {
  DdKind kind = DdKind::Vector;
  SystemTag system = SystemTag::Algebraic;
  std::uint16_t version = kQddsVersion;
  std::uint32_t qubits = 0;
  std::uint64_t nodeCount = 0;
  std::uint64_t weightCount = 0;
  std::uint64_t payloadBytes = 0;
  std::uint64_t totalBytes = 0;
  std::uint8_t normalization = 0; ///< system-specific enum value
  // numeric-only meta (zero for algebraic snapshots)
  double epsilon = 0.0;
  std::uint8_t floatDigits = 0; ///< mantissa bits of the table's FloatT

  [[nodiscard]] std::string describe() const;
};

/// Parse and validate header + CRC; throws SnapshotError on any corruption.
[[nodiscard]] SnapshotInfo readInfo(std::span<const std::uint8_t> bytes);

// -- file helpers -----------------------------------------------------------------

/// Write a blob to `path` (atomic enough for our purposes: truncate +
/// write + flush).  \throws SnapshotError on any I/O failure.
void writeBytesFile(const std::string& path, std::span<const std::uint8_t> bytes);
/// Read a whole file. \throws SnapshotError on any I/O failure.
[[nodiscard]] std::vector<std::uint8_t> readBytesFile(const std::string& path);

// -- float codec ------------------------------------------------------------------

namespace detail {

/// Exact, width-independent encoding of a finite FloatT: flags byte
/// (bit0 = zero, bit1 = sign), then for non-zero values the 64-bit scaled
/// mantissa (frexp magnitude in [0.5,1) times 2^64) and the zigzag-varint
/// binary exponent.  Exact for every float type with <= 64 mantissa bits
/// (double and x87 long double included), with no dependence on the
/// in-memory layout — long double's padding bytes never touch the wire.
template <class FloatT> void writeFloat(ByteWriter& writer, FloatT value) {
  if (value == FloatT{0}) {
    writer.u8(std::signbit(value) ? 0x03 : 0x01);
    return;
  }
  if (!std::isfinite(value)) {
    throw SnapshotError("non-finite weight component cannot be serialized");
  }
  std::uint8_t flags = 0;
  FloatT magnitude = value;
  if (value < FloatT{0}) {
    flags |= 0x02;
    magnitude = -value;
  }
  writer.u8(flags);
  int exponent = 0;
  const FloatT mantissa = std::frexp(magnitude, &exponent); // in [0.5, 1)
  // mantissa * 2^64 is an exact integer in [2^63, 2^64) for <= 64-bit
  // mantissas, so the conversion below is lossless.
  writer.u64(static_cast<std::uint64_t>(std::ldexp(mantissa, 64)));
  writer.svarint(exponent);
}

template <class FloatT> [[nodiscard]] FloatT readFloat(ByteReader& reader) {
  const std::uint8_t flags = reader.u8();
  if ((flags & 0x01U) != 0) {
    return (flags & 0x02U) != 0 ? -FloatT{0} : FloatT{0};
  }
  const std::uint64_t mantissa = reader.u64();
  const std::int64_t exponent = reader.svarint();
  if (mantissa == 0) {
    throw SnapshotError("malformed float record (zero mantissa in non-zero value)");
  }
  if (exponent < std::numeric_limits<int>::min() + 64 || exponent > std::numeric_limits<int>::max()) {
    throw SnapshotError("malformed float record (exponent out of range)");
  }
  const FloatT magnitude = std::ldexp(static_cast<FloatT>(mantissa), static_cast<int>(exponent) - 64);
  return (flags & 0x02U) != 0 ? -magnitude : magnitude;
}

/// Decode one BigInt through the bounds-checked reader (rethrowing its
/// validation failures as SnapshotError).
[[nodiscard]] inline BigInt readBigInt(ByteReader& reader) {
  std::size_t consumed = 0;
  try {
    BigInt value = BigInt::fromBytes(reader.rest(), consumed);
    reader.skip(consumed);
    return value;
  } catch (const std::invalid_argument& error) {
    throw SnapshotError(std::string("malformed BigInt record: ") + error.what());
  }
}

} // namespace detail

// -- per-system weight codec -------------------------------------------------------

/// Weight/meta encoding per weight system.  `checkMeta` must reject any
/// snapshot whose weights would not be meaningful in the target system.
template <class System> struct SystemCodec;

template <> struct SystemCodec<dd::AlgebraicSystem> {
  static constexpr SystemTag kTag = SystemTag::Algebraic;

  static void writeMeta(ByteWriter& writer, const dd::AlgebraicSystem& system) {
    writer.u8(static_cast<std::uint8_t>(system.config().normalization));
  }

  static void checkMeta(ByteReader& reader, const dd::AlgebraicSystem& /*system*/) {
    const std::uint8_t normalization = reader.u8();
    if (normalization > static_cast<std::uint8_t>(dd::AlgebraicSystem::Normalization::UnitPart)) {
      throw SnapshotError("unknown algebraic normalization tag in snapshot");
    }
    // Exact values are portable across algebraic normalization schemes: the
    // loader re-normalizes every node record exactly, so no mismatch check.
  }

  static void writeWeight(ByteWriter& writer, const dd::AlgebraicSystem& system,
                          dd::AlgebraicSystem::Weight handle) {
    const alg::QOmega& value = system.value(handle);
    value.num().a().toBytes(writer.buffer());
    value.num().b().toBytes(writer.buffer());
    value.num().c().toBytes(writer.buffer());
    value.num().d().toBytes(writer.buffer());
    writer.svarint(value.k());
    value.den().toBytes(writer.buffer());
  }

  [[nodiscard]] static dd::AlgebraicSystem::Weight readWeight(ByteReader& reader,
                                                              dd::AlgebraicSystem& system) {
    BigInt a = detail::readBigInt(reader);
    BigInt b = detail::readBigInt(reader);
    BigInt c = detail::readBigInt(reader);
    BigInt d = detail::readBigInt(reader);
    const std::int64_t k = reader.svarint();
    BigInt den = detail::readBigInt(reader);
    if (den.sign() <= 0 || den.isEven()) {
      throw SnapshotError("malformed Q[omega] record (denominator must be odd positive)");
    }
    // The QOmega constructor re-canonicalizes; canonical input passes
    // through unchanged, so interning reproduces the original value exactly.
    return system.intern(alg::QOmega{
        alg::ZOmega{std::move(a), std::move(b), std::move(c), std::move(d)},
        static_cast<long>(k), std::move(den)});
  }
};

template <class FloatT> struct SystemCodec<dd::BasicNumericSystem<FloatT>> {
  static constexpr SystemTag kTag = SystemTag::Numeric;
  using System = dd::BasicNumericSystem<FloatT>;

  static void writeMeta(ByteWriter& writer, const System& system) {
    writer.u8(static_cast<std::uint8_t>(std::numeric_limits<FloatT>::digits));
    writer.f64(system.config().epsilon);
    writer.u8(static_cast<std::uint8_t>(system.config().normalization));
  }

  static void checkMeta(ByteReader& reader, const System& system) {
    const std::uint8_t digits = reader.u8();
    const double epsilon = reader.f64();
    const std::uint8_t normalization = reader.u8();
    if (digits != static_cast<std::uint8_t>(std::numeric_limits<FloatT>::digits)) {
      std::ostringstream os;
      os << "snapshot holds " << static_cast<int>(digits)
         << "-bit-mantissa weights but the target table uses "
         << std::numeric_limits<FloatT>::digits << "-bit floats; cross-precision loads "
         << "are not supported (use qadd_snapshot convert)";
      throw SnapshotError(os.str());
    }
    if (epsilon != system.config().epsilon) {
      std::ostringstream os;
      os << "snapshot was written under tolerance eps=" << epsilon
         << " but the target table uses eps=" << system.config().epsilon
         << "; cross-tolerance loads are not supported (an eps-table's content is "
         << "only meaningful under its own tolerance)";
      throw SnapshotError(os.str());
    }
    if (normalization != static_cast<std::uint8_t>(system.config().normalization)) {
      throw SnapshotError(
          "snapshot was written under a different numeric normalization scheme; "
          "tolerance-mode re-normalization is not exact, so the load is rejected");
    }
  }

  static void writeWeight(ByteWriter& writer, const System& system,
                          typename System::Weight handle) {
    const typename System::Value value = system.valueOf(handle);
    detail::writeFloat<FloatT>(writer, value.re);
    detail::writeFloat<FloatT>(writer, value.im);
  }

  [[nodiscard]] static typename System::Weight readWeight(ByteReader& reader, System& system) {
    const FloatT re = detail::readFloat<FloatT>(reader);
    const FloatT im = detail::readFloat<FloatT>(reader);
    return system.fromValue(typename System::Value{re, im});
  }
};

// -- save / load ------------------------------------------------------------------

namespace detail {

struct ParsedSnapshot {
  DdKind kind;
  SystemTag system;
  std::uint16_t version;
  std::uint32_t qubits;
  std::span<const std::uint8_t> payload;
};

/// Validate magic/version/length/CRC and slice out the payload.
[[nodiscard]] ParsedSnapshot parseEnvelope(std::span<const std::uint8_t> bytes);

template <class System, class EdgeT>
[[nodiscard]] std::vector<std::uint8_t> saveDd(dd::Package<System>& package, const EdgeT& root,
                                               DdKind kind) {
  using NodeT = typename EdgeT::Node;
  using Weight = typename System::Weight;

  // Topological (children-before-parents) node order + dense ids.
  std::vector<const NodeT*> order;
  std::unordered_map<const NodeT*, std::uint64_t> ids;
  auto visit = [&](auto&& self, const NodeT* node) -> void {
    if (node == nullptr || ids.contains(node)) {
      return;
    }
    ids.emplace(node, std::uint64_t{0}); // DAG: safe to mark before descending
    for (const auto& child : node->e) {
      self(self, child.node);
    }
    ids[node] = order.size();
    order.push_back(node);
  };
  visit(visit, root.node);

  // Used weights.  Order-dependent (tolerance-mode) systems dump sorted
  // ascending by handle — the original interning order — so a reload into a
  // fresh table replays the same unification decisions.  Order-independent
  // systems dump in first-use order of the topological walk instead: their
  // handle values depend on the package's interning history (a serve session
  // keeps its package across jobs), but the walk depends only on the DD
  // itself, so the snapshot bytes depend only on the state (reload order is
  // immaterial when interning is exact).
  std::vector<Weight> dumpOrder;
  std::unordered_map<Weight, std::uint64_t> weightIndex;
  auto noteWeight = [&](Weight handle) {
    if (weightIndex.emplace(handle, dumpOrder.size()).second) {
      dumpOrder.push_back(handle);
    }
  };
  if (package.system().memoizationOrderDependent()) {
    std::set<Weight> used{root.w};
    for (const NodeT* node : order) {
      for (const auto& child : node->e) {
        used.insert(child.w);
      }
    }
    for (const Weight handle : used) {
      noteWeight(handle);
    }
  } else {
    for (const NodeT* node : order) {
      for (const auto& child : node->e) {
        noteWeight(child.w);
      }
    }
    noteWeight(root.w);
  }

  ByteWriter payload;
  SystemCodec<System>::writeMeta(payload, package.system());
  payload.varint(dumpOrder.size());
  payload.varint(order.size());
  for (const Weight handle : dumpOrder) {
    SystemCodec<System>::writeWeight(payload, package.system(), handle);
  }
  for (const NodeT* node : order) {
    payload.varint(node->var);
    for (const auto& child : node->e) {
      payload.varint(child.node == nullptr ? 0 : ids.at(child.node) + 1);
      payload.varint(weightIndex.at(child.w));
      // v2: the edge's entering level.  Canonical (makeNode enforces
      // node->var + 1 for stored non-terminal children, 0 for terminal
      // edges), so this is self-description + load-time validation; the
      // skip itself shows as child.node->var jumping past it.
      payload.varint(child.var);
    }
  }
  payload.varint(root.node == nullptr ? 0 : ids.at(root.node) + 1);
  payload.varint(weightIndex.at(root.w));
  // v2: the root edge's entering level — the only edge var that is not
  // derivable from node records (a root may skip from above its node).
  payload.varint(root.var);

  ByteWriter out;
  out.raw(kQddsMagic);
  out.u16(kQddsVersion);
  out.u8(static_cast<std::uint8_t>(kind));
  out.u8(static_cast<std::uint8_t>(SystemCodec<System>::kTag));
  out.u32(package.qubits());
  out.u64(payload.size());
  out.u32(0); // reserved
  out.raw(payload.bytes());
  out.u32(Crc32::of(out.bytes()));

  obs::IoStats& io = package.ioCounters();
  io.snapshotsSaved.inc();
  io.nodesWritten.inc(order.size());
  io.weightsWritten.inc(dumpOrder.size());
  io.bytesWritten.inc(out.size());
  return out.take();
}

template <class System, class EdgeT>
[[nodiscard]] EdgeT loadDd(dd::Package<System>& package, std::span<const std::uint8_t> bytes,
                           DdKind kind) {
  using Weight = typename System::Weight;
  constexpr std::size_t N = EdgeT::Node::kBranching;

  const ParsedSnapshot parsed = parseEnvelope(bytes);
  if (parsed.kind != kind) {
    throw SnapshotError(std::string("snapshot holds a ") + std::string(toString(parsed.kind)) +
                        " DD, but a " + std::string(toString(kind)) + " DD was requested");
  }
  if (parsed.system != SystemCodec<System>::kTag) {
    throw SnapshotError(std::string("snapshot was written by the ") +
                        std::string(toString(parsed.system)) +
                        " weight system and cannot load into a " +
                        std::string(toString(SystemCodec<System>::kTag)) +
                        " package (use qadd_snapshot convert)");
  }
  if (parsed.qubits != package.qubits()) {
    throw SnapshotError("snapshot register width (" + std::to_string(parsed.qubits) +
                        " qubits) does not match the target package (" +
                        std::to_string(package.qubits()) + ")");
  }

  ByteReader reader(parsed.payload);
  SystemCodec<System>::checkMeta(reader, package.system());
  const std::uint64_t weightCount = reader.varint();
  const std::uint64_t nodeCount = reader.varint();
  // Every record is at least one byte; cheap guard against absurd counts.
  if (weightCount > parsed.payload.size() || nodeCount > parsed.payload.size()) {
    throw SnapshotError("implausible record counts in snapshot payload");
  }

  std::vector<Weight> weights;
  weights.reserve(static_cast<std::size_t>(weightCount));
  for (std::uint64_t i = 0; i < weightCount; ++i) {
    weights.push_back(SystemCodec<System>::readWeight(reader, package.system()));
  }
  auto weightAt = [&](std::uint64_t index) -> Weight {
    if (index >= weights.size()) {
      throw SnapshotError("weight index out of range in node record");
    }
    return weights[static_cast<std::size_t>(index)];
  };

  // Rebuild bottom-up through the ordinary normalizing construction.  Stored
  // node weights are canonical, so makeNode returns a factor of one and the
  // rebuilt edge is {node, one}; if re-normalization does extract a factor
  // (cross-normalization algebraic load, or dedup against a live tolerance
  // table), it is folded into the parent edges, keeping the represented
  // function intact.  The rebuilt sub-edge keeps the entering level makeNode
  // assigned for the *stored* node's variable: when identity structure in a
  // v1 snapshot collapses into skip edges during rebuild, that level is
  // exactly where the vanished structure used to begin.
  const std::size_t liveBefore = package.allocatedNodes();
  std::vector<EdgeT> built;
  built.reserve(static_cast<std::size_t>(nodeCount));
  auto edgeTo = [&](std::uint64_t nodeRef, Weight w) -> EdgeT {
    if (nodeRef == 0) {
      return EdgeT{nullptr, w};
    }
    if (nodeRef > built.size()) {
      throw SnapshotError("node record references a not-yet-defined node "
                          "(snapshot is not in topological order)");
    }
    const EdgeT& sub = built[static_cast<std::size_t>(nodeRef - 1)];
    if (package.system().isZero(w) || package.system().isZero(sub.w)) {
      return EdgeT{nullptr, package.system().zero()};
    }
    return EdgeT{sub.node, package.system().mul(w, sub.w), sub.var};
  };
  const bool hasEdgeVars = parsed.version >= 2;
  for (std::uint64_t i = 0; i < nodeCount; ++i) {
    const std::uint64_t var = reader.varint();
    if (var >= package.qubits()) {
      throw SnapshotError("node variable out of range in snapshot");
    }
    std::array<EdgeT, N> children;
    for (std::size_t c = 0; c < N; ++c) {
      const std::uint64_t nodeRef = reader.varint();
      const Weight w = weightAt(reader.varint());
      children[c] = edgeTo(nodeRef, w);
      if (hasEdgeVars) {
        // Stored child edge vars are canonical by construction; reject
        // anything else rather than silently re-canonicalize corrupt input.
        const std::uint64_t childVar = reader.varint();
        if (childVar != (nodeRef == 0 ? 0 : var + 1)) {
          throw SnapshotError("non-canonical child edge level in snapshot");
        }
      }
    }
    if constexpr (N == 2) {
      built.push_back(package.makeVNode(static_cast<dd::Qubit>(var), children));
    } else {
      built.push_back(package.makeMNode(static_cast<dd::Qubit>(var), children));
    }
  }
  const std::uint64_t rootRef = reader.varint();
  const Weight rootW = weightAt(reader.varint());
  EdgeT root = edgeTo(rootRef, rootW);
  if (hasEdgeVars) {
    // v2 stores the root's entering level explicitly (the root may skip
    // from above its node); v1 roots enter at the stored top node's level.
    const std::uint64_t rootVar = reader.varint();
    if (root.node == nullptr) {
      if (rootVar != 0) {
        throw SnapshotError("non-canonical root edge level in snapshot");
      }
    } else {
      if (rootVar > root.var || rootVar >= package.qubits()) {
        throw SnapshotError("root edge level out of range in snapshot");
      }
      root.var = static_cast<dd::Qubit>(rootVar);
    }
  }
  if (!reader.atEnd()) {
    throw SnapshotError("trailing bytes in snapshot payload");
  }

  obs::IoStats& io = package.ioCounters();
  io.snapshotsLoaded.inc();
  io.nodesRead.inc(nodeCount);
  io.weightsRead.inc(weightCount);
  io.bytesRead.inc(bytes.size());
  const std::size_t created = package.allocatedNodes() - liveBefore;
  io.loadDedupNodes.inc(static_cast<std::uint64_t>(nodeCount) - created);
  return root;
}

} // namespace detail

/// Serialize a vector DD rooted at `root` (which must live in `package`).
template <class System>
[[nodiscard]] std::vector<std::uint8_t> saveVector(dd::Package<System>& package,
                                                   const typename dd::Package<System>::VEdge& root) {
  return detail::saveDd<System>(package, root, DdKind::Vector);
}

/// Serialize a matrix DD.
template <class System>
[[nodiscard]] std::vector<std::uint8_t> saveMatrix(dd::Package<System>& package,
                                                   const typename dd::Package<System>::MEdge& root) {
  return detail::saveDd<System>(package, root, DdKind::Matrix);
}

/// Rebuild a vector DD from a snapshot, re-interning every node and weight
/// through `package`'s tables.  The caller owns the returned edge (incRef it
/// to protect it across garbage collections).  \throws SnapshotError on
/// corruption or any system/width/tolerance mismatch.
template <class System>
[[nodiscard]] typename dd::Package<System>::VEdge
loadVector(dd::Package<System>& package, std::span<const std::uint8_t> bytes) {
  return detail::loadDd<System, typename dd::Package<System>::VEdge>(package, bytes,
                                                                     DdKind::Vector);
}

/// Rebuild a matrix DD from a snapshot.
template <class System>
[[nodiscard]] typename dd::Package<System>::MEdge
loadMatrix(dd::Package<System>& package, std::span<const std::uint8_t> bytes) {
  return detail::loadDd<System, typename dd::Package<System>::MEdge>(package, bytes,
                                                                     DdKind::Matrix);
}

// -- algebraic -> numeric conversion ----------------------------------------------

namespace detail {

template <class NumSystem, class AlgEdge, class NumEdge>
[[nodiscard]] NumEdge convertEdge(const dd::Package<dd::AlgebraicSystem>& in, const AlgEdge& edge,
                                  dd::Package<NumSystem>& out,
                                  std::unordered_map<const void*, NumEdge>& memo) {
  using Value = typename NumSystem::Value;
  using Float = typename NumSystem::Float;
  const std::complex<double> z = in.system().value(edge.w).toComplex();
  const typename NumSystem::Weight w =
      out.system().fromValue(Value{static_cast<Float>(z.real()), static_cast<Float>(z.imag())});
  if (out.system().isZero(w)) {
    return NumEdge{nullptr, out.system().zero()};
  }
  if (edge.isTerminal()) {
    return NumEdge{nullptr, w};
  }
  NumEdge sub;
  if (const auto it = memo.find(edge.node); it != memo.end()) {
    sub = it->second;
  } else {
    constexpr std::size_t N = NumEdge::Node::kBranching;
    std::array<NumEdge, N> children;
    for (std::size_t c = 0; c < N; ++c) {
      children[c] = convertEdge<NumSystem, AlgEdge, NumEdge>(in, edge.node->e[c], out, memo);
    }
    if constexpr (N == 2) {
      sub = out.makeVNode(edge.node->var, children);
    } else {
      sub = out.makeMNode(edge.node->var, children);
    }
    memo.emplace(edge.node, sub);
  }
  if (out.system().isZero(sub.w)) {
    return NumEdge{nullptr, out.system().zero()};
  }
  return NumEdge{sub.node, out.system().mul(w, sub.w)};
}

} // namespace detail

/// Rebuild an algebraic vector DD in a numeric package: every exact Q[omega]
/// edge weight is rounded once to the target float type, then the diagram is
/// re-normalized and re-interned under the target ε-table.  This is the
/// engine behind `qadd_snapshot convert`.
template <class NumSystem>
[[nodiscard]] typename dd::Package<NumSystem>::VEdge
convertVector(const dd::Package<dd::AlgebraicSystem>& in,
              const typename dd::Package<dd::AlgebraicSystem>::VEdge& root,
              dd::Package<NumSystem>& out) {
  if (in.qubits() != out.qubits()) {
    throw SnapshotError("convertVector: register width mismatch");
  }
  std::unordered_map<const void*, typename dd::Package<NumSystem>::VEdge> memo;
  return detail::convertEdge<NumSystem, typename dd::Package<dd::AlgebraicSystem>::VEdge,
                             typename dd::Package<NumSystem>::VEdge>(in, root, out, memo);
}

/// Matrix counterpart of convertVector.
template <class NumSystem>
[[nodiscard]] typename dd::Package<NumSystem>::MEdge
convertMatrix(const dd::Package<dd::AlgebraicSystem>& in,
              const typename dd::Package<dd::AlgebraicSystem>::MEdge& root,
              dd::Package<NumSystem>& out) {
  if (in.qubits() != out.qubits()) {
    throw SnapshotError("convertMatrix: register width mismatch");
  }
  std::unordered_map<const void*, typename dd::Package<NumSystem>::MEdge> memo;
  return detail::convertEdge<NumSystem, typename dd::Package<dd::AlgebraicSystem>::MEdge,
                             typename dd::Package<NumSystem>::MEdge>(in, root, out, memo);
}

} // namespace qadd::io
