/// \file test_skip_edges.cpp
/// The skip-level edge contract: matrix edges whose var lies above their
/// node's variable carry an implicit identity on the skipped levels, and
/// this skipped form is the only representation of an operator.
/// Covered here:
///  - canonicalization (makeNode identity collapse, unique-table canonicity,
///    gate node counts independent of register width, and a walk over whole
///    circuit unitaries: no diag(c, 0, 0, c) node, every stored child enters
///    one level below its parent);
///  - the end-to-end property test: random Clifford+T circuits simulated
///    under both weight systems and every epsilon mode match a dense
///    reference built without any DD code, and their final-state snapshot
///    bytes match recorded hashes;
///  - QDDS round trips of skip edges and load-compat for v1 / v2 matrix
///    snapshots that store explicit identity towers (they collapse on load);
///  - the profiler's per-level skipped counters.
#include "core/export.hpp"
#include "core/package.hpp"
#include "io/snapshot.hpp"
#include "obs/profiler.hpp"
#include "qc/circuit.hpp"
#include "qc/gates.hpp"
#include "qc/simulator.hpp"
#include "reference.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <cstdint>
#include <random>
#include <set>
#include <vector>

namespace {

using namespace qadd;
using dd::AlgebraicSystem;
using dd::NumericSystem;

template <class System> typename dd::Package<System>::GateMatrix gateOf(dd::Package<System>& p, qc::GateKind kind) {
  if constexpr (System::kExact) {
    const auto m = qc::algebraicMatrix(kind);
    return {p.system().intern(m[0]), p.system().intern(m[1]), p.system().intern(m[2]),
            p.system().intern(m[3])};
  } else {
    const auto m = qc::complexMatrix(kind);
    return {p.system().fromComplex(m[0]), p.system().fromComplex(m[1]),
            p.system().fromComplex(m[2]), p.system().fromComplex(m[3])};
  }
}

// -- canonicalization -----------------------------------------------------------

TEST(SkipEdges, GateNodeCountIndependentOfRegisterWidth) {
  for (const dd::Qubit n : {2U, 8U, 33U, 64U}) {
    dd::Package<AlgebraicSystem> p(n);
    for (const dd::Qubit target : {dd::Qubit{0}, n / 2, n - 1}) {
      const auto h = p.makeGate(gateOf(p, qc::GateKind::H), target);
      EXPECT_EQ(p.countNodes(h), 1U) << "n=" << n << " target=" << target;
      EXPECT_EQ(h.var, 0U) << "gate DDs enter at the top level";
      EXPECT_EQ(h.node->var, target) << "the only node sits at the active level";
    }
    // CX: one control node, one target node — regardless of n and the
    // control-target gap.
    const qc::Operation cx{qc::GateKind::X, 0.0, n - 1, {{0, true}}};
    const auto gate = qc::makeOperationDD(p, cx);
    EXPECT_EQ(p.countNodes(gate), 2U) << "n=" << n;
  }
}

TEST(SkipEdges, MakeNodeCollapsesIdentityPattern) {
  using Pkg = dd::Package<AlgebraicSystem>;
  Pkg p(4);
  const auto t = p.makeGate(gateOf(p, qc::GateKind::T), 2);
  const std::size_t live = p.allocatedNodes();
  // diag(c, c) with equal child edges must come back as the child itself
  // (entering one level higher), allocating nothing.
  const auto zero = Pkg::MEdge{nullptr, p.system().zero()};
  const auto collapsed = p.makeMNode(1, {t, zero, zero, t});
  EXPECT_EQ(p.allocatedNodes(), live);
  EXPECT_EQ(collapsed.node, t.node);
  EXPECT_EQ(collapsed.var, 1U);
  EXPECT_EQ(collapsed.w, t.w);
}

TEST(SkipEdges, IdentityAndTraceAreNodeFree) {
  dd::Package<AlgebraicSystem> p(6);
  const auto identity = p.makeIdentity();
  EXPECT_TRUE(identity.isTerminal());
  EXPECT_EQ(p.countNodes(identity), 0U);
  // trace(I) = 2^n, computed straight off the implicit-identity extent.
  EXPECT_EQ(p.system().value(p.trace(identity)), alg::QOmega{64});
  // trace(H (x) I ... I) = 0: one materialized node, five skipped levels.
  const auto h = p.makeGate(gateOf(p, qc::GateKind::H), 3);
  EXPECT_TRUE(p.system().isZero(p.trace(h)));
  // trace(T (x) I^5) = (1 + omega) * 2^5.
  const auto t = p.makeGate(gateOf(p, qc::GateKind::T), 0);
  EXPECT_EQ(p.system().value(p.trace(t)),
            (alg::QOmega{1} + alg::QOmega::omega()) * alg::QOmega{32});
}

TEST(SkipEdges, SkippedAndMaterializedFormsCannotCoexist) {
  // Multiplying through identities, conjugating, kron with identity — every
  // route to "H on qubit 1 of 4" must land on the same canonical edge.
  dd::Package<AlgebraicSystem> p(4);
  const auto h = p.makeGate(gateOf(p, qc::GateKind::H), 1);
  const auto viaMultiply = p.multiply(h, p.makeIdentity());
  EXPECT_TRUE(viaMultiply == h);
  const auto viaTranspose = p.conjugateTranspose(h);
  EXPECT_TRUE(viaTranspose == h) << "H is Hermitian";
  const auto hh = p.multiply(h, h);
  EXPECT_TRUE(hh == p.makeIdentity()) << "H^2 collapses back to the terminal identity";
}

// -- the property test against a DD-free oracle ---------------------------------

qc::Circuit randomCliffordT(std::uint64_t seed, qc::Qubit nqubits, std::size_t gates) {
  std::mt19937_64 rng(seed);
  const qc::GateKind kinds[] = {qc::GateKind::H, qc::GateKind::X,   qc::GateKind::S,
                                qc::GateKind::T, qc::GateKind::Tdg, qc::GateKind::Z};
  qc::Circuit circuit(nqubits, "skip-prop");
  for (std::size_t i = 0; i < gates; ++i) {
    const auto kind = kinds[rng() % std::size(kinds)];
    const auto target = static_cast<qc::Qubit>(rng() % nqubits);
    std::vector<qc::ControlSpec> controls;
    if (rng() % 3 == 0) {
      const auto control = static_cast<qc::Qubit>(rng() % nqubits);
      if (control != target) {
        controls.push_back({control, true});
      }
    }
    circuit.append({kind, 0.0, target, std::move(controls)});
  }
  return circuit;
}

/// Simulates `circuit` and checks the final state against the dense
/// reference (amplitudes within `tolerance`) and its QDDS bytes against the
/// recorded FNV-1a hash.
template <class System>
void expectMatchesReference(const qc::Circuit& circuit, typename System::Config config,
                            std::uint64_t recordedHash, double tolerance) {
  qc::Simulator<System> simulator(circuit, config);
  simulator.run();
  EXPECT_EQ(reference::fnv1a(io::saveVector(simulator.package(), simulator.state())),
            recordedHash)
      << "final-state snapshot bytes changed";
  const la::Vector expected = reference::denseSimulate(circuit);
  const auto amplitudes = simulator.package().amplitudes(simulator.state());
  for (std::size_t i = 0; i < expected.dimension(); ++i) {
    EXPECT_LE(std::abs(amplitudes[i] - expected[i]), tolerance) << "index " << i;
  }
}

NumericSystem::Config numericConfig(double epsilon) {
  return {epsilon, NumericSystem::Normalization::LeftmostNonzero};
}

// Circuits of the property tests: randomCliffordT(seed, 6, 40).
constexpr std::uint64_t kAlgebraicSeeds[] = {7, 8, 9};
constexpr std::uint64_t kNumericSeeds[] = {11, 12};
constexpr double kEpsilons[] = {0.0, 1e-10, 1e-5};

TEST(SkipEdges, AlgebraicApplyMatchesDenseReference) {
  // FNV-1a of the final-state QDDS, per seed.
  constexpr std::uint64_t kRecorded[] = {3129257996579943382ULL, 1735741294501657948ULL,
                                          10087668115707551003ULL};
  for (std::size_t i = 0; i < std::size(kAlgebraicSeeds); ++i) {
    expectMatchesReference<AlgebraicSystem>(randomCliffordT(kAlgebraicSeeds[i], 6, 40), {},
                                            kRecorded[i], 1e-12);
  }
}

TEST(SkipEdges, NumericApplyMatchesDenseReferenceAllEpsilonModes) {
  // FNV-1a of the final-state QDDS, per seed and epsilon.
  constexpr std::uint64_t kRecorded[std::size(kNumericSeeds)][std::size(kEpsilons)] = {
      {9285221538663028160ULL, 15454585801024281217ULL, 13841998322070718713ULL},
      {5796444926707159034ULL, 11831960530561603101ULL, 17433195367042522489ULL}};
  for (std::size_t i = 0; i < std::size(kNumericSeeds); ++i) {
    const qc::Circuit circuit = randomCliffordT(kNumericSeeds[i], 6, 40);
    for (std::size_t j = 0; j < std::size(kEpsilons); ++j) {
      SCOPED_TRACE(testing::Message() << "seed " << kNumericSeeds[i] << " eps " << kEpsilons[j]);
      expectMatchesReference<NumericSystem>(circuit, numericConfig(kEpsilons[j]), kRecorded[i][j],
                                            std::max(1e-12, 10.0 * kEpsilons[j]));
    }
  }
}

/// Walks every node reachable from `root`: none may hold the collapsible
/// diag(c, 0, 0, c) pattern, and every non-terminal child must enter exactly
/// one level below its parent (skips live only in the difference between an
/// edge's entering level and its node's variable).
template <class System>
void expectSkipCanonical(const dd::Package<System>& p,
                         const typename dd::Package<System>::MEdge& root) {
  using MNode = typename dd::Package<System>::MNode;
  std::set<const MNode*> seen;
  std::vector<const MNode*> pending{root.node};
  while (!pending.empty()) {
    const MNode* node = pending.back();
    pending.pop_back();
    if (node == nullptr || !seen.insert(node).second) {
      continue;
    }
    const auto& e = node->e;
    const bool zeroOffDiagonal = e[1].isTerminal() && p.system().isZero(e[1].w) &&
                                 e[2].isTerminal() && p.system().isZero(e[2].w);
    EXPECT_FALSE(zeroOffDiagonal && e[0] == e[3] && !p.system().isZero(e[0].w))
        << "identity-pattern node at var " << node->var;
    for (const auto& child : e) {
      if (!child.isTerminal()) {
        EXPECT_EQ(child.var, node->var + 1) << "child of a var-" << node->var << " node";
        pending.push_back(child.node);
      }
    }
  }
  EXPECT_GT(seen.size(), 0U) << "a random circuit's unitary has nodes";
}

TEST(SkipEdges, CircuitUnitariesAreSkipCanonical) {
  for (const std::uint64_t seed : kAlgebraicSeeds) {
    dd::Package<AlgebraicSystem> p(6);
    expectSkipCanonical(p, qc::buildUnitary(p, randomCliffordT(seed, 6, 40)));
  }
  for (const std::uint64_t seed : kNumericSeeds) {
    for (const double epsilon : kEpsilons) {
      dd::Package<NumericSystem> p(6, numericConfig(epsilon));
      expectSkipCanonical(p, qc::buildUnitary(p, randomCliffordT(seed, 6, 40)));
    }
  }
}

TEST(SkipEdges, UnitaryBuildMatchesDenseReference) {
  const qc::Circuit circuit = randomCliffordT(21, 4, 25);
  dd::Package<AlgebraicSystem> p(4);
  const la::Matrix dense = dd::toDenseMatrix(p, qc::buildUnitary(p, circuit));
  EXPECT_LE(la::Matrix::maxAbsDifference(dense, reference::denseUnitary(circuit)), 1e-12);
}

// -- serialization --------------------------------------------------------------

TEST(SkipEdges, MatrixSnapshotRoundTripsSkipEdges) {
  dd::Package<AlgebraicSystem> p(6);
  const auto h = p.makeGate(gateOf(p, qc::GateKind::H), 3);
  const auto bytes = io::saveMatrix(p, h);
  EXPECT_EQ(io::readInfo(bytes).nodeCount, 1U) << "skipped levels serialize no nodes";
  const auto loaded = io::loadMatrix(p, bytes);
  EXPECT_TRUE(loaded == h) << "same node, weight, and entering level";
  // The node-free identity round-trips as a pure root record.
  const auto identityBytes = io::saveMatrix(p, p.makeIdentity());
  EXPECT_EQ(io::readInfo(identityBytes).nodeCount, 0U);
  EXPECT_TRUE(io::loadMatrix(p, identityBytes) == p.makeIdentity());
}

/// QDDS bytes of a numeric matrix DD stored the way writers without skip
/// edges stored it: a tower of one diagonal node per level, written
/// bottom-up, diag(1, phase) at `target` and diag(1, 1) on every other level.
/// v1 records carry no edge levels; v2 appends the entering level of every
/// child edge (var + 1, or 0 for the terminal) and of the root (0) — the only
/// difference between the two byte layouts.
std::vector<std::uint8_t> diagonalTowerSnapshot(std::uint16_t version, dd::Qubit nqubits,
                                                dd::Qubit target, std::complex<double> phase) {
  using Codec = io::SystemCodec<NumericSystem>;
  NumericSystem system(numericConfig(0.0));
  const bool identity = phase == std::complex<double>{1.0};
  io::ByteWriter payload;
  Codec::writeMeta(payload, system);
  payload.varint(identity ? 2 : 3); // weights: [one, zero, phase]
  payload.varint(nqubits);          // nodes: the var nqubits-1 .. 0 tower
  Codec::writeWeight(payload, system, system.one());
  Codec::writeWeight(payload, system, system.zero());
  if (!identity) {
    Codec::writeWeight(payload, system, system.fromComplex(phase));
  }
  const auto edge = [&](std::uint64_t nodeRef, std::uint64_t weight, std::uint64_t var) {
    payload.varint(nodeRef); // 0 = terminal, k = k-th node record
    payload.varint(weight);
    if (version >= 2) {
      payload.varint(nodeRef == 0 ? 0 : var + 1);
    }
  };
  for (std::uint64_t level = 0; level < nqubits; ++level) {
    const std::uint64_t var = nqubits - 1 - level;
    payload.varint(var);
    edge(level, 0, var); // the previous record, weight one
    edge(0, 1, var);     // zero stubs
    edge(0, 1, var);
    edge(level, var == target && !identity ? 2 : 0, var);
  }
  payload.varint(nqubits); // root -> top node, weight one
  payload.varint(0);
  if (version >= 2) {
    payload.varint(0);
  }

  io::ByteWriter file;
  file.raw(io::kQddsMagic);
  file.u16(version);
  file.u8(static_cast<std::uint8_t>(io::DdKind::Matrix));
  file.u8(static_cast<std::uint8_t>(io::SystemTag::Numeric));
  file.u32(nqubits);
  file.u64(payload.size());
  file.u32(0);
  file.raw(payload.bytes());
  file.u32(io::Crc32::of(file.bytes()));
  return file.take();
}

TEST(SkipEdges, MaterializedMatrixSnapshotCollapsesOnLoad) {
  // A v2 snapshot that stores T on qubit 2 of 5 as an explicit identity
  // tower (as writers before skip-only matrices could) loads as the
  // canonical one-node gate.
  const auto bytes = diagonalTowerSnapshot(2, 5, 2, qc::complexMatrix(qc::GateKind::T)[3]);
  EXPECT_EQ(io::readInfo(bytes).version, 2U);
  EXPECT_EQ(io::readInfo(bytes).nodeCount, 5U);

  dd::Package<NumericSystem> p(5, numericConfig(0.0));
  const auto loaded = io::loadMatrix(p, bytes);
  EXPECT_EQ(p.countNodes(loaded), 1U);
  EXPECT_TRUE(loaded == p.makeGate(gateOf(p, qc::GateKind::T), 2));
}

TEST(SkipEdges, V1MatrixIdentityTowerLoadsAndCollapses) {
  // QDDS v1 (no edge-level records) of the 3-qubit identity as the old
  // representation stored it: a tower of three diagonal nodes.  The reader
  // must accept it and collapse the tower to the terminal edge.
  const auto bytes = diagonalTowerSnapshot(1, 3, 0, 1.0);
  EXPECT_EQ(io::readInfo(bytes).version, 1U);

  dd::Package<NumericSystem> p(3, numericConfig(0.0));
  const std::size_t live = p.allocatedNodes();
  const auto loaded = io::loadMatrix(p, bytes);
  EXPECT_TRUE(loaded == p.makeIdentity()) << "tower collapses to the terminal identity";
  EXPECT_EQ(p.allocatedNodes(), live) << "no tower node survives the rebuild";
}

// -- observability --------------------------------------------------------------

TEST(SkipEdges, ProfilerCountsSkippedLevels) {
  dd::Package<AlgebraicSystem> p(8);
  const auto h = p.makeGate(gateOf(p, qc::GateKind::H), 3);
  const obs::DdProfile profile = obs::profileDd(p, h);
  EXPECT_EQ(profile.totalNodes, 1U);
  ASSERT_EQ(profile.levels.size(), 8U);
  for (std::size_t level = 0; level < 8; ++level) {
    if (level == 3) {
      EXPECT_EQ(profile.levels[level].nodes, 1U);
      EXPECT_EQ(profile.levels[level].skippedBy, 0U);
    } else {
      EXPECT_EQ(profile.levels[level].nodes, 0U);
      EXPECT_GE(profile.levels[level].skippedBy, 1U) << "level " << level;
    }
  }
  // H on every qubit has a node on every level: zero skips everywhere.
  auto hAll = p.makeIdentity();
  for (dd::Qubit q = 0; q < 8; ++q) {
    hAll = p.multiply(p.makeGate(gateOf(p, qc::GateKind::H), q), hAll);
  }
  const obs::DdProfile fullProfile = obs::profileDd(p, hAll);
  EXPECT_EQ(fullProfile.totalNodes, 8U);
  for (const obs::LevelProfile& level : fullProfile.levels) {
    EXPECT_EQ(level.nodes, 1U);
    EXPECT_EQ(level.skippedBy, 0U);
  }
}

} // namespace
