/// \file test_skip_edges.cpp
/// The skip-level edge contract: matrix edges whose var lies above their
/// node's variable carry an implicit identity on the skipped levels.
/// Covered here:
///  - canonicalization (makeNode identity collapse, unique-table canonicity,
///    gate node counts independent of register width);
///  - the end-to-end property test: random Clifford+T circuits simulated
///    with and without skipping produce identical snapshot bytes and
///    amplitudes, under both weight systems and every epsilon mode;
///  - QDDS round trips of skip edges and load-compat for v1 / materialized
///    matrix snapshots (identity towers collapse on load);
///  - the profiler's per-level skipped counters.
#include "core/export.hpp"
#include "core/package.hpp"
#include "io/snapshot.hpp"
#include "obs/profiler.hpp"
#include "qc/circuit.hpp"
#include "qc/gates.hpp"
#include "qc/simulator.hpp"

#include <gtest/gtest.h>

#include <complex>
#include <cstdint>
#include <random>
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

TEST(SkipEdges, DisabledModeMaterializesTowers) {
  AlgebraicSystem::Config config;
  config.skipIdentities = false;
  dd::Package<AlgebraicSystem> p(8, config);
  EXPECT_FALSE(p.skipIdentities());
  EXPECT_EQ(p.countNodes(p.makeIdentity()), 8U);
  EXPECT_EQ(p.countNodes(p.makeGate(gateOf(p, qc::GateKind::H), 3)), 8U);
}

// -- the with/without-skipping property test ------------------------------------

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

struct RunResult {
  std::vector<std::uint8_t> snapshot;
  std::vector<std::complex<double>> amplitudes;
};

template <class System>
RunResult simulate(const qc::Circuit& circuit, typename System::Config config, bool skip) {
  config.skipIdentities = skip;
  qc::Simulator<System> simulator(circuit, config);
  while (simulator.step()) {
  }
  return {io::saveVector(simulator.package(), simulator.state()),
          simulator.package().amplitudes(simulator.state())};
}

template <class System>
void expectSkipInvariant(const qc::Circuit& circuit, typename System::Config config) {
  const RunResult with = simulate<System>(circuit, config, true);
  const RunResult without = simulate<System>(circuit, config, false);
  EXPECT_EQ(with.snapshot, without.snapshot)
      << "final-state snapshot bytes must not depend on identity skipping";
  EXPECT_EQ(with.amplitudes, without.amplitudes);
}

TEST(SkipEdges, AlgebraicApplyMatchesMaterialized) {
  for (const std::uint64_t seed : {7ULL, 8ULL, 9ULL}) {
    expectSkipInvariant<AlgebraicSystem>(randomCliffordT(seed, 6, 40), {});
  }
}

TEST(SkipEdges, NumericApplyMatchesMaterializedAllEpsilonModes) {
  for (const std::uint64_t seed : {11ULL, 12ULL}) {
    const qc::Circuit circuit = randomCliffordT(seed, 6, 40);
    for (const double epsilon : {0.0, 1e-10, 1e-5}) {
      expectSkipInvariant<NumericSystem>(circuit,
                                         {epsilon, NumericSystem::Normalization::LeftmostNonzero});
    }
  }
}

TEST(SkipEdges, UnitaryBuildMatchesDenseReference) {
  const qc::Circuit circuit = randomCliffordT(21, 4, 25);
  AlgebraicSystem::Config materialized;
  materialized.skipIdentities = false;
  dd::Package<AlgebraicSystem> skipPkg(4);
  dd::Package<AlgebraicSystem> matPkg(4, materialized);
  const auto skipU = qc::buildUnitary(skipPkg, circuit);
  const auto matU = qc::buildUnitary(matPkg, circuit);
  const la::Matrix skipDense = dd::toDenseMatrix(skipPkg, skipU);
  const la::Matrix matDense = dd::toDenseMatrix(matPkg, matU);
  EXPECT_LE(la::Matrix::maxAbsDifference(skipDense, matDense), 1e-12);
  EXPECT_LE(skipPkg.countNodes(skipU), matPkg.countNodes(matU))
      << "skipping never represents the same operator with more nodes";
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

TEST(SkipEdges, MaterializedMatrixSnapshotCollapsesOnLoad) {
  // A v2 snapshot written by a skip-disabled package holds explicit identity
  // towers; loading it into a skip-enabled package re-canonicalizes them
  // away.
  AlgebraicSystem::Config materialized;
  materialized.skipIdentities = false;
  dd::Package<AlgebraicSystem> writer(5, materialized);
  const auto bytes = io::saveMatrix(writer, writer.makeGate(gateOf(writer, qc::GateKind::T), 2));
  EXPECT_EQ(io::readInfo(bytes).nodeCount, 5U);

  dd::Package<AlgebraicSystem> reader(5);
  const auto loaded = io::loadMatrix(reader, bytes);
  EXPECT_EQ(reader.countNodes(loaded), 1U);
  EXPECT_TRUE(loaded == reader.makeGate(gateOf(reader, qc::GateKind::T), 2));
}

TEST(SkipEdges, V1MatrixIdentityTowerLoadsAndCollapses) {
  // Hand-written QDDS v1 (no edge-level records) of the 3-qubit identity as
  // the old representation stored it: a tower of three diagonal nodes.  The
  // v2 reader must accept it and collapse the tower to the terminal edge.
  using Codec = io::SystemCodec<NumericSystem>;
  NumericSystem system({0.0, NumericSystem::Normalization::LeftmostNonzero});
  io::ByteWriter payload;
  Codec::writeMeta(payload, system);
  payload.varint(2); // weights: [one, zero]
  payload.varint(3); // nodes: the var 2..0 tower
  Codec::writeWeight(payload, system, system.one());
  Codec::writeWeight(payload, system, system.zero());
  for (std::uint64_t level = 0; level < 3; ++level) {
    payload.varint(2 - level);              // var, bottom-up
    payload.varint(level);                  // e[0] -> previous record (0 = terminal)
    payload.varint(0);                      // weight one
    payload.varint(0);                      // e[1] -> zero stub
    payload.varint(1);
    payload.varint(0);                      // e[2] -> zero stub
    payload.varint(1);
    payload.varint(level);                  // e[3] -> previous record
    payload.varint(0);
  }
  payload.varint(3); // root -> top node
  payload.varint(0);

  io::ByteWriter file;
  file.raw(io::kQddsMagic);
  file.u16(1); // v1 envelope
  file.u8(static_cast<std::uint8_t>(io::DdKind::Matrix));
  file.u8(static_cast<std::uint8_t>(io::SystemTag::Numeric));
  file.u32(3);
  file.u64(payload.size());
  file.u32(0);
  file.raw(payload.bytes());
  file.u32(io::Crc32::of(file.bytes()));
  const std::vector<std::uint8_t> bytes = file.take();
  EXPECT_EQ(io::readInfo(bytes).version, 1U);

  dd::Package<NumericSystem> p(3, {0.0, NumericSystem::Normalization::LeftmostNonzero});
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
  // Fully materialized diagrams report zero skips everywhere.
  AlgebraicSystem::Config materialized;
  materialized.skipIdentities = false;
  dd::Package<AlgebraicSystem> m(8, materialized);
  const obs::DdProfile matProfile = obs::profileDd(m, m.makeGate(gateOf(m, qc::GateKind::H), 3));
  for (const obs::LevelProfile& level : matProfile.levels) {
    EXPECT_EQ(level.skippedBy, 0U);
  }
}

} // namespace
