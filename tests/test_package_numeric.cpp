#include "core/export.hpp"
#include "core/numeric_system.hpp"
#include "core/package.hpp"
#include "linalg/dense.hpp"
#include "qc/gates.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

namespace qadd::dd {
namespace {

using Pkg = Package<NumericSystem>;

NumericSystem::Config exactConfig() {
  return {0.0, NumericSystem::Normalization::LeftmostNonzero};
}

Pkg::GateMatrix gateOf(Pkg& p, qc::GateKind kind) {
  const auto m = qc::complexMatrix(kind);
  return {p.system().fromComplex(m[0]), p.system().fromComplex(m[1]),
          p.system().fromComplex(m[2]), p.system().fromComplex(m[3])};
}

TEST(NumericPackage, ZeroStateAmplitudes) {
  Pkg p(3, exactConfig());
  const auto state = p.makeZeroState();
  const auto amplitudes = p.amplitudes(state);
  ASSERT_EQ(amplitudes.size(), 8U);
  EXPECT_EQ(amplitudes[0], std::complex<double>(1.0, 0.0));
  for (std::size_t i = 1; i < 8; ++i) {
    EXPECT_EQ(amplitudes[i], std::complex<double>(0.0, 0.0));
  }
  EXPECT_EQ(p.countNodes(state), 3U);
}

TEST(NumericPackage, BasisStateIndexConvention) {
  Pkg p(3, exactConfig());
  const bool bits[] = {true, false, true}; // |101>: qubit 0 (top) = 1
  const auto state = p.makeBasisState(bits);
  const auto amplitudes = p.amplitudes(state);
  // Top qubit is the most significant bit: index 0b101 = 5.
  EXPECT_EQ(amplitudes[5], std::complex<double>(1.0, 0.0));
  EXPECT_EQ(p.amplitude(state, bits), std::complex<double>(1.0, 0.0));
}

TEST(NumericPackage, IdentityIsTerminalSkipEdge) {
  // With skip-level edges the identity needs no nodes at all: it is the
  // non-zero terminal edge (implicit identity over the whole context).
  Pkg p(4, exactConfig());
  const auto identity = p.makeIdentity();
  EXPECT_TRUE(identity.isTerminal());
  EXPECT_EQ(p.countNodes(identity), 0U);
  const la::Matrix dense = toDenseMatrix(p, identity);
  EXPECT_LE(la::Matrix::maxAbsDifference(dense, la::Matrix::identity(16)), 1e-14);
}

TEST(NumericPackage, PaperFig1HadamardKronIdentity) {
  // U = H (x) I_2: the worked example of the paper (Fig. 1).  The classic
  // QMDD has two nodes (one q0 node, one shared q1 identity node); with
  // skip-level edges the identity on q1 is implicit and only the H node
  // remains.
  Pkg p(2, exactConfig());
  const auto u = p.makeGate(gateOf(p, qc::GateKind::H), 0);
  EXPECT_EQ(p.countNodes(u), 1U);
  const la::Matrix dense = toDenseMatrix(p, u);
  const double s = 1.0 / std::sqrt(2.0);
  la::Matrix expected(4);
  expected.at(0, 0) = s;
  expected.at(1, 1) = s;
  expected.at(0, 2) = s;
  expected.at(1, 3) = s;
  expected.at(2, 0) = s;
  expected.at(3, 1) = s;
  expected.at(2, 2) = -s;
  expected.at(3, 3) = -s;
  EXPECT_LE(la::Matrix::maxAbsDifference(dense, expected), 1e-14);
}

TEST(NumericPackage, MakeNodeIsCanonical) {
  // Building the same node twice must return the same pointer (unique table).
  Pkg p(1, exactConfig());
  const auto h1 = p.makeGate(gateOf(p, qc::GateKind::H), 0);
  const auto h2 = p.makeGate(gateOf(p, qc::GateKind::H), 0);
  EXPECT_EQ(h1.node, h2.node);
  EXPECT_EQ(h1.w, h2.w);
  EXPECT_EQ(h1, h2);
}

TEST(NumericPackage, ScalarMultiplesShareStructure) {
  // Nodes differing only by a scalar factor must collapse to the same node
  // (the QMDD weighted-edge property, Example 3 of the paper).
  Pkg p(1, exactConfig());
  const auto z = p.makeGate(gateOf(p, qc::GateKind::Z), 0);
  const auto s = p.makeGate(gateOf(p, qc::GateKind::S), 0);
  // Z = diag(1,-1), S = diag(1, i): different weights, same skeleton.
  ASSERT_NE(z.node, nullptr);
  ASSERT_NE(s.node, nullptr);
  // Their squared versions: S^2 = Z.
  const auto ss = p.multiply(s, s);
  EXPECT_EQ(ss, z);
}

TEST(NumericPackage, AdditionMatchesDense) {
  Pkg p(2, exactConfig());
  const auto h0 = p.makeGate(gateOf(p, qc::GateKind::H), 0);
  const auto x1 = p.makeGate(gateOf(p, qc::GateKind::X), 1);
  const auto sum = p.add(h0, x1);
  const la::Matrix expected = toDenseMatrix(p, h0) + toDenseMatrix(p, x1);
  EXPECT_LE(la::Matrix::maxAbsDifference(toDenseMatrix(p, sum), expected), 1e-14);
}

TEST(NumericPackage, MatrixVectorAgainstDense) {
  std::mt19937_64 rng(3);
  const qc::GateKind kinds[] = {qc::GateKind::H, qc::GateKind::X, qc::GateKind::T,
                                qc::GateKind::S, qc::GateKind::V, qc::GateKind::Z};
  for (int trial = 0; trial < 20; ++trial) {
    Pkg p(4, exactConfig());
    auto state = p.makeZeroState();
    la::Vector dense = la::Vector::basisState(16, 0);
    for (int step = 0; step < 12; ++step) {
      const auto kind = kinds[rng() % std::size(kinds)];
      const auto target = static_cast<Qubit>(rng() % 4);
      const auto gate = p.makeGate(gateOf(p, kind), target);
      state = p.multiply(gate, state);
      dense = toDenseMatrix(p, gate) * dense;
    }
    const auto amplitudes = p.amplitudes(state);
    for (std::size_t i = 0; i < 16; ++i) {
      EXPECT_NEAR(std::abs(amplitudes[i] - dense[i]), 0.0, 1e-10);
    }
  }
}

TEST(NumericPackage, MatrixMatrixAgainstDense) {
  std::mt19937_64 rng(5);
  Pkg p(3, exactConfig());
  auto accumulated = p.makeIdentity();
  la::Matrix dense = la::Matrix::identity(8);
  const qc::GateKind kinds[] = {qc::GateKind::H, qc::GateKind::X, qc::GateKind::T,
                                qc::GateKind::Y};
  for (int step = 0; step < 10; ++step) {
    const auto kind = kinds[rng() % std::size(kinds)];
    const auto target = static_cast<Qubit>(rng() % 3);
    const auto gate = p.makeGate(gateOf(p, kind), target);
    accumulated = p.multiply(gate, accumulated);
    dense = toDenseMatrix(p, gate) * dense;
  }
  EXPECT_LE(la::Matrix::maxAbsDifference(toDenseMatrix(p, accumulated), dense), 1e-10);
}

TEST(NumericPackage, ControlledGatesMatchDense) {
  Pkg p(3, exactConfig());
  // CNOT(control 0, target 2) with an uninvolved middle qubit.
  const ControlSpec controls[] = {{0, true}};
  const auto cnot = p.makeGate(gateOf(p, qc::GateKind::X), 2, controls);
  const la::Matrix dense = toDenseMatrix(p, cnot);
  for (std::size_t row = 0; row < 8; ++row) {
    for (std::size_t col = 0; col < 8; ++col) {
      const std::size_t expectedCol = (row & 4) != 0 ? (row ^ 1) : row;
      EXPECT_NEAR(std::abs(dense.at(row, col) - ((col == expectedCol) ? 1.0 : 0.0)), 0.0, 1e-14);
    }
  }
}

TEST(NumericPackage, NegativeControl) {
  Pkg p(2, exactConfig());
  const ControlSpec controls[] = {{0, false}};
  const auto gate = p.makeGate(gateOf(p, qc::GateKind::X), 1, controls);
  const la::Matrix dense = toDenseMatrix(p, gate);
  // X applies when control is |0>: swaps columns 0/1, identity on 2/3.
  EXPECT_NEAR(std::abs(dense.at(0, 1) - 1.0), 0.0, 1e-14);
  EXPECT_NEAR(std::abs(dense.at(1, 0) - 1.0), 0.0, 1e-14);
  EXPECT_NEAR(std::abs(dense.at(2, 2) - 1.0), 0.0, 1e-14);
  EXPECT_NEAR(std::abs(dense.at(3, 3) - 1.0), 0.0, 1e-14);
}

TEST(NumericPackage, KroneckerMatchesDense) {
  // Kron of two single-qubit identity nodes equals the 2-qubit identity.
  Pkg single(2, exactConfig());
  const auto top = single.makeMNode(0, {Pkg::MEdge{nullptr, single.system().one()},
                                        single.zeroMatrix(), single.zeroMatrix(),
                                        Pkg::MEdge{nullptr, single.system().one()}});
  const auto bottom = single.makeMNode(1, {Pkg::MEdge{nullptr, single.system().one()},
                                           single.zeroMatrix(), single.zeroMatrix(),
                                           Pkg::MEdge{nullptr, single.system().one()}});
  const auto identity = single.kronecker(top, bottom);
  EXPECT_EQ(identity, single.makeIdentity());
}

TEST(NumericPackage, ConjugateTransposeUnitarity) {
  Pkg p(3, exactConfig());
  const ControlSpec controls[] = {{1, true}};
  auto u = p.makeGate(gateOf(p, qc::GateKind::V), 2, controls);
  u = p.multiply(p.makeGate(gateOf(p, qc::GateKind::H), 0), u);
  const auto uDagger = p.conjugateTranspose(u);
  const auto product = p.multiply(u, uDagger);
  EXPECT_LE(la::Matrix::maxAbsDifference(toDenseMatrix(p, product), la::Matrix::identity(8)),
            1e-12);
}

TEST(NumericPackage, InnerProduct) {
  Pkg p(2, exactConfig());
  const auto zero = p.makeZeroState();
  const auto h = p.makeGate(gateOf(p, qc::GateKind::H), 0);
  const auto plus = p.multiply(h, zero);
  // <0|+> = 1/sqrt2.
  const auto overlap = p.system().toComplex(p.innerProduct(zero, plus));
  EXPECT_NEAR(overlap.real(), 1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(overlap.imag(), 0.0, 1e-12);
  // <psi|psi> = 1.
  const auto norm = p.system().toComplex(p.innerProduct(plus, plus));
  EXPECT_NEAR(norm.real(), 1.0, 1e-12);
}

TEST(NumericPackage, GarbageCollectionKeepsReferencedNodes) {
  Pkg p(4, exactConfig());
  auto state = p.makeZeroState();
  p.incRef(state);
  const std::size_t before = p.countNodes(state);
  // Create garbage: many transient states.
  for (int i = 0; i < 10; ++i) {
    const auto h = p.makeGate(gateOf(p, qc::GateKind::H), static_cast<Qubit>(i % 4));
    const auto next = p.multiply(h, state);
    p.incRef(next);
    p.decRef(state);
    state = next;
  }
  p.garbageCollect();
  EXPECT_EQ(p.countNodes(state), p.allocatedNodes())
      << "after GC only the referenced state may survive";
  EXPECT_GE(p.countNodes(state), before);
  // The state is still intact.
  const auto amplitudes = p.amplitudes(state);
  double norm = 0.0;
  for (const auto& a : amplitudes) {
    norm += std::norm(a);
  }
  EXPECT_NEAR(norm, 1.0, 1e-12);
}

TEST(NumericPackage, DotExportSmoke) {
  Pkg p(2, exactConfig());
  const auto u = p.makeGate(gateOf(p, qc::GateKind::H), 0);
  const std::string dot = toDot(p, u);
  EXPECT_NE(dot.find("digraph qmdd"), std::string::npos);
  EXPECT_NE(dot.find("q0"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

} // namespace
} // namespace qadd::dd
