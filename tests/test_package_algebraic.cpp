#include "core/algebraic_system.hpp"
#include "core/export.hpp"
#include "core/package.hpp"
#include "linalg/dense.hpp"
#include "qc/gates.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

namespace qadd::dd {
namespace {

using Pkg = Package<AlgebraicSystem>;
using alg::QOmega;

Pkg::GateMatrix gateOf(Pkg& p, qc::GateKind kind) {
  const auto m = qc::algebraicMatrix(kind);
  return {p.system().intern(m[0]), p.system().intern(m[1]), p.system().intern(m[2]),
          p.system().intern(m[3])};
}

TEST(AlgebraicPackage, HadamardSelfInverseExactly) {
  // H * H == I as an *identity of diagrams* — the O(1) equivalence check the
  // paper highlights (Section V-B).
  Pkg p(3);
  const auto h = p.makeGate(gateOf(p, qc::GateKind::H), 1);
  const auto hh = p.multiply(h, h);
  EXPECT_EQ(hh, p.makeIdentity());
}

TEST(AlgebraicPackage, TEighthPowerIsIdentity) {
  Pkg p(2);
  const auto t = p.makeGate(gateOf(p, qc::GateKind::T), 0);
  auto acc = p.makeIdentity();
  for (int i = 0; i < 8; ++i) {
    acc = p.multiply(t, acc);
  }
  EXPECT_EQ(acc, p.makeIdentity());
  // S = T^2, Z = T^4 — also exact diagram identities.
  const auto s = p.makeGate(gateOf(p, qc::GateKind::S), 0);
  const auto z = p.makeGate(gateOf(p, qc::GateKind::Z), 0);
  EXPECT_EQ(p.multiply(t, t), s);
  EXPECT_EQ(p.multiply(s, s), z);
}

TEST(AlgebraicPackage, VSquaredIsX) {
  Pkg p(1);
  const auto v = p.makeGate(gateOf(p, qc::GateKind::V), 0);
  const auto x = p.makeGate(gateOf(p, qc::GateKind::X), 0);
  EXPECT_EQ(p.multiply(v, v), x);
}

TEST(AlgebraicPackage, PaperFig1QmddShape) {
  // U = H (x) I_2: classically one q0 node plus one shared q1 identity
  // node; with skip-level edges the q1 identity is implicit, leaving just
  // the H node.  Root weight stays 1/sqrt2.
  Pkg p(2);
  const auto u = p.makeGate(gateOf(p, qc::GateKind::H), 0);
  EXPECT_EQ(p.countNodes(u), 1U);
  EXPECT_EQ(p.system().value(u.w), QOmega::invSqrt2());
}

TEST(AlgebraicPackage, RedundancyDetectionIsPerfect) {
  // Repeated H on the same qubit must cycle through exactly two distinct
  // diagrams (H and I) without any growth — impossible numerically without
  // a tolerance, automatic algebraically.
  Pkg p(5);
  auto acc = p.makeIdentity();
  const auto h = p.makeGate(gateOf(p, qc::GateKind::H), 2);
  std::size_t sizeAfterOdd = 0;
  for (int i = 1; i <= 40; ++i) {
    acc = p.multiply(h, acc);
    if (i == 1) {
      sizeAfterOdd = p.countNodes(acc);
    } else if (i % 2 == 1) {
      EXPECT_EQ(p.countNodes(acc), sizeAfterOdd);
    } else {
      EXPECT_EQ(acc, p.makeIdentity());
    }
  }
}

TEST(AlgebraicPackage, AmplitudesAreExactlyConverted) {
  Pkg p(2);
  auto state = p.makeZeroState();
  const auto h0 = p.makeGate(gateOf(p, qc::GateKind::H), 0);
  const ControlSpec controls[] = {{0, true}};
  const auto cnot = p.makeGate(gateOf(p, qc::GateKind::X), 1, controls);
  state = p.multiply(cnot, p.multiply(h0, state));
  const auto amplitudes = p.amplitudes(state);
  const double s = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(amplitudes[0].real(), s, 1e-15);
  EXPECT_NEAR(amplitudes[3].real(), s, 1e-15);
  EXPECT_EQ(amplitudes[1], std::complex<double>(0.0, 0.0));
  EXPECT_EQ(amplitudes[2], std::complex<double>(0.0, 0.0));
}

TEST(AlgebraicPackage, MatchesDenseOnRandomCliffordTCircuits) {
  std::mt19937_64 rng(7);
  const qc::GateKind kinds[] = {qc::GateKind::H,   qc::GateKind::X, qc::GateKind::T,
                                qc::GateKind::Tdg, qc::GateKind::S, qc::GateKind::V,
                                qc::GateKind::Y,   qc::GateKind::Z};
  for (int trial = 0; trial < 10; ++trial) {
    Pkg p(3);
    auto state = p.makeZeroState();
    la::Vector dense = la::Vector::basisState(8, 0);
    for (int step = 0; step < 15; ++step) {
      const auto kind = kinds[rng() % std::size(kinds)];
      const auto target = static_cast<Qubit>(rng() % 3);
      const auto gate = p.makeGate(gateOf(p, kind), target);
      state = p.multiply(gate, state);
      dense = toDenseMatrix(p, gate) * dense;
    }
    const auto amplitudes = p.amplitudes(state);
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_NEAR(std::abs(amplitudes[i] - dense[i]), 0.0, 1e-9);
    }
  }
}

TEST(AlgebraicPackage, StateNormIsExactlyOne) {
  // <psi|psi> == 1 exactly after any Clifford+T evolution.
  std::mt19937_64 rng(9);
  Pkg p(4);
  auto state = p.makeZeroState();
  const qc::GateKind kinds[] = {qc::GateKind::H, qc::GateKind::T, qc::GateKind::V,
                                qc::GateKind::X};
  for (int step = 0; step < 30; ++step) {
    const auto gate = p.makeGate(gateOf(p, kinds[rng() % 4]), static_cast<Qubit>(rng() % 4));
    state = p.multiply(gate, state);
  }
  const auto norm = p.innerProduct(state, state);
  EXPECT_TRUE(p.system().isOne(norm)) << "norm must be the exact value 1";
}

TEST(AlgebraicPackage, LongProductsStayCanonical) {
  // (HT)^k products generate dense angle structure; equal prefixes must be
  // recognized as equal diagrams.
  Pkg p(1);
  const auto h = p.makeGate(gateOf(p, qc::GateKind::H), 0);
  const auto t = p.makeGate(gateOf(p, qc::GateKind::T), 0);
  auto a = p.makeIdentity();
  for (int i = 0; i < 12; ++i) {
    a = p.multiply(t, p.multiply(h, a));
  }
  auto b = p.makeIdentity();
  for (int i = 0; i < 12; ++i) {
    b = p.multiply(t, p.multiply(h, b));
  }
  EXPECT_EQ(a, b);
  // And the matrix is still exactly unitary: U U^dag == I.
  const auto product = p.multiply(a, p.conjugateTranspose(a));
  EXPECT_EQ(product, p.makeIdentity());
}

TEST(AlgebraicPackage, GarbageCollectReclaimsEverythingUnreferenced) {
  Pkg p(3);
  {
    const auto h = p.makeGate(gateOf(p, qc::GateKind::H), 0);
    const auto t = p.makeGate(gateOf(p, qc::GateKind::T), 1);
    (void)p.multiply(h, t);
  }
  EXPECT_GT(p.allocatedNodes(), 0U);
  p.garbageCollect();
  EXPECT_EQ(p.allocatedNodes(), 0U);
}

TEST(AlgebraicPackage, MaxBitsGrowsUnderHtProducts) {
  // The paper's GSE observation: coefficient bit widths grow along generic
  // Clifford+T products.
  Pkg p(1);
  const auto h = p.makeGate(gateOf(p, qc::GateKind::H), 0);
  const auto t = p.makeGate(gateOf(p, qc::GateKind::T), 0);
  auto state = p.makeZeroState();
  const std::size_t before = p.system().maxBits();
  for (int i = 0; i < 64; ++i) {
    state = p.multiply(t, state);
    state = p.multiply(h, state);
  }
  EXPECT_GT(p.system().maxBits(), before + 10)
      << "generic HT products must grow the coefficient bit width";
}

TEST(AlgebraicPackage, TrivialWeightStatistics) {
  Pkg p(4);
  auto state = p.makeZeroState();
  const auto h = p.makeGate(gateOf(p, qc::GateKind::H), 0);
  state = p.multiply(h, state);
  // The Q[omega]-inverse normalization keeps at least half the produced
  // weights trivial (paper, Section V-B).
  EXPECT_GE(p.system().trivialWeightFraction(), 0.5);
}

} // namespace
} // namespace qadd::dd
