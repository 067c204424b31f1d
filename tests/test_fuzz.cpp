/// Differential fuzzing: random Clifford+T circuits with random control
/// structure are simulated by the numeric QMDD, the algebraic QMDD and the
/// dense reference; all three must agree.  This is the broadest correctness
/// net over the whole stack (gates -> gate DDs -> multiply/add -> normalize
/// -> unique tables).
#include "algebraic/euclidean.hpp"
#include "algebraic/qomega.hpp"
#include "bigint/bigint.hpp"
#include "io/snapshot.hpp"
#include "qc/simulator.hpp"
#include "reference.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

namespace qadd {
namespace {

using dd::AlgebraicSystem;
using dd::NumericSystem;
using reference::denseSimulate;

qc::Circuit randomCliffordT(std::mt19937_64& rng, qc::Qubit nqubits, std::size_t gates) {
  const qc::GateKind kinds[] = {qc::GateKind::H,   qc::GateKind::X,   qc::GateKind::Y,
                                qc::GateKind::Z,   qc::GateKind::S,   qc::GateKind::Sdg,
                                qc::GateKind::T,   qc::GateKind::Tdg, qc::GateKind::V,
                                qc::GateKind::Vdg, qc::GateKind::I};
  qc::Circuit circuit(nqubits, "fuzz");
  for (std::size_t i = 0; i < gates; ++i) {
    const auto kind = kinds[rng() % std::size(kinds)];
    const auto target = static_cast<qc::Qubit>(rng() % nqubits);
    std::vector<qc::ControlSpec> controls;
    const std::size_t controlCount = rng() % 3; // 0, 1 or 2 controls
    for (std::size_t c = 0; c < controlCount; ++c) {
      const auto qubit = static_cast<qc::Qubit>(rng() % nqubits);
      bool clash = qubit == target;
      for (const auto& existing : controls) {
        clash = clash || existing.qubit == qubit;
      }
      if (!clash) {
        controls.push_back({qubit, rng() % 2 == 0});
      }
    }
    circuit.append({kind, 0.0, target, std::move(controls)});
  }
  return circuit;
}

class FuzzDifferential : public ::testing::TestWithParam<int> {};

TEST_P(FuzzDifferential, AllThreeBackendsAgree) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const auto nqubits = static_cast<qc::Qubit>(2 + rng() % 4); // 2..5
  const std::size_t gates = 10 + rng() % 30;
  const qc::Circuit circuit = randomCliffordT(rng, nqubits, gates);

  const la::Vector expected = denseSimulate(circuit);

  qc::Simulator<NumericSystem> numeric(circuit,
                                       {0.0, NumericSystem::Normalization::LeftmostNonzero});
  numeric.run();
  const auto numericAmplitudes = numeric.package().amplitudes(numeric.state());

  qc::Simulator<AlgebraicSystem> algebraic(circuit);
  algebraic.run();
  const auto algebraicAmplitudes = algebraic.package().amplitudes(algebraic.state());

  // Also cross-check the GCD and experimental unit-part schemes.
  qc::Simulator<AlgebraicSystem> gcd(circuit, {AlgebraicSystem::Normalization::GcdDOmega});
  gcd.run();
  const auto gcdAmplitudes = gcd.package().amplitudes(gcd.state());
  qc::Simulator<AlgebraicSystem> unitPart(circuit, {AlgebraicSystem::Normalization::UnitPart});
  unitPart.run();
  const auto unitPartAmplitudes = unitPart.package().amplitudes(unitPart.state());

  for (std::size_t i = 0; i < expected.dimension(); ++i) {
    EXPECT_NEAR(std::abs(numericAmplitudes[i] - expected[i]), 0.0, 1e-9)
        << "numeric, index " << i;
    EXPECT_NEAR(std::abs(algebraicAmplitudes[i] - expected[i]), 0.0, 1e-9)
        << "algebraic, index " << i;
    EXPECT_NEAR(std::abs(gcdAmplitudes[i] - algebraicAmplitudes[i]), 0.0, 1e-12)
        << "gcd vs inverse normalization, index " << i;
    EXPECT_NEAR(std::abs(unitPartAmplitudes[i] - algebraicAmplitudes[i]), 0.0, 1e-12)
        << "unit-part vs inverse normalization, index " << i;
  }

  // Norm is exactly 1 in the algebraic flavors.
  EXPECT_TRUE(algebraic.package().system().isOne(
      algebraic.package().innerProduct(algebraic.state(), algebraic.state())));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferential, ::testing::Range(0, 24));

class FuzzNumericTolerance : public ::testing::TestWithParam<double> {};

TEST_P(FuzzNumericTolerance, ModerateEpsilonStaysAccurateOnShortCircuits) {
  // On short circuits every epsilon below 1e-6 must stay essentially exact.
  std::mt19937_64 rng(99);
  const qc::Circuit circuit = randomCliffordT(rng, 4, 25);
  const la::Vector expected = denseSimulate(circuit);
  qc::Simulator<NumericSystem> simulator(
      circuit, {GetParam(), NumericSystem::Normalization::LeftmostNonzero});
  simulator.run();
  const auto amplitudes = simulator.package().amplitudes(simulator.state());
  for (std::size_t i = 0; i < expected.dimension(); ++i) {
    EXPECT_NEAR(std::abs(amplitudes[i] - expected[i]), 0.0, 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(Epsilons, FuzzNumericTolerance,
                         ::testing::Values(0.0, 1e-15, 1e-12, 1e-9, 1e-7));

/// Snapshot round-trip fuzzing: for random Clifford+T states the QDDS
/// serialize -> deserialize cycle must reproduce the canonical diagram —
/// same node count and exact weight equality (the re-serialization of the
/// reloaded DD is byte-identical) under the algebraic system, and ULP-0
/// amplitudes under the numeric system at the matching tolerance.
class FuzzSnapshotRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSnapshotRoundTrip, SerializeDeserializeIsExact) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 31);
  const auto nqubits = static_cast<qc::Qubit>(2 + rng() % 4); // 2..5
  const std::size_t gates = 10 + rng() % 40;
  const qc::Circuit circuit = randomCliffordT(rng, nqubits, gates);
  const double epsilon = (GetParam() % 2 == 0) ? 0.0 : 1e-10;

  qc::Simulator<AlgebraicSystem> algebraic(circuit);
  algebraic.run();
  auto& algebraicPackage = algebraic.package();
  const auto algebraicBytes = io::saveVector(algebraicPackage, algebraic.state());
  // Same package: the canonical edge itself comes back.
  EXPECT_TRUE(io::loadVector(algebraicPackage, algebraicBytes) == algebraic.state());
  // Fresh package: canonical node count survives and every weight is exactly
  // reproduced (byte-identical re-serialization).
  dd::Package<AlgebraicSystem> algebraicFresh(nqubits);
  const auto algebraicReloaded = io::loadVector(algebraicFresh, algebraicBytes);
  EXPECT_EQ(algebraicFresh.countNodes(algebraicReloaded),
            algebraicPackage.countNodes(algebraic.state()));
  EXPECT_EQ(io::saveVector(algebraicFresh, algebraicReloaded), algebraicBytes);

  qc::Simulator<NumericSystem> numeric(circuit,
                                       {epsilon, NumericSystem::Normalization::LeftmostNonzero});
  numeric.run();
  const auto numericBytes = io::saveVector(numeric.package(), numeric.state());
  dd::Package<NumericSystem> numericFresh(nqubits,
                                          {epsilon, NumericSystem::Normalization::LeftmostNonzero});
  const auto numericReloaded = io::loadVector(numericFresh, numericBytes);
  EXPECT_EQ(numericFresh.countNodes(numericReloaded),
            numeric.package().countNodes(numeric.state()));
  const auto expected = numeric.package().amplitudes(numeric.state());
  const auto restored = numericFresh.amplitudes(numericReloaded);
  ASSERT_EQ(expected.size(), restored.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(restored[i].real(), expected[i].real()) << "ULP-0 violated at index " << i;
    EXPECT_EQ(restored[i].imag(), expected[i].imag()) << "ULP-0 violated at index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSnapshotRoundTrip, ::testing::Range(0, 16));

/// Differential fuzzing of the int64/int128 word kernels: every BigInt /
/// Z[omega] / Q[omega] operation with a small-coefficient fast path is run on
/// the SAME operands twice — once with the kernels enabled (small path) and
/// once with them force-disabled (the multi-limb spill path) — and the two
/// results must be bit-identical.  Operand magnitudes sweep across the kernel
/// bit bounds (62-bit add/mul, 30-bit Euclidean/quotient loads) so both the
/// engaged-kernel and the overflow-detected spill branches are exercised.
class FastPathGuard {
public:
  explicit FastPathGuard(bool enabled) : previous_(detail::setSmallFastPaths(enabled)) {}
  ~FastPathGuard() { detail::setSmallFastPaths(previous_); }
  FastPathGuard(const FastPathGuard&) = delete;
  FastPathGuard& operator=(const FastPathGuard&) = delete;

private:
  bool previous_;
};

/// Random BigInt whose magnitude is `bits` wide (so sweeps cross the 62-bit
/// kernel bounds from both sides).
BigInt randomBigInt(std::mt19937_64& rng, unsigned bits) {
  BigInt value{0};
  for (unsigned produced = 0; produced < bits; produced += 32) {
    const unsigned chunk = std::min(32U, bits - produced);
    const auto limb = static_cast<std::int64_t>(rng() & ((std::uint64_t{1} << chunk) - 1));
    value = value.shiftLeft(chunk) + BigInt{limb};
  }
  return rng() % 2 == 0 ? value : -value;
}

class FuzzSmallPathDifferential : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSmallPathDifferential, BigIntOpsMatchSpillPath) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 3);
  for (int round = 0; round < 40; ++round) {
    // Bit widths straddle the 62/63/64-bit kernel and storage boundaries.
    const unsigned widths[] = {1, 8, 31, 32, 61, 62, 63, 64, 65, 96, 128};
    const BigInt a = randomBigInt(rng, widths[rng() % std::size(widths)]);
    const BigInt b = randomBigInt(rng, widths[rng() % std::size(widths)]);
    const unsigned shift = static_cast<unsigned>(rng() % 70);

    BigInt sumSmall, difSmall, prodSmall, gcdSmall, shlSmall, shrSmall;
    BigInt quotSmall, remSmall, roundSmall;
    {
      FastPathGuard guard(true);
      sumSmall = a + b;
      difSmall = a - b;
      prodSmall = a * b;
      gcdSmall = BigInt::gcd(a, b);
      shlSmall = a.shiftLeft(shift);
      shrSmall = a.shiftRight(shift);
      if (!b.isZero()) {
        BigInt::divMod(a, b, quotSmall, remSmall);
        roundSmall = BigInt::divRound(a, b);
      }
    }
    FastPathGuard guard(false);
    EXPECT_EQ(sumSmall, a + b);
    EXPECT_EQ(difSmall, a - b);
    EXPECT_EQ(prodSmall, a * b);
    EXPECT_EQ(gcdSmall, BigInt::gcd(a, b));
    EXPECT_EQ(shlSmall, a.shiftLeft(shift));
    EXPECT_EQ(shrSmall, a.shiftRight(shift));
    if (!b.isZero()) {
      BigInt quot, rem;
      BigInt::divMod(a, b, quot, rem);
      EXPECT_EQ(quotSmall, quot);
      EXPECT_EQ(remSmall, rem);
      EXPECT_EQ(roundSmall, BigInt::divRound(a, b));
      EXPECT_EQ(quot * b + rem, a);
    }
    // GCD properties hold regardless of which algorithm/path produced it.
    if (!gcdSmall.isZero()) {
      EXPECT_TRUE((a % gcdSmall).isZero());
      EXPECT_TRUE((b % gcdSmall).isZero());
      EXPECT_FALSE(gcdSmall.isNegative());
    }
  }
}

TEST_P(FuzzSmallPathDifferential, RingOpsMatchSpillPath) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 12289 + 17);
  const auto randomRing = [&rng](unsigned bits) {
    return alg::ZOmega{randomBigInt(rng, bits), randomBigInt(rng, bits),
                       randomBigInt(rng, bits), randomBigInt(rng, bits)};
  };
  for (int round = 0; round < 30; ++round) {
    // Coefficient widths straddle the kernel bounds: 30-bit Euclidean loads,
    // 62-bit add/mul loads.
    const unsigned widths[] = {4, 20, 29, 30, 31, 60, 61, 62, 63, 80};
    const alg::ZOmega x = randomRing(widths[rng() % std::size(widths)]);
    const alg::ZOmega y = randomRing(widths[rng() % std::size(widths)]);

    alg::ZOmega sumSmall, difSmall, prodSmall, quotSmall, remSmall, gcdSmall;
    BigInt normUSmall, normVSmall;
    {
      FastPathGuard guard(true);
      sumSmall = x + y;
      difSmall = x - y;
      prodSmall = x * y;
      x.norm(normUSmall, normVSmall);
      if (!y.isZero()) {
        quotSmall = alg::euclideanQuotient(x, y);
        remSmall = alg::euclideanRemainder(x, y);
        gcdSmall = alg::gcdZOmega(x, y);
      }
    }
    FastPathGuard guard(false);
    EXPECT_EQ(sumSmall, x + y);
    EXPECT_EQ(difSmall, x - y);
    EXPECT_EQ(prodSmall, x * y);
    BigInt normU, normV;
    x.norm(normU, normV);
    EXPECT_EQ(normUSmall, normU);
    EXPECT_EQ(normVSmall, normV);
    if (!y.isZero()) {
      EXPECT_EQ(quotSmall, alg::euclideanQuotient(x, y));
      EXPECT_EQ(remSmall, alg::euclideanRemainder(x, y));
      EXPECT_EQ(gcdSmall, alg::gcdZOmega(x, y));
      // Euclidean contract: remainder strictly smaller in E() = |u^2 - 2 v^2|.
      EXPECT_EQ(remSmall, x - quotSmall * y);
    }
  }
}

TEST_P(FuzzSmallPathDifferential, MultiplyAccumulateMatchesPlainFormulas) {
  // addMul/subMul and the Z[omega] product, scaling and norm they build,
  // against the formulas written with plain BigInt operators, on both paths.
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 40961 + 23);
  const unsigned widths[] = {1, 31, 32, 62, 64, 65, 150, 400, 700};
  const auto randomWidth = [&] { return randomBigInt(rng, widths[rng() % std::size(widths)]); };
  for (const bool enabled : {true, false}) {
    SCOPED_TRACE(enabled ? "small fast paths on" : "small fast paths off");
    FastPathGuard guard(enabled);
    for (int round = 0; round < 30; ++round) {
      const BigInt acc = randomWidth();
      const BigInt x = randomWidth();
      const BigInt y = randomWidth();
      BigInt added = acc;
      EXPECT_EQ(added.addMul(x, y), acc + x * y);
      BigInt subtracted = acc;
      EXPECT_EQ(subtracted.subMul(x, y), acc - x * y);
      BigInt aliased = x;
      EXPECT_EQ(aliased.addMul(aliased, y), x + x * y);
      BigInt square = x;
      EXPECT_EQ(square.subMul(square, square), x - x * x);

      const alg::ZOmega p{randomWidth(), randomWidth(), randomWidth(), randomWidth()};
      const alg::ZOmega q{randomWidth(), randomWidth(), randomWidth(), randomWidth()};
      const alg::ZOmega expected{
          p.a() * q.d() + p.b() * q.c() + p.c() * q.b() + p.d() * q.a(),
          p.b() * q.d() + p.c() * q.c() + p.d() * q.b() - p.a() * q.a(),
          p.c() * q.d() + p.d() * q.c() - p.a() * q.b() - p.b() * q.a(),
          p.d() * q.d() - p.a() * q.c() - p.b() * q.b() - p.c() * q.a()};
      EXPECT_EQ(p * q, expected);
      alg::ZOmega inPlace = p;
      inPlace *= inPlace;
      EXPECT_EQ(inPlace, p * p);
      EXPECT_EQ(p.scaled(x), (alg::ZOmega{p.a() * x, p.b() * x, p.c() * x, p.d() * x}));
      BigInt u;
      BigInt v;
      p.norm(u, v);
      EXPECT_EQ(u, p.a() * p.a() + p.b() * p.b() + p.c() * p.c() + p.d() * p.d());
      EXPECT_EQ(v, p.a() * p.b() + p.b() * p.c() + p.c() * p.d() - p.d() * p.a());
      // The in-place sqrt2 forms against the multiplication they replace.
      const alg::ZOmega times = alg::ZOmega{p}.timesSqrt2();
      EXPECT_EQ(times, p * alg::ZOmega::sqrt2());
      EXPECT_EQ(alg::ZOmega{times}.divideBySqrt2(), p);
    }
  }
}

TEST_P(FuzzSmallPathDifferential, QOmegaCanonicalizationMatchesSpillPath) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 24593 + 29);
  const auto randomRing = [&rng](unsigned bits) {
    return alg::ZOmega{randomBigInt(rng, bits), randomBigInt(rng, bits),
                       randomBigInt(rng, bits), randomBigInt(rng, bits)};
  };
  const auto expectCanonical = [](const alg::QOmega& value) {
    // Algorithm 1 invariants: positive denominator with all 2-content folded
    // into the sqrt2 exponent, numerator not divisible by sqrt2 (minimal k),
    // and no odd common content left between numerator and denominator.
    if (value.isZero()) {
      return;
    }
    EXPECT_FALSE(value.den().isNegative());
    EXPECT_TRUE(value.den().isOdd());
    EXPECT_FALSE(value.num().divisibleBySqrt2());
    if (!value.den().isOne()) {
      BigInt content = BigInt::gcd(value.num().a(), value.num().b());
      content = BigInt::gcd(content, value.num().c());
      content = BigInt::gcd(content, value.num().d());
      EXPECT_TRUE(BigInt::gcd(content, value.den()).isOne());
    }
  };
  for (int round = 0; round < 25; ++round) {
    const unsigned widths[] = {4, 16, 31, 59, 61, 62, 63, 70};
    const alg::ZOmega n1 = randomRing(widths[rng() % std::size(widths)]);
    const alg::ZOmega n2 = randomRing(widths[rng() % std::size(widths)]);
    const long k1 = static_cast<long>(rng() % 9) - 4;
    const long k2 = static_cast<long>(rng() % 9) - 4;
    const BigInt d1 = randomBigInt(rng, 1U + static_cast<unsigned>(rng() % 40)).abs() + BigInt{1};
    const BigInt d2 = randomBigInt(rng, 1U + static_cast<unsigned>(rng() % 40)).abs() + BigInt{1};

    alg::QOmega xSmall, ySmall, sumSmall, prodSmall, invSmall;
    {
      FastPathGuard guard(true);
      xSmall = alg::QOmega{n1, k1, d1}; // constructor canonicalizes (Alg. 1)
      ySmall = alg::QOmega{n2, k2, d2};
      sumSmall = xSmall + ySmall;
      prodSmall = xSmall * ySmall;
      if (!xSmall.isZero()) {
        invSmall = xSmall.inverse();
      }
    }
    FastPathGuard guard(false);
    const alg::QOmega x{n1, k1, d1};
    const alg::QOmega y{n2, k2, d2};
    EXPECT_TRUE(xSmall == x);
    EXPECT_TRUE(ySmall == y);
    EXPECT_TRUE(sumSmall == x + y);
    EXPECT_TRUE(prodSmall == x * y);
    expectCanonical(x);
    expectCanonical(sumSmall);
    expectCanonical(prodSmall);
    if (!x.isZero()) {
      EXPECT_TRUE(invSmall == x.inverse());
      expectCanonical(invSmall);
      EXPECT_TRUE((x * invSmall).isOne());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSmallPathDifferential, ::testing::Range(0, 8));

} // namespace
} // namespace qadd
