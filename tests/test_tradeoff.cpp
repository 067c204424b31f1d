/// Integration tests of the paper's central claims (Sections III and V):
///  - epsilon = 0 misses redundancies and blows the numeric QMDD up;
///  - moderate epsilon recovers compactness at a small, bounded error;
///  - large epsilon destroys the state (down to the all-zero vector);
///  - the algebraic QMDD is simultaneously compact and exact.
#include "algorithms/grover.hpp"
#include "eval/trace.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace qadd::eval {
namespace {

struct TradeoffData {
  SimulationTrace algebraic;
  SimulationTrace exactNumeric;    // eps = 0
  SimulationTrace moderateNumeric; // eps = 1e-10
  SimulationTrace sloppyNumeric;   // eps = 1e-2
  ReferenceTrajectory reference;
};

const TradeoffData& groverData() {
  static const TradeoffData data = [] {
    TradeoffData d;
    // 7-qubit Grover, enough iterations for the effects to show.
    const qc::Circuit circuit = algos::grover({7, 0b1011001, 0});
    TraceOptions options;
    options.sampleEvery = 20;
    d.algebraic = traceAlgebraic(circuit, options, &d.reference);
    d.exactNumeric = traceRun(circuit, {0.0}, &d.reference, options);
    d.moderateNumeric = traceRun(circuit, {1e-10}, &d.reference, options);
    d.sloppyNumeric = traceRun(circuit, {1e-2}, &d.reference, options);
    return d;
  }();
  return data;
}

TEST(Tradeoff, AlgebraicIsCompact) {
  // The exact representation finds the (a, b, ..., b) structure: O(n) nodes
  // in the state DD.  (peakNodes counts all allocations — state, gate DDs
  // and transient products between collections — so it is only sanity-bounded.)
  EXPECT_LE(groverData().algebraic.finalNodes, 14U);
  EXPECT_LE(groverData().algebraic.peakNodes, 5000U);
  for (const TracePoint& point : groverData().algebraic.points) {
    // Mid-iteration snapshots (after the oracle, inside the diffusion) carry
    // a third distinct amplitude, so allow 3n rather than 2n nodes.
    EXPECT_LE(point.nodes, 21U) << "state DD must stay linear throughout";
  }
}

TEST(Tradeoff, EpsilonZeroLosesCompactness) {
  // With eps = 0, accumulated floating-point error makes amplitudes that are
  // mathematically equal differ in a few ulps: far more nodes than the
  // algebraic representation needs.
  EXPECT_GT(groverData().exactNumeric.finalNodes, 4 * groverData().algebraic.finalNodes)
      << "eps = 0 must fail to see most redundancies";
}

TEST(Tradeoff, EpsilonZeroIsAccurateButNotExact) {
  const auto& trace = groverData().exactNumeric;
  ASSERT_FALSE(trace.points.empty());
  EXPECT_GT(trace.finalError, 0.0) << "floating point cannot be exact";
  EXPECT_LT(trace.finalError, 1e-10) << "but it is numerically accurate";
}

TEST(Tradeoff, ModerateEpsilonRecoversCompactness) {
  const auto& moderate = groverData().moderateNumeric;
  EXPECT_LE(moderate.finalNodes, groverData().algebraic.finalNodes + 2)
      << "eps = 1e-10 should find the same redundancies the exact arithmetic proves";
  EXPECT_LT(moderate.finalError, 1e-6);
  EXPECT_FALSE(moderate.collapsedToZero);
}

TEST(Tradeoff, LargeEpsilonFalsifiesTheResult) {
  const auto& sloppy = groverData().sloppyNumeric;
  // eps = 1e-2 merges genuinely different amplitudes; the result is useless.
  EXPECT_GT(sloppy.finalError, 0.5) << "the paper's information-loss regime";
}

TEST(Tradeoff, ErrorGrowsWithGateCountAtFixedEpsilon) {
  // Numerical error accumulates roughly monotonically over the run
  // (Section III: linear growth in the number of multiplications).
  const auto& trace = groverData().exactNumeric;
  ASSERT_GE(trace.points.size(), 3U);
  const double early = trace.points.front().error;
  const double late = trace.points.back().error;
  EXPECT_GT(late, early);
}

TEST(Tradeoff, AlgebraicErrorIsIdenticallyZero) {
  for (const TracePoint& point : groverData().algebraic.points) {
    EXPECT_EQ(point.error, 0.0);
  }
}

TEST(Tradeoff, RuntimeCorrelatesWithNodes) {
  // The paper: simulation time slope is proportional to DD size.  Check the
  // ordering only (absolute times are machine-dependent): the eps = 0 run
  // (huge DD) must be slower than the moderate run (tiny DD).
  EXPECT_GT(groverData().exactNumeric.totalSeconds,
            groverData().moderateNumeric.totalSeconds);
}

} // namespace
} // namespace qadd::eval
