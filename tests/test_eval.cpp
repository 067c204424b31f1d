#include "eval/accuracy.hpp"
#include "eval/report.hpp"
#include "eval/sweep.hpp"
#include "eval/trace.hpp"
#include "obs/deterministic.hpp"

#include "algorithms/common.hpp"
#include "algorithms/grover.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

namespace qadd::eval {
namespace {

TEST(Accuracy, ZeroForIdenticalVectors) {
  const std::vector<std::complex<double>> v{{0.6, 0.0}, {0.8, 0.0}};
  EXPECT_NEAR(accuracyError(v, v), 0.0, 1e-15);
}

TEST(Accuracy, LengthErrorIsForgiven) {
  // Footnote 8: the numeric vector is rescaled to unit norm first.
  const std::vector<std::complex<double>> reference{{1.0, 0.0}, {0.0, 0.0}};
  const std::vector<std::complex<double>> scaled{{0.5, 0.0}, {0.0, 0.0}};
  EXPECT_NEAR(accuracyError(scaled, reference), 0.0, 1e-15);
}

TEST(Accuracy, ZeroVectorIsMaximallyWrong) {
  const std::vector<std::complex<double>> reference{{1.0, 0.0}, {0.0, 0.0}};
  const std::vector<std::complex<double>> zero{{0.0, 0.0}, {0.0, 0.0}};
  EXPECT_NEAR(accuracyError(zero, reference), 1.0, 1e-15);
}

TEST(Accuracy, DirectionErrorIsMeasured) {
  const std::vector<std::complex<double>> reference{{1.0, 0.0}, {0.0, 0.0}};
  const std::vector<std::complex<double>> orthogonal{{0.0, 0.0}, {1.0, 0.0}};
  EXPECT_NEAR(accuracyError(orthogonal, reference), std::sqrt(2.0), 1e-15);
}

TEST(Accuracy, VectorNorm) {
  EXPECT_NEAR(vectorNorm({{3.0, 0.0}, {0.0, 4.0}}), 5.0, 1e-15);
  EXPECT_DOUBLE_EQ(vectorNorm({}), 0.0);
}

TEST(Trace, AlgebraicTraceRecordsSamples) {
  const qc::Circuit circuit = algos::ghz(4);
  ReferenceTrajectory reference;
  TraceOptions options;
  options.sampleEvery = 1;
  const SimulationTrace trace = traceAlgebraic(circuit, options, &reference);
  EXPECT_EQ(trace.points.size(), circuit.size());
  EXPECT_EQ(reference.samples.size(), circuit.size());
  EXPECT_EQ(trace.finalNodes, 7U); // GHZ(4): 2n - 1 nodes
  EXPECT_FALSE(trace.collapsedToZero);
  for (const TracePoint& point : trace.points) {
    EXPECT_EQ(point.error, 0.0);
    EXPECT_GT(point.nodes, 0U);
  }
}

TEST(Trace, NumericTraceMeasuresErrorAgainstReference) {
  const qc::Circuit circuit = algos::ghz(4);
  ReferenceTrajectory reference;
  TraceOptions options;
  options.sampleEvery = 1;
  (void)traceAlgebraic(circuit, options, &reference);
  const SimulationTrace numeric = traceRun(circuit, {1e-12}, &reference, options);
  ASSERT_EQ(numeric.points.size(), circuit.size());
  for (const TracePoint& point : numeric.points) {
    ASSERT_TRUE(std::isfinite(point.error));
    EXPECT_LT(point.error, 1e-10) << "GHZ at eps=1e-12 must be essentially exact";
  }
  EXPECT_FALSE(numeric.collapsedToZero);
}

TEST(Trace, SamplingCadenceRespected) {
  const qc::Circuit circuit = algos::ghz(8); // 8 gates
  TraceOptions options;
  options.sampleEvery = 3;
  const SimulationTrace trace = traceAlgebraic(circuit, options);
  // Samples at gates 3, 6, and the final 8.
  ASSERT_EQ(trace.points.size(), 3U);
  EXPECT_EQ(trace.points[0].gateIndex, 3U);
  EXPECT_EQ(trace.points[1].gateIndex, 6U);
  EXPECT_EQ(trace.points[2].gateIndex, 8U);
}

TEST(Trace, MaxMagnitudeNormalizationTracksReferenceToo) {
  // End-to-end coverage of the [29] normalization inside the figure
  // machinery: same circuit, same reference, both numeric normalizations
  // essentially exact at tight epsilon.
  const qc::Circuit circuit = algos::ghz(5);
  ReferenceTrajectory reference;
  TraceOptions options;
  options.sampleEvery = 2;
  (void)traceAlgebraic(circuit, options, &reference);
  const SimulationTrace leftmost = traceRun(circuit, {1e-12}, &reference, options,
                                            dd::NumericSystem::Normalization::LeftmostNonzero);
  const SimulationTrace maxMagnitude = traceRun(circuit, {1e-12}, &reference, options,
                                                dd::NumericSystem::Normalization::MaxMagnitude);
  EXPECT_LT(leftmost.finalError, 1e-10);
  EXPECT_LT(maxMagnitude.finalError, 1e-10);
  EXPECT_EQ(leftmost.finalNodes, maxMagnitude.finalNodes);
}

/// `csv` with its cachehitrate field (the eighth) of every data row set to 0.
std::string withZeroCacheHitRate(const std::string& csv) {
  std::istringstream in(csv);
  std::string out;
  std::string line;
  std::getline(in, line);
  out += line + "\n";
  while (std::getline(in, line)) {
    std::size_t start = 0;
    for (int field = 0; field < 7; ++field) {
      start = line.find(',', start) + 1;
    }
    out += line.substr(0, start) + "0" + line.substr(line.find(',', start)) + "\n";
  }
  return out;
}

// Pins every value column of a small inline sweep over both weight planes,
// both float widths and a PerGate pruning point to recorded values.  The
// jobs-invariance tests compare a run with itself, so they cannot see a
// change that shifts every run alike.
TEST(Trace, SweepOutputsMatchRecordedValues) {
  const qc::Circuit circuit = algos::grover({6, 0b101101, 0});
  ASSERT_EQ(circuit.size(), 162U);
  SweepSpec spec(circuit);
  spec.options.sampleEvery = 40;
  spec.addRun({0.0});
  spec.addRun({1e-10});
  spec.addRun({1e-10, true});
  spec.addRun({1e-10, false, {0.1, dd::ApproxPolicy::PerGate}});
  const SweepResult result = runSweep(spec);

  std::ostringstream csv;
  obs::setDeterministic(true); // zero the wall-clock column
  writeCsv(csv, result.traces);
  obs::setDeterministic(false);
  const std::string recordedCsv = R"(series,gate,nodes,seconds,error,maxbits,peaknodes,cachehitrate,tablefill,fidelity,prunednodes
algebraic(Q[w]-inverse),40,11,0,0,9,248,0.352818371608,123,1,0
algebraic(Q[w]-inverse),80,14,0,0,13,433,0.358407079646,236,1,0
algebraic(Q[w]-inverse),120,11,0,0,20,631,0.359107806691,398,1,0
algebraic(Q[w]-inverse),160,12,0,0,25,823,0.359131403118,529,1,0
algebraic(Q[w]-inverse),162,11,0,0,27,835,0.359735973597,541,1,0
numeric eps=0,40,25,0,2.74678549529e-16,64,329,0.317355371901,233,1,0
numeric eps=0,80,49,0,2.42339445982e-16,64,1068,0.195819581958,682,1,0
numeric eps=0,120,41,0,6.14865878126e-16,64,2195,0.130753444738,2036,1,0
numeric eps=0,160,62,0,6.28218554046e-16,64,3199,0.117391304348,3563,1,0
numeric eps=0,162,55,0,7.13307873092e-16,64,3308,0.115012106538,3749,1,0
numeric eps=1e-10,40,11,0,1.27946881663e-16,64,248,0.352818371608,105,1,0
numeric eps=1e-10,80,14,0,1.98214456752e-16,64,433,0.359513274336,194,1,0
numeric eps=1e-10,120,11,0,4.67539355229e-16,64,631,0.359851301115,326,1,0
numeric eps=1e-10,160,12,0,6.94227579055e-16,64,823,0.359531772575,428,1,0
numeric eps=1e-10,162,11,0,8.73692923282e-16,64,835,0.36013215859,439,1,0
numeric-ext eps=1e-10,40,11,0,3.86341261956e-17,128,248,0.352818371608,105,1,0
numeric-ext eps=1e-10,80,14,0,0,128,433,0.359513274336,194,1,0
numeric-ext eps=1e-10,120,11,0,0,128,631,0.359851301115,326,1,0
numeric-ext eps=1e-10,160,12,0,5.55111512313e-17,128,823,0.359531772575,428,1,0
numeric-ext eps=1e-10,162,11,0,4.45421288906e-16,128,835,0.36013215859,439,1,0
numeric eps=1e-10 approx=pergate:f0.9,40,11,0,0.00781255960624,64,244,0.35881104034,102,0.999938964844,0
numeric eps=1e-10 approx=pergate:f0.9,80,14,0,0.00417575832014,64,457,0.354255319149,271,0.99989536847,12
numeric eps=1e-10 approx=pergate:f0.9,120,11,0,0.0236968941885,64,690,0.353188507358,488,0.999445941541,24
numeric eps=1e-10 approx=pergate:f0.9,160,11,0,0.101885321643,64,1074,0.320873786408,927,0.94401779419,75
numeric eps=1e-10 approx=pergate:f0.9,162,6,0,0.0584571517703,64,1094,0.319056785371,947,0.933416559051,79
)";
  // cachehitrate reads 0 when the counters are compiled out.
  EXPECT_EQ(csv.str(), obs::kEnabled ? recordedCsv : withZeroCacheHitRate(recordedCsv));

  struct Recorded {
    const char* label;
    double finalError;
    double finalFidelity;
    std::size_t prunedNodes;
  };
  const std::vector<Recorded> recorded{
      {"algebraic(Q[w]-inverse)", 0.0, 1.0, 0},
      {"numeric eps=0", 7.1330787309237788e-16, 1.0, 0},
      {"numeric eps=1e-10", 8.7369292328159714e-16, 1.0, 0},
      {"numeric-ext eps=1e-10", 4.4542128890622396e-16, 1.0, 0},
      {"numeric eps=1e-10 approx=pergate:f0.9", 0.058457151770348006, 0.93341655905148413, 79},
  };
  ASSERT_EQ(result.traces.size(), recorded.size());
  for (std::size_t i = 0; i < recorded.size(); ++i) {
    const SimulationTrace& trace = result.traces[i];
    EXPECT_EQ(trace.label, recorded[i].label);
    EXPECT_DOUBLE_EQ(trace.finalError, recorded[i].finalError) << trace.label;
    EXPECT_DOUBLE_EQ(trace.finalFidelity, recorded[i].finalFidelity) << trace.label;
    EXPECT_EQ(trace.prunedNodes, recorded[i].prunedNodes) << trace.label;
  }
  EXPECT_EQ(result.trajectory.sampleEvery, 40U);
  EXPECT_EQ(result.trajectory.samples.size(), 5U);
}

TEST(Report, CsvFormat) {
  const qc::Circuit circuit = algos::ghz(3);
  TraceOptions options;
  options.sampleEvery = 1;
  const SimulationTrace trace = traceAlgebraic(circuit, options);
  std::ostringstream os;
  writeCsv(os, {trace});
  const std::string csv = os.str();
  EXPECT_NE(csv.find("series,gate,nodes,seconds,error,maxbits"), std::string::npos);
  EXPECT_NE(csv.find("algebraic(Q[w]-inverse)"), std::string::npos);
  // Header + 3 samples.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
}

TEST(Report, SummaryTableAndChartSmoke) {
  const qc::Circuit circuit = algos::ghz(3);
  TraceOptions options;
  options.sampleEvery = 1;
  const SimulationTrace trace = traceAlgebraic(circuit, options);
  std::ostringstream os;
  printSummaryTable(os, {trace});
  printAsciiChart(os, "nodes", {trace}, Series::Nodes, false);
  printAsciiChart(os, "empty error", {trace}, Series::Error, true); // all zero -> "(no data)"
  const std::string out = os.str();
  EXPECT_NE(out.find("final nodes"), std::string::npos);
  EXPECT_NE(out.find("== nodes =="), std::string::npos);
  EXPECT_NE(out.find("(no data)"), std::string::npos);
}

} // namespace
} // namespace qadd::eval
