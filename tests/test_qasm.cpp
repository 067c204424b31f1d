#include "qc/qasm.hpp"

#include "qc/simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace qadd::qc {
namespace {

TEST(Qasm, ParseBasicProgram) {
  const std::string source = R"(
    OPENQASM 2.0;
    include "qelib1.inc";
    qreg q[3];
    creg c[3];
    h q[0];
    cx q[0], q[1];
    ccx q[0], q[1], q[2];
    t q[2];
    measure q[0] -> c[0];
  )";
  const Circuit circuit = fromQasm(source);
  EXPECT_EQ(circuit.qubits(), 3U);
  ASSERT_EQ(circuit.size(), 4U); // measure is skipped
  EXPECT_EQ(circuit.operations()[0].kind, GateKind::H);
  EXPECT_EQ(circuit.operations()[1].controls.size(), 1U);
  EXPECT_EQ(circuit.operations()[2].controls.size(), 2U);
  EXPECT_EQ(circuit.operations()[3].kind, GateKind::T);
}

TEST(Qasm, ParseAngles) {
  const Circuit circuit = fromQasm(
      "OPENQASM 2.0; qreg q[1]; rz(pi/4) q[0]; u1(-pi/2) q[0]; rx(0.125) q[0]; ry(3*pi/8) q[0];");
  ASSERT_EQ(circuit.size(), 4U);
  EXPECT_NEAR(circuit.operations()[0].angle, M_PI / 4, 1e-15);
  EXPECT_EQ(circuit.operations()[1].kind, GateKind::Phase);
  EXPECT_NEAR(circuit.operations()[1].angle, -M_PI / 2, 1e-15);
  EXPECT_NEAR(circuit.operations()[2].angle, 0.125, 1e-15);
  EXPECT_NEAR(circuit.operations()[3].angle, 3 * M_PI / 8, 1e-15);
}

TEST(Qasm, ParseComments) {
  const Circuit circuit = fromQasm("OPENQASM 2.0; // header\nqreg q[2]; // reg\nh q[0]; // gate\n");
  EXPECT_EQ(circuit.size(), 1U);
}

TEST(Qasm, MultipleRegistersConcatenate) {
  const Circuit circuit = fromQasm("OPENQASM 2.0; qreg a[2]; qreg b[2]; x a[1]; x b[0];");
  EXPECT_EQ(circuit.qubits(), 4U);
  EXPECT_EQ(circuit.operations()[0].target, 1U);
  EXPECT_EQ(circuit.operations()[1].target, 2U);
}

TEST(Qasm, SwapAndControlledPhase) {
  const Circuit circuit = fromQasm("OPENQASM 2.0; qreg q[2]; swap q[0], q[1]; cu1(pi/8) q[0], q[1];");
  EXPECT_EQ(circuit.size(), 4U); // swap = 3 CNOTs + the cu1
  EXPECT_EQ(circuit.operations()[3].kind, GateKind::Phase);
  EXPECT_EQ(circuit.operations()[3].controls.size(), 1U);
}

TEST(Qasm, RejectsMalformedInput) {
  // ParseError derives from std::invalid_argument, so the legacy catch type
  // still works for every malformed construct.
  EXPECT_THROW((void)fromQasm("OPENQASM 2.0; h q[0];"), std::invalid_argument); // no qreg
  EXPECT_THROW((void)fromQasm("OPENQASM 2.0; qreg q[2]; bogus q[0];"), std::invalid_argument);
  EXPECT_THROW((void)fromQasm("OPENQASM 2.0; qreg q[2]; h q[0]"), std::invalid_argument); // missing ;
  EXPECT_THROW((void)fromQasm("OPENQASM 2.0; qreg q[2]; cx q[0];"), std::invalid_argument);
  EXPECT_THROW((void)fromQasm("OPENQASM 2.0; qreg q[2]; h r[0];"), std::invalid_argument);
  EXPECT_THROW((void)fromQasm("OPENQASM 2.0; qreg q[1]; rz(pi/) q[0];"), std::invalid_argument);
  EXPECT_THROW((void)fromQasm("OPENQASM 2.0; qreg q[2]; h q[7];"), ParseError); // out of range
  EXPECT_THROW((void)fromQasm("OPENQASM 2.0; qreg q[x];"), ParseError); // bad width
  // Huge literals must surface as ParseError, not escape as the bare
  // std::out_of_range that stoul/stod throw (nor wrap through the Qubit cast).
  EXPECT_THROW((void)fromQasm("OPENQASM 2.0; qreg q[99999999999999999999];"), ParseError);
  EXPECT_THROW((void)fromQasm("OPENQASM 2.0; qreg q[4294967299];"), ParseError); // 2^32 + 3
  EXPECT_THROW((void)fromQasm("OPENQASM 2.0; qreg q[2]; h q[18446744073709551617];"), ParseError);
  EXPECT_THROW((void)fromQasm("OPENQASM 2.0; qreg q[1]; rz(1e999) q[0];"), ParseError);
}

/// Catch `body`'s ParseError and return it (fails the test if none is thrown).
template <class Body> ParseError capture(Body&& body) {
  try {
    body();
  } catch (const ParseError& error) {
    return error;
  }
  ADD_FAILURE() << "expected a qasm ParseError";
  return ParseError(0, 0, "", "no error thrown");
}

TEST(Qasm, ParseErrorCarriesPositionAndToken) {
  // Line 3, the "bogus" statement starts at column 1.
  const auto unsupported = capture([] {
    (void)fromQasm("OPENQASM 2.0;\nqreg q[2];\nbogus q[0];\n");
  });
  EXPECT_EQ(unsupported.line(), 3U);
  EXPECT_EQ(unsupported.column(), 1U);
  EXPECT_EQ(unsupported.token(), "bogus");
  EXPECT_NE(std::string(unsupported.what()).find("qasm:3:1"), std::string::npos);
  EXPECT_NE(std::string(unsupported.what()).find("unsupported gate"), std::string::npos);

  // Unknown register: the token is the register name, at its own column.
  const auto unknown = capture([] {
    (void)fromQasm("OPENQASM 2.0;\nqreg q[2];\ncx q[0], r[1];\n");
  });
  EXPECT_EQ(unknown.line(), 3U);
  EXPECT_EQ(unknown.column(), 10U);
  EXPECT_EQ(unknown.token(), "r");

  // Expression errors point into the argument list.
  const auto expression = capture([] {
    (void)fromQasm("OPENQASM 2.0;\nqreg q[1];\nrz(pi/#) q[0];\n");
  });
  EXPECT_EQ(expression.line(), 3U);
  EXPECT_GE(expression.column(), 4U);

  // Operand checks of the circuit IR surface at the statement, too.
  const auto repeated = capture([] {
    (void)fromQasm("OPENQASM 2.0;\nqreg q[3];\nx q[0];\nccx q[0], q[0], q[2];\n");
  });
  EXPECT_EQ(repeated.line(), 4U);
  EXPECT_EQ(repeated.column(), 1U);
  EXPECT_NE(std::string(repeated.what()).find("control qubit repeated"), std::string::npos);
  const auto selfControl = capture([] {
    (void)fromQasm("OPENQASM 2.0;\nqreg q[2];\ncx q[1], q[1];\n");
  });
  EXPECT_EQ(selfControl.line(), 3U);
  EXPECT_NE(std::string(selfControl.what()).find("control equals target"), std::string::npos);

  // Comments are blanked, not deleted, so positions survive comment lines.
  const auto afterComment = capture([] {
    (void)fromQasm("OPENQASM 2.0; // header comment\nqreg q[1];\n// another\n  h q[3];\n");
  });
  EXPECT_EQ(afterComment.line(), 4U);
  EXPECT_EQ(afterComment.column(), 5U);
  EXPECT_EQ(afterComment.token(), "q[3]");

  // Missing terminator reports the position of the dangling statement.
  const auto missingSemicolon = capture([] {
    (void)fromQasm("OPENQASM 2.0;\nqreg q[2];\nh q[0]");
  });
  EXPECT_EQ(missingSemicolon.line(), 3U);
  EXPECT_EQ(missingSemicolon.token(), "h q[0]");

  // Wrong operand count names the gate and the counts.
  const auto operands = capture([] {
    (void)fromQasm("OPENQASM 2.0; qreg q[2]; cx q[0];");
  });
  EXPECT_NE(std::string(operands.what()).find("expected 2, got 1"), std::string::npos);
}

TEST(Qasm, RoundTripPreservesSemantics) {
  Circuit original(3, "roundtrip");
  original.h(0).cx(0, 1).t(1).ccx(0, 1, 2).rz(0.7, 2).phase(-0.3, 0).cz(1, 2);
  const Circuit parsed = fromQasm(toQasm(original));
  ASSERT_EQ(parsed.qubits(), original.qubits());
  // Compare semantics via exact/numeric simulation (textual forms differ:
  // u1 vs phase naming etc.).
  dd::Package<dd::NumericSystem> p1(3, {0.0, dd::NumericSystem::Normalization::LeftmostNonzero});
  const auto u1 = buildUnitary(p1, original);
  const auto u2 = buildUnitary(p1, parsed);
  EXPECT_EQ(u1, u2);
}

TEST(Qasm, EmitRejectsInexpressibleGates) {
  Circuit negative(2);
  negative.controlled(GateKind::X, 1, {{0, false}});
  EXPECT_THROW((void)toQasm(negative), std::invalid_argument);
  Circuit vGate(1);
  vGate.v(0);
  EXPECT_THROW((void)toQasm(vGate), std::invalid_argument);
  Circuit mcx(4);
  mcx.mcx({0, 1, 2}, 3);
  EXPECT_THROW((void)toQasm(mcx), std::invalid_argument);
}

TEST(Qasm, EmitContainsHeaderAndGates) {
  Circuit c(2);
  c.h(0).cx(0, 1);
  const std::string qasm = toQasm(c);
  EXPECT_NE(qasm.find("OPENQASM 2.0;"), std::string::npos);
  EXPECT_NE(qasm.find("qreg q[2];"), std::string::npos);
  EXPECT_NE(qasm.find("h q[0];"), std::string::npos);
  EXPECT_NE(qasm.find("cx q[0], q[1];"), std::string::npos);
}

} // namespace
} // namespace qadd::qc
