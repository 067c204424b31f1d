#include "qc/circuit.hpp"

#include <gtest/gtest.h>

namespace qadd::qc {
namespace {

TEST(Circuit, BuildersRecordOperations) {
  Circuit c(3, "demo");
  c.h(0).cx(0, 1).ccx(0, 1, 2).t(2).rz(0.5, 1);
  EXPECT_EQ(c.qubits(), 3U);
  EXPECT_EQ(c.size(), 5U);
  EXPECT_EQ(c.name(), "demo");
  EXPECT_EQ(c.operations()[0].kind, GateKind::H);
  EXPECT_EQ(c.operations()[1].controls.size(), 1U);
  EXPECT_EQ(c.operations()[2].controls.size(), 2U);
  EXPECT_DOUBLE_EQ(c.operations()[4].angle, 0.5);
}

TEST(Circuit, BoundsChecking) {
  Circuit c(2);
  EXPECT_THROW(c.h(2), std::out_of_range);
  EXPECT_THROW(c.cx(0, 2), std::out_of_range);
  EXPECT_THROW(c.cx(2, 0), std::out_of_range);
  EXPECT_THROW(c.cx(1, 1), std::invalid_argument); // control == target
}

TEST(Circuit, RepeatedControlQubitIsRejected) {
  // X(0), then X on qubit 2 controlled on qubit 0 being both |1> and |0>:
  // the projector product is 0, so the gate is the identity — but the DD
  // builder has one polarity per level.  Every entry point rejects it.
  Circuit c(3);
  c.x(0);
  EXPECT_THROW(c.controlled(GateKind::X, 2, {{0, true}, {0, false}}), std::invalid_argument);
  EXPECT_THROW(c.controlled(GateKind::X, 2, {{0, true}, {1, true}, {0, true}}),
               std::invalid_argument);
  EXPECT_THROW(c.mcx({1, 1}, 2), std::invalid_argument);
  EXPECT_THROW(c.ccx(0, 0, 2), std::invalid_argument);
  EXPECT_EQ(c.size(), 1U); // a rejected operation is not recorded
  EXPECT_THROW((void)Circuit::fromText("qubits 3\nx q0\nx q2 ctrl q0 nctrl q0\n"),
               std::invalid_argument);
  c.controlled(GateKind::X, 2, {{0, true}, {1, false}}); // distinct qubits stay fine
  EXPECT_EQ(c.size(), 2U);
}

TEST(Circuit, SwapExpandsToThreeCnots) {
  Circuit c(2);
  c.swap(0, 1);
  ASSERT_EQ(c.size(), 3U);
  for (const Operation& operation : c.operations()) {
    EXPECT_EQ(operation.kind, GateKind::X);
    EXPECT_EQ(operation.controls.size(), 1U);
  }
}

TEST(Circuit, McxMcz) {
  Circuit c(4);
  c.mcx({0, 1, 2}, 3).mcz({1, 2}, 0);
  EXPECT_EQ(c.operations()[0].controls.size(), 3U);
  EXPECT_EQ(c.operations()[1].kind, GateKind::Z);
}

TEST(Circuit, InverseReversesAndAdjoints) {
  Circuit c(2);
  c.h(0).t(0).cx(0, 1).rz(0.7, 1);
  const Circuit inv = c.inverse();
  ASSERT_EQ(inv.size(), 4U);
  EXPECT_EQ(inv.operations()[0].kind, GateKind::Rz);
  EXPECT_DOUBLE_EQ(inv.operations()[0].angle, -0.7);
  EXPECT_EQ(inv.operations()[1].kind, GateKind::X);
  EXPECT_EQ(inv.operations()[2].kind, GateKind::Tdg);
  EXPECT_EQ(inv.operations()[3].kind, GateKind::H);
}

TEST(Circuit, CliffordTOnlyAndTCount) {
  Circuit ct(2);
  ct.h(0).t(0).tdg(1).cx(0, 1).s(1);
  EXPECT_TRUE(ct.isCliffordTOnly());
  EXPECT_EQ(ct.tCount(), 2U);
  Circuit rot(1);
  rot.rz(0.1, 0);
  EXPECT_FALSE(rot.isCliffordTOnly());
}

TEST(Circuit, AppendCircuit) {
  Circuit a(2);
  a.h(0);
  Circuit b(2);
  b.cx(0, 1);
  a.append(b);
  EXPECT_EQ(a.size(), 2U);
  Circuit wrong(3);
  EXPECT_THROW(a.append(wrong), std::invalid_argument);
}

TEST(Circuit, TextRoundTrip) {
  Circuit c(4, "roundtrip");
  c.h(0)
      .cx(0, 1)
      .controlled(GateKind::X, 3, {{0, true}, {1, false}, {2, true}})
      .rz(0.78539816339744828, 2)
      .controlled(GateKind::Phase, 1, {{3, true}}, -1.5);
  const std::string text = c.toText();
  const Circuit parsed = Circuit::fromText(text);
  EXPECT_EQ(parsed.qubits(), c.qubits());
  ASSERT_EQ(parsed.size(), c.size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(parsed.operations()[i], c.operations()[i]) << "operation " << i;
  }
}

TEST(Circuit, FromTextRejectsMalformedInput) {
  EXPECT_THROW((void)Circuit::fromText(""), std::invalid_argument);
  EXPECT_THROW((void)Circuit::fromText("wat 3\n"), std::invalid_argument);
  EXPECT_THROW((void)Circuit::fromText("qubits 2\nbogus q0\n"), std::invalid_argument);
  EXPECT_THROW((void)Circuit::fromText("qubits 2\nh x0\n"), std::invalid_argument);
  EXPECT_THROW((void)Circuit::fromText("qubits 2\nx q1 banana q0\n"), std::invalid_argument);
}

TEST(Circuit, FromTextSkipsCommentsAndBlankLines) {
  const Circuit parsed = Circuit::fromText("qubits 2\n# a comment\n\nh q0\n");
  EXPECT_EQ(parsed.size(), 1U);
  EXPECT_EQ(parsed.operations()[0].kind, GateKind::H);
}

TEST(Circuit, ShiftedMovesAllLines) {
  Circuit c(2);
  c.h(0).cx(0, 1);
  const Circuit shifted = c.shifted(3, 6);
  EXPECT_EQ(shifted.qubits(), 6U);
  EXPECT_EQ(shifted.operations()[0].target, 3U);
  EXPECT_EQ(shifted.operations()[1].target, 4U);
  EXPECT_EQ(shifted.operations()[1].controls[0].qubit, 3U);
  EXPECT_THROW((void)c.shifted(5, 6), std::invalid_argument);
}

TEST(Circuit, ControlledByAddsAControlEverywhere) {
  Circuit c(3);
  c.h(1).cx(1, 2);
  const Circuit controlled = c.controlledBy(0);
  ASSERT_EQ(controlled.size(), 2U);
  EXPECT_EQ(controlled.operations()[0].controls.size(), 1U);
  EXPECT_EQ(controlled.operations()[0].controls[0].qubit, 0U);
  EXPECT_EQ(controlled.operations()[1].controls.size(), 2U);
  // Collisions are rejected.
  Circuit usesZero(2);
  usesZero.h(0);
  EXPECT_THROW((void)usesZero.controlledBy(0), std::invalid_argument);
  Circuit controlsZero(2);
  controlsZero.cx(0, 1);
  EXPECT_THROW((void)controlsZero.controlledBy(0), std::invalid_argument);
  EXPECT_THROW((void)c.controlledBy(7), std::out_of_range);
}

TEST(Circuit, NegativeControlTextForm) {
  Circuit c(2);
  c.controlled(GateKind::X, 1, {{0, false}});
  EXPECT_NE(c.toText().find("nctrl q0"), std::string::npos);
}

} // namespace
} // namespace qadd::qc
