/// \file circuit.hpp
/// Quantum circuit IR: an ordered list of (possibly multi-controlled) gate
/// applications on a fixed register, with a simple text round-trip format.
#pragma once

#include "core/dd_node.hpp"
#include "qc/gates.hpp"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace qadd::qc {

using dd::Qubit;

/// A control qubit with polarity (positive = active on |1>); the DD
/// package's own control type, so operations reach makeGate unconverted.
using dd::ControlSpec;

/// One gate application.
struct Operation {
  GateKind kind = GateKind::I;
  double angle = 0.0; // only meaningful for parameterized kinds
  Qubit target = 0;
  std::vector<ControlSpec> controls;
  friend bool operator==(const Operation&, const Operation&) = default;
};

/// An ordered quantum circuit over `qubits()` qubits (qubit 0 is the top /
/// most significant line, matching the QMDD variable order).
class Circuit {
public:
  explicit Circuit(Qubit nqubits, std::string name = {})
      : nqubits_(nqubits), name_(std::move(name)) {}

  [[nodiscard]] Qubit qubits() const { return nqubits_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<Operation>& operations() const { return operations_; }
  [[nodiscard]] std::size_t size() const { return operations_.size(); }

  // -- builders (fluent, bounds-checked) ----------------------------------------

  Circuit& append(Operation operation);
  Circuit& gate(GateKind kind, Qubit target) { return append({kind, 0.0, target, {}}); }
  Circuit& h(Qubit q) { return gate(GateKind::H, q); }
  Circuit& x(Qubit q) { return gate(GateKind::X, q); }
  Circuit& y(Qubit q) { return gate(GateKind::Y, q); }
  Circuit& z(Qubit q) { return gate(GateKind::Z, q); }
  Circuit& s(Qubit q) { return gate(GateKind::S, q); }
  Circuit& sdg(Qubit q) { return gate(GateKind::Sdg, q); }
  Circuit& t(Qubit q) { return gate(GateKind::T, q); }
  Circuit& tdg(Qubit q) { return gate(GateKind::Tdg, q); }
  Circuit& v(Qubit q) { return gate(GateKind::V, q); }
  Circuit& vdg(Qubit q) { return gate(GateKind::Vdg, q); }
  Circuit& rx(double angle, Qubit q) { return append({GateKind::Rx, angle, q, {}}); }
  Circuit& ry(double angle, Qubit q) { return append({GateKind::Ry, angle, q, {}}); }
  Circuit& rz(double angle, Qubit q) { return append({GateKind::Rz, angle, q, {}}); }
  Circuit& phase(double angle, Qubit q) { return append({GateKind::Phase, angle, q, {}}); }
  Circuit& cx(Qubit control, Qubit target) {
    return append({GateKind::X, 0.0, target, {{control, true}}});
  }
  Circuit& cz(Qubit control, Qubit target) {
    return append({GateKind::Z, 0.0, target, {{control, true}}});
  }
  Circuit& ccx(Qubit c1, Qubit c2, Qubit target) {
    return append({GateKind::X, 0.0, target, {{c1, true}, {c2, true}}});
  }
  Circuit& controlled(GateKind kind, Qubit target, std::vector<ControlSpec> controls,
                      double angle = 0.0) {
    return append({kind, angle, target, std::move(controls)});
  }
  /// Multi-controlled X (arbitrary control count; applied as one QMDD gate).
  Circuit& mcx(const std::vector<Qubit>& controls, Qubit target);
  /// Multi-controlled Z.
  Circuit& mcz(const std::vector<Qubit>& controls, Qubit target);
  /// SWAP decomposed into three CNOTs.
  Circuit& swap(Qubit a, Qubit b) { return cx(a, b).cx(b, a).cx(a, b); }

  /// Appends all of `other` (same width required).
  Circuit& append(const Circuit& other);

  /// The inverse circuit (reversed order, adjoint gates).
  [[nodiscard]] Circuit inverse() const;

  /// The same circuit embedded into a register of `newWidth` qubits with all
  /// lines moved down by `offset`. \pre offset + qubits() <= newWidth
  [[nodiscard]] Circuit shifted(Qubit offset, Qubit newWidth) const;

  /// Every operation additionally controlled on `control` (positive).
  /// Controlled Clifford+T gates remain exactly representable (their matrix
  /// entries are still in D[omega]).  \pre control is not used by the circuit
  [[nodiscard]] Circuit controlledBy(Qubit control) const;

  // -- analysis -------------------------------------------------------------------

  /// True iff every gate is exactly representable (Clifford+T family).
  [[nodiscard]] bool isCliffordTOnly() const;
  /// Number of T / Tdg gates (the standard cost measure for fault tolerance).
  [[nodiscard]] std::size_t tCount() const;

  // -- text round trip -------------------------------------------------------------
  //
  // Format: one header "qubits N" line, then one line per operation:
  //   <name> [angle] q<target> [ctrl q<i> | nctrl q<i>]...
  // e.g. "h q0", "rz 0.785398 q2", "x q3 ctrl q0 ctrl q1".

  [[nodiscard]] std::string toText() const;
  [[nodiscard]] static Circuit fromText(const std::string& text);

  friend std::ostream& operator<<(std::ostream& os, const Circuit& circuit);

private:
  Qubit nqubits_;
  std::string name_;
  std::vector<Operation> operations_;
};

} // namespace qadd::qc
