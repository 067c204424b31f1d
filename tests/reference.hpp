/// \file reference.hpp
/// Test oracles that share no code with the decision-diagram package:
///  - dense 2^n x 2^n operation matrices, built from the 2x2 gate matrix
///    (qc::complexMatrix) with Kronecker products of per-qubit factors —
///    never through makeGate, makeOperationDD or toDenseMatrix — and the
///    state vectors and unitaries they compose to;
///  - a 64-bit FNV-1a hash, the compact stand-in for recorded snapshot bytes.
#pragma once

#include "linalg/dense.hpp"
#include "qc/circuit.hpp"
#include "qc/gates.hpp"

#include <cstdint>
#include <vector>

namespace qadd::reference {

/// Dense matrix of `operation` on an n-qubit register (qubit 0 is the most
/// significant Kronecker factor).  Built as I + P (x) (U - I), where the
/// per-qubit factors of P (x) (U - I) are U - I on the target, |1><1| or
/// |0><0| on positive or negative controls, and I everywhere else.
inline la::Matrix denseOperation(const qc::Operation& operation, qc::Qubit nqubits) {
  using C = la::Complex;
  const auto u = qc::complexMatrix(operation.kind, operation.angle);
  la::Matrix product = la::Matrix::identity(1);
  for (qc::Qubit q = 0; q < nqubits; ++q) {
    la::Matrix factor = la::Matrix::identity(2);
    if (q == operation.target) {
      factor = la::Matrix(2, {u[0] - C{1.0}, u[1], u[2], u[3] - C{1.0}});
    }
    for (const qc::ControlSpec& control : operation.controls) {
      if (control.qubit == q) {
        factor = control.positive ? la::Matrix(2, {C{}, C{}, C{}, C{1.0}})
                                  : la::Matrix(2, {C{1.0}, C{}, C{}, C{}});
      }
    }
    product = product.kron(factor);
  }
  return la::Matrix::identity(product.dimension()) + product;
}

/// Dense unitary of the whole circuit (later operations multiply from the left).
inline la::Matrix denseUnitary(const qc::Circuit& circuit) {
  la::Matrix unitary = la::Matrix::identity(std::size_t{1} << circuit.qubits());
  for (const qc::Operation& operation : circuit.operations()) {
    unitary = denseOperation(operation, circuit.qubits()) * unitary;
  }
  return unitary;
}

/// Final state of the circuit applied to |0...0>.
inline la::Vector denseSimulate(const qc::Circuit& circuit) {
  la::Vector state = la::Vector::basisState(std::size_t{1} << circuit.qubits(), 0);
  for (const qc::Operation& operation : circuit.operations()) {
    state = denseOperation(operation, circuit.qubits()) * state;
  }
  return state;
}

/// 64-bit FNV-1a over a QDDS blob: a compact stand-in for the bytes.
inline std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint8_t byte : bytes) {
    hash = (hash ^ byte) * 0x100000001b3ULL;
  }
  return hash;
}

} // namespace qadd::reference
