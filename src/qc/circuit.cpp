#include "qc/circuit.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace qadd::qc {

Circuit& Circuit::append(Operation operation) {
  if (operation.target >= nqubits_) {
    throw std::out_of_range("Circuit: target qubit out of range");
  }
  const auto& controls = operation.controls;
  for (auto control = controls.begin(); control != controls.end(); ++control) {
    if (control->qubit >= nqubits_) {
      throw std::out_of_range("Circuit: control qubit out of range");
    }
    if (control->qubit == operation.target) {
      throw std::invalid_argument("Circuit: control equals target");
    }
    // A qubit controlled twice has no single polarity (with opposite
    // polarities the projector product is 0), so it is rejected.
    if (std::any_of(controls.begin(), control,
                    [&](const ControlSpec& earlier) { return earlier.qubit == control->qubit; })) {
      throw std::invalid_argument("Circuit: control qubit repeated");
    }
  }
  operations_.push_back(std::move(operation));
  return *this;
}

Circuit& Circuit::mcx(const std::vector<Qubit>& controls, Qubit target) {
  std::vector<ControlSpec> specs;
  specs.reserve(controls.size());
  for (const Qubit q : controls) {
    specs.push_back({q, true});
  }
  return append({GateKind::X, 0.0, target, std::move(specs)});
}

Circuit& Circuit::mcz(const std::vector<Qubit>& controls, Qubit target) {
  std::vector<ControlSpec> specs;
  specs.reserve(controls.size());
  for (const Qubit q : controls) {
    specs.push_back({q, true});
  }
  return append({GateKind::Z, 0.0, target, std::move(specs)});
}

Circuit& Circuit::append(const Circuit& other) {
  if (other.nqubits_ != nqubits_) {
    throw std::invalid_argument("Circuit: appending circuit of different width");
  }
  operations_.insert(operations_.end(), other.operations_.begin(), other.operations_.end());
  return *this;
}

Circuit Circuit::inverse() const {
  Circuit result(nqubits_, name_.empty() ? std::string{} : name_ + "_inv");
  for (auto it = operations_.rbegin(); it != operations_.rend(); ++it) {
    Operation inverted = *it;
    inverted.kind = adjointKind(it->kind);
    if (isParameterized(it->kind)) {
      inverted.angle = -it->angle;
    }
    result.append(std::move(inverted));
  }
  return result;
}

Circuit Circuit::shifted(Qubit offset, Qubit newWidth) const {
  if (offset + nqubits_ > newWidth) {
    throw std::invalid_argument("Circuit::shifted: target register too narrow");
  }
  Circuit result(newWidth, name_);
  for (Operation operation : operations_) {
    operation.target += offset;
    for (ControlSpec& control : operation.controls) {
      control.qubit += offset;
    }
    result.append(std::move(operation));
  }
  return result;
}

Circuit Circuit::controlledBy(Qubit control) const {
  if (control >= nqubits_) {
    throw std::out_of_range("Circuit::controlledBy: control out of range");
  }
  Circuit result(nqubits_, name_.empty() ? std::string{} : "c_" + name_);
  for (Operation operation : operations_) {
    if (operation.target == control) {
      throw std::invalid_argument("Circuit::controlledBy: control collides with a target");
    }
    for (const ControlSpec& existing : operation.controls) {
      if (existing.qubit == control) {
        throw std::invalid_argument("Circuit::controlledBy: control already used");
      }
    }
    operation.controls.push_back({control, true});
    result.append(std::move(operation));
  }
  return result;
}

bool Circuit::isCliffordTOnly() const {
  for (const Operation& operation : operations_) {
    if (!isCliffordT(operation.kind)) {
      return false;
    }
  }
  return true;
}

std::size_t Circuit::tCount() const {
  std::size_t count = 0;
  for (const Operation& operation : operations_) {
    if (operation.kind == GateKind::T || operation.kind == GateKind::Tdg) {
      ++count;
    }
  }
  return count;
}

std::string Circuit::toText() const {
  std::ostringstream os;
  os << "qubits " << nqubits_ << "\n";
  for (const Operation& operation : operations_) {
    os << gateName(operation.kind);
    if (isParameterized(operation.kind)) {
      os.precision(17);
      os << " " << operation.angle;
    }
    os << " q" << operation.target;
    for (const ControlSpec& control : operation.controls) {
      os << (control.positive ? " ctrl q" : " nctrl q") << control.qubit;
    }
    os << "\n";
  }
  return os.str();
}

namespace {

Qubit parseQubitToken(const std::string& token) {
  if (token.size() < 2 || token[0] != 'q') {
    throw std::invalid_argument("Circuit::fromText: expected qubit token, got '" + token + "'");
  }
  return static_cast<Qubit>(std::stoul(token.substr(1)));
}

} // namespace

Circuit Circuit::fromText(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) {
    throw std::invalid_argument("Circuit::fromText: empty input");
  }
  std::istringstream header(line);
  std::string keyword;
  Qubit nqubits = 0;
  header >> keyword >> nqubits;
  if (keyword != "qubits" || nqubits == 0) {
    throw std::invalid_argument("Circuit::fromText: missing 'qubits N' header");
  }
  Circuit circuit(nqubits);
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream tokens(line);
    std::string name;
    tokens >> name;
    Operation operation;
    operation.kind = gateKindFromName(name);
    if (isParameterized(operation.kind)) {
      tokens >> operation.angle;
    }
    std::string token;
    tokens >> token;
    operation.target = parseQubitToken(token);
    while (tokens >> token) {
      const bool positive = token == "ctrl";
      if (!positive && token != "nctrl") {
        throw std::invalid_argument("Circuit::fromText: expected ctrl/nctrl, got '" + token + "'");
      }
      tokens >> token;
      operation.controls.push_back({parseQubitToken(token), positive});
    }
    circuit.append(std::move(operation));
  }
  return circuit;
}

std::ostream& operator<<(std::ostream& os, const Circuit& circuit) {
  return os << circuit.toText();
}

} // namespace qadd::qc
