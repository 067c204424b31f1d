#include "qc/qasm.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace qadd::qc {

namespace {

std::string renderMessage(std::size_t line, std::size_t column, const std::string& token,
                          const std::string& message) {
  std::string rendered = "qasm:" + std::to_string(line) + ":" + std::to_string(column) + ": " +
                         message;
  if (!token.empty()) {
    rendered += " (near '" + token + "')";
  }
  return rendered;
}

/// 1-based line/column of a byte offset in the original source.
std::pair<std::size_t, std::size_t> lineColumn(std::string_view source, std::size_t offset) {
  std::size_t line = 1;
  std::size_t column = 1;
  const std::size_t end = std::min(offset, source.size());
  for (std::size_t i = 0; i < end; ++i) {
    if (source[i] == '\n') {
      ++line;
      column = 1;
    } else {
      ++column;
    }
  }
  return {line, column};
}

[[noreturn]] void failAt(std::string_view source, std::size_t offset, std::string token,
                         const std::string& message) {
  const auto [line, column] = lineColumn(source, offset);
  throw ParseError(line, column, std::move(token), message);
}

/// Minimal arithmetic-expression evaluator for gate arguments: numbers, pi,
/// + - * / and parentheses (covers what qelib-style sources use, e.g.
/// "-pi/4", "3*pi/8").  `baseOffset` is the position of the expression in the
/// original source, so errors carry exact coordinates.
class ExpressionParser {
public:
  ExpressionParser(std::string_view source, std::string_view text, std::size_t baseOffset)
      : source_(source), text_(text), baseOffset_(baseOffset) {}

  double parse() {
    const double value = parseSum();
    skipSpace();
    if (position_ != text_.size()) {
      fail(position_, std::string{text_.substr(position_)},
           "trailing characters in expression");
    }
    return value;
  }

private:
  [[noreturn]] void fail(std::size_t position, std::string token, const std::string& message) {
    failAt(source_, baseOffset_ + position, std::move(token), message);
  }

  void skipSpace() {
    while (position_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[position_])) != 0) {
      ++position_;
    }
  }
  bool consume(char c) {
    skipSpace();
    if (position_ < text_.size() && text_[position_] == c) {
      ++position_;
      return true;
    }
    return false;
  }
  double parseSum() {
    double value = parseProduct();
    while (true) {
      if (consume('+')) {
        value += parseProduct();
      } else if (consume('-')) {
        value -= parseProduct();
      } else {
        return value;
      }
    }
  }
  double parseProduct() {
    double value = parseUnary();
    while (true) {
      if (consume('*')) {
        value *= parseUnary();
      } else if (consume('/')) {
        value /= parseUnary();
      } else {
        return value;
      }
    }
  }
  double parseUnary() {
    if (consume('-')) {
      return -parseUnary();
    }
    if (consume('+')) {
      return parseUnary();
    }
    return parseAtom();
  }
  double parseAtom() {
    skipSpace();
    if (consume('(')) {
      const double value = parseSum();
      if (!consume(')')) {
        fail(position_, std::string{text_}, "missing ')' in expression");
      }
      return value;
    }
    if (position_ + 1 < text_.size() && text_.compare(position_, 2, "pi") == 0) {
      position_ += 2;
      return M_PI;
    }
    const std::size_t start = position_;
    while (position_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[position_])) != 0 ||
            text_[position_] == '.' || text_[position_] == 'e' || text_[position_] == 'E' ||
            ((text_[position_] == '+' || text_[position_] == '-') && position_ > start &&
             (text_[position_ - 1] == 'e' || text_[position_ - 1] == 'E')))) {
      ++position_;
    }
    if (position_ == start) {
      fail(start, std::string{text_}, "expected number in expression");
    }
    const std::string token{text_.substr(start, position_ - start)};
    try {
      return std::stod(token);
    } catch (const std::out_of_range&) {
      fail(start, token, "number out of range in expression");
    }
  }

  std::string_view source_;
  std::string_view text_;
  std::size_t baseOffset_ = 0;
  std::size_t position_ = 0;
};

/// One ';'-delimited statement: its trimmed text plus the byte offset of that
/// text in the original source (comment stripping is offset-preserving).
struct Statement {
  std::string text;
  std::size_t offset = 0;
};

/// Registers wider (and indices larger) than this are rejected outright: a
/// 2^20-qubit DD is far past anything simulable, and the bound keeps huge
/// literals from wrapping through the narrower Qubit cast at the call sites.
constexpr std::size_t kMaxQasmIndex = 1U << 20U;

/// Parse a decimal unsigned integer; the whole token must be digits.
std::size_t parseIndex(std::string_view source, std::string_view digits, std::size_t offset,
                       const std::string& what) {
  if (digits.empty() ||
      !std::all_of(digits.begin(), digits.end(),
                   [](unsigned char c) { return std::isdigit(c) != 0; })) {
    failAt(source, offset, std::string{digits}, "expected an unsigned integer " + what);
  }
  std::size_t value = kMaxQasmIndex + 1; // stoul overflow counts as too large
  try {
    value = std::stoul(std::string{digits});
  } catch (const std::out_of_range&) {
  }
  if (value > kMaxQasmIndex) {
    failAt(source, offset, std::string{digits}, "integer too large " + what);
  }
  return value;
}

} // namespace

ParseError::ParseError(std::size_t line, std::size_t column, std::string token,
                       const std::string& message)
    : std::invalid_argument(renderMessage(line, column, token, message)), line_(line),
      column_(column), token_(std::move(token)) {}

Circuit fromQasm(const std::string& source) {
  // Blank out comments in place of deleting them, so every byte offset in
  // `cleaned` is also a byte offset in `source` — that equivalence is what
  // lets every error below report exact line/column coordinates.
  std::string cleaned = source;
  for (std::size_t i = 0; i + 1 < cleaned.size(); ++i) {
    if (cleaned[i] == '/' && cleaned[i + 1] == '/') {
      while (i < cleaned.size() && cleaned[i] != '\n') {
        cleaned[i++] = ' ';
      }
    }
  }

  std::map<std::string, std::pair<Qubit, Qubit>> registers; // qreg name -> {base, width}
  Qubit totalQubits = 0;
  std::vector<Statement> statements;
  {
    std::size_t start = 0;
    for (std::size_t i = 0; i <= cleaned.size(); ++i) {
      if (i < cleaned.size() && cleaned[i] != ';') {
        continue;
      }
      // [start, i) is one raw statement; trim it while keeping the offset of
      // the first retained character.
      std::size_t first = start;
      while (first < i && std::isspace(static_cast<unsigned char>(cleaned[first])) != 0) {
        ++first;
      }
      std::size_t last = i;
      while (last > first && std::isspace(static_cast<unsigned char>(cleaned[last - 1])) != 0) {
        --last;
      }
      if (first < last) {
        if (i == cleaned.size()) {
          failAt(source, first, cleaned.substr(first, last - first),
                 "missing ';' after last statement");
        }
        statements.push_back({cleaned.substr(first, last - first), first});
      }
      start = i + 1;
    }
  }

  // First pass: collect qreg declarations (so the Circuit width is known).
  std::vector<Statement> bodyStatements;
  for (const Statement& statement : statements) {
    if (statement.text.starts_with("OPENQASM") || statement.text.starts_with("include") ||
        statement.text.starts_with("creg") || statement.text.starts_with("barrier") ||
        statement.text.starts_with("measure")) {
      continue;
    }
    if (statement.text.starts_with("qreg")) {
      const auto open = statement.text.find('[');
      const auto close = statement.text.find(']');
      if (open == std::string::npos || close == std::string::npos || close < open) {
        failAt(source, statement.offset, statement.text, "malformed qreg");
      }
      const std::string name = [&] {
        std::string n = statement.text.substr(4, open - 4);
        n.erase(n.begin(), std::find_if(n.begin(), n.end(), [](unsigned char c) {
                  return std::isspace(c) == 0;
                }));
        n.erase(std::find_if(n.rbegin(), n.rend(),
                             [](unsigned char c) { return std::isspace(c) == 0; })
                    .base(),
                n.end());
        return n;
      }();
      const auto width = static_cast<Qubit>(
          parseIndex(source, std::string_view{statement.text}.substr(open + 1, close - open - 1),
                     statement.offset + open + 1, "as the register width"));
      registers[name] = {totalQubits, width};
      totalQubits += width;
      continue;
    }
    bodyStatements.push_back(statement);
  }
  if (totalQubits == 0) {
    failAt(source, 0, "", "no qreg declared");
  }

  Circuit circuit(totalQubits, "qasm");
  // `token` is a slice of a statement's text; `localOffset` its position
  // within that statement.
  const auto parseQubit = [&](const Statement& statement, std::string_view token,
                              std::size_t localOffset) {
    while (!token.empty() && std::isspace(static_cast<unsigned char>(token.front())) != 0) {
      token.remove_prefix(1);
      ++localOffset;
    }
    while (!token.empty() && std::isspace(static_cast<unsigned char>(token.back())) != 0) {
      token.remove_suffix(1);
    }
    const std::size_t tokenOffset = statement.offset + localOffset;
    const auto open = token.find('[');
    const auto close = token.find(']');
    if (open == std::string::npos || close == std::string::npos || close < open) {
      failAt(source, tokenOffset, std::string{token}, "expected a qubit reference");
    }
    std::string name{token.substr(0, open)};
    name.erase(std::find_if(name.rbegin(), name.rend(),
                            [](unsigned char c) { return std::isspace(c) == 0; })
                   .base(),
               name.end());
    const auto it = registers.find(name);
    if (it == registers.end()) {
      failAt(source, tokenOffset, name, "unknown register");
    }
    const std::size_t index = parseIndex(source, token.substr(open + 1, close - open - 1),
                                         tokenOffset + open + 1, "as the qubit index");
    if (index >= it->second.second) {
      failAt(source, tokenOffset, std::string{token}, "qubit index out of range for register");
    }
    return static_cast<Qubit>(it->second.first + index);
  };

  for (const Statement& statement : bodyStatements) {
    // <name>[(args)] operand {, operand}
    std::size_t nameEnd = 0;
    while (nameEnd < statement.text.size() && statement.text[nameEnd] != ' ' &&
           statement.text[nameEnd] != '(') {
      ++nameEnd;
    }
    const std::string name = statement.text.substr(0, nameEnd);
    double angle = 0.0;
    std::size_t operandStart = nameEnd;
    if (nameEnd < statement.text.size() && statement.text[nameEnd] == '(') {
      const auto close = statement.text.find(')', nameEnd);
      if (close == std::string::npos) {
        failAt(source, statement.offset + nameEnd, statement.text, "missing ')' in gate call");
      }
      angle = ExpressionParser(source, statement.text.substr(nameEnd + 1, close - nameEnd - 1),
                               statement.offset + nameEnd + 1)
                  .parse();
      operandStart = close + 1;
    }
    std::vector<Qubit> operands;
    {
      std::string_view rest{statement.text};
      std::size_t position = operandStart;
      while (position < rest.size()) {
        std::size_t comma = rest.find(',', position);
        if (comma == std::string::npos) {
          comma = rest.size();
        }
        operands.push_back(parseQubit(statement, rest.substr(position, comma - position), position));
        position = comma + 1;
      }
    }
    const auto need = [&](std::size_t count) {
      if (operands.size() != count) {
        failAt(source, statement.offset, statement.text,
               "wrong operand count for '" + name + "': expected " + std::to_string(count) +
                   ", got " + std::to_string(operands.size()));
      }
    };
    // Circuit::append's operand checks (a control equal to the target or
    // repeated) become parse errors at the statement.
    try {
      if (name == "id") {
        need(1);
        circuit.gate(GateKind::I, operands[0]);
      } else if (name == "x" || name == "y" || name == "z" || name == "h" || name == "s" ||
                 name == "sdg" || name == "t" || name == "tdg") {
        need(1);
        circuit.gate(gateKindFromName(name), operands[0]);
      } else if (name == "rx" || name == "ry" || name == "rz") {
        need(1);
        circuit.append({gateKindFromName(name), angle, operands[0], {}});
      } else if (name == "p" || name == "u1") {
        need(1);
        circuit.phase(angle, operands[0]);
      } else if (name == "cx" || name == "CX") {
        need(2);
        circuit.cx(operands[0], operands[1]);
      } else if (name == "cz") {
        need(2);
        circuit.cz(operands[0], operands[1]);
      } else if (name == "ccx") {
        need(3);
        circuit.ccx(operands[0], operands[1], operands[2]);
      } else if (name == "swap") {
        need(2);
        circuit.swap(operands[0], operands[1]);
      } else if (name == "cp" || name == "cu1") {
        need(2);
        circuit.controlled(GateKind::Phase, operands[1], {{operands[0], true}}, angle);
      } else {
        failAt(source, statement.offset, name, "unsupported gate");
      }
    } catch (const ParseError&) {
      throw;
    } catch (const std::invalid_argument& error) {
      failAt(source, statement.offset, statement.text, error.what());
    }
  }
  return circuit;
}

std::string toQasm(const Circuit& circuit) {
  std::ostringstream os;
  os << "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[" << circuit.qubits() << "];\n";
  os.precision(17);
  for (const Operation& operation : circuit.operations()) {
    for (const ControlSpec& control : operation.controls) {
      if (!control.positive) {
        throw std::invalid_argument("toQasm: negative controls are not expressible in qelib1");
      }
    }
    const auto q = [](Qubit qubit) {
      return "q[" + std::to_string(qubit) + "]";
    };
    if (operation.controls.empty()) {
      if (operation.kind == GateKind::Phase) {
        os << "u1(" << operation.angle << ") " << q(operation.target) << ";\n";
      } else if (isParameterized(operation.kind)) {
        os << gateName(operation.kind) << "(" << operation.angle << ") " << q(operation.target)
           << ";\n";
      } else if (operation.kind == GateKind::I) {
        os << "id " << q(operation.target) << ";\n";
      } else if (operation.kind == GateKind::V || operation.kind == GateKind::Vdg) {
        throw std::invalid_argument("toQasm: v/vdg have no qelib1 equivalent");
      } else {
        os << gateName(operation.kind) << " " << q(operation.target) << ";\n";
      }
    } else if (operation.controls.size() == 1 && operation.kind == GateKind::X) {
      os << "cx " << q(operation.controls[0].qubit) << ", " << q(operation.target) << ";\n";
    } else if (operation.controls.size() == 1 && operation.kind == GateKind::Z) {
      os << "cz " << q(operation.controls[0].qubit) << ", " << q(operation.target) << ";\n";
    } else if (operation.controls.size() == 1 && operation.kind == GateKind::Phase) {
      os << "cu1(" << operation.angle << ") " << q(operation.controls[0].qubit) << ", "
         << q(operation.target) << ";\n";
    } else if (operation.controls.size() == 2 && operation.kind == GateKind::X) {
      os << "ccx " << q(operation.controls[0].qubit) << ", " << q(operation.controls[1].qubit)
         << ", " << q(operation.target) << ";\n";
    } else {
      throw std::invalid_argument("toQasm: gate has no qelib1 encoding");
    }
  }
  return os.str();
}

} // namespace qadd::qc
