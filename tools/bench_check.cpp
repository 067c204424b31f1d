/// \file bench_check.cpp
/// Benchmark regression gate: compare a freshly produced BENCH_*.json against
/// a checked-in baseline (benchmarks/baselines/<machine-class>/) and print a
/// delta table.
///
///   bench_check <baseline.json> <fresh.json> [--tol R] [--time-tol R]
///
/// Both files are flattened to dotted-path -> number maps (arrays indexed,
/// booleans as 1/0, strings skipped).  Keys are classified by their last path
/// segment:
///
///   * hard keys — deterministic quantities (node counts, byte sizes, table
///     fills, allocation rates, qubit/gate counts, cache and unique-table
///     counters and hit rates).  A relative delta beyond --tol (default
///     0.01) or a key missing from the fresh run FAILs the gate (exit 1).
///   * soft keys — wall-clock quantities (seconds, speedups, MB/s, peak
///     counts).  Deltas beyond --time-tol (default 0.5) only WARN; machine
///     noise must not gate CI.
///
/// Exit codes: 0 pass (warnings allowed), 1 regression, 2 usage, 3 bad file.
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

namespace {

/// Minimal recursive-descent JSON reader over the subset the bench writers
/// emit (objects, arrays, numbers, strings, booleans, null).  Flattens
/// directly into `out` instead of building a tree.
class JsonFlattener {
public:
  JsonFlattener(const std::string& text, std::map<std::string, double>& out)
      : text_(text), out_(out) {}

  void run() {
    skipSpace();
    value("");
    skipSpace();
    if (pos_ != text_.size()) {
      fail("trailing content");
    }
  }

private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("JSON parse error at byte " + std::to_string(pos_) + ": " + what);
  }

  void skipSpace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() const {
    if (pos_ >= text_.size()) {
      throw std::runtime_error("JSON parse error: unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consumeLiteral(const char* literal) {
    const std::size_t n = std::strlen(literal);
    if (text_.compare(pos_, n, literal) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  std::string string() {
    expect('"');
    std::string result;
    while (true) {
      if (pos_ >= text_.size()) {
        fail("unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return result;
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          fail("unterminated escape");
        }
        const char esc = text_[pos_++];
        switch (esc) {
        case 'n': result += '\n'; break;
        case 't': result += '\t'; break;
        case 'r': result += '\r'; break;
        case 'b': result += '\b'; break;
        case 'f': result += '\f'; break;
        case 'u':
          // The bench writers never emit \u escapes; skip the 4 hex digits.
          pos_ = std::min(pos_ + 4, text_.size());
          result += '?';
          break;
        default: result += esc; break;
        }
      } else {
        result += c;
      }
    }
  }

  void value(const std::string& path) {
    skipSpace();
    const char c = peek();
    if (c == '{') {
      ++pos_;
      skipSpace();
      if (peek() == '}') {
        ++pos_;
        return;
      }
      while (true) {
        skipSpace();
        const std::string key = string();
        skipSpace();
        expect(':');
        value(path.empty() ? key : path + "." + key);
        skipSpace();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        return;
      }
    }
    if (c == '[') {
      ++pos_;
      skipSpace();
      if (peek() == ']') {
        ++pos_;
        return;
      }
      std::size_t index = 0;
      while (true) {
        value(path + "." + std::to_string(index++));
        skipSpace();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        return;
      }
    }
    if (c == '"') {
      (void)string(); // string leaves are labels, not comparable quantities
      return;
    }
    if (consumeLiteral("true")) {
      out_[path] = 1.0;
      return;
    }
    if (consumeLiteral("false")) {
      out_[path] = 0.0;
      return;
    }
    if (consumeLiteral("null")) {
      return;
    }
    // Number.
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("expected a value");
    }
    try {
      out_[path] = std::stod(text_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      fail("bad number '" + text_.substr(start, pos_ - start) + "'");
    }
  }

  const std::string& text_;
  std::map<std::string, double>& out_;
  std::size_t pos_ = 0;
};

std::map<std::string, double> flattenFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  std::map<std::string, double> flat;
  JsonFlattener(text, flat).run();
  return flat;
}

/// Deterministic structural quantities: a delta here means the code changed
/// behaviour, not that the machine was busy.
bool isHardKey(const std::string& path) {
  static const std::set<std::string> kHard = {
      "finalNodes",      "nodes",          "bytes",
      "qubits",          "gates",          "entries",
      "buckets",         "live",           "workers",
      "epsilonRuns",     "identicalValueSeries",
      "obsEnabled",      "ssoEnabled",     "enabled",
      "samples",         "hit",            "allocsPerOp",
      "baselineAllocsPerOp",               "spillAllocsPerOp",
      "nodesWritten",    "nodesRead",      "weightsWritten",
      "weightsRead",     "snapshotsSaved", "snapshotsLoaded",
      // Cache and unique-table counters: nodes hash by insert serial, so
      // these follow the workload, not the heap layout.
      "hits",            "misses",         "evictions",
      "lookups",         "collisions",     "hitRate",
      "cacheHitRate",
      // serve_load structural gates (BENCH_serve.json).
      "clients",         "perClient",      "completed",
      "errors",          "droppedConnections",
      "identicalResults", "workloads",
      // gate_apply structural gates (BENCH_skip.json).
      "gateQubits",      "skipMatrixNodes", "nodeGatePassed",
      // exec_sweep's speedup gate (BENCH_exec.json).
      "speedupGatePassed",
      // approx_tradeoff structural gates (BENCH_approx.json).
      "exactNodes",      "exactFinalNodes", "approxNodes",
      "approxFinalNodes", "nodeReduction",  "prunedNodes",
      "toleranceNodes",  "toleranceFinalNodes",
      "achievedFidelity", "fidelityTarget", "fidelityGatePassed",
  };
  const std::size_t dot = path.rfind('.');
  std::string leaf = dot == std::string::npos ? path : path.substr(dot + 1);
  // Array leaves compare under their enclosing field name (histograms are
  // value series: "bitWidthHistogram.3" classifies as "bitWidthHistogram").
  if (!leaf.empty() && std::isdigit(static_cast<unsigned char>(leaf[0])) != 0 &&
      dot != std::string::npos) {
    const std::size_t prev = path.rfind('.', dot - 1);
    leaf = prev == std::string::npos ? path.substr(0, dot) : path.substr(prev + 1, dot - prev - 1);
  }
  return kHard.count(leaf) != 0;
}

double relativeDelta(double base, double fresh) {
  const double denominator = std::max(std::abs(base), 1e-12);
  return std::abs(fresh - base) / denominator;
}

int usage() {
  std::cerr << "usage: bench_check <baseline.json> <fresh.json> [--tol R] [--time-tol R]\n";
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    return usage();
  }
  double tol = 0.01;
  double timeTol = 0.5;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tol") == 0 && i + 1 < argc) {
      tol = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--time-tol") == 0 && i + 1 < argc) {
      timeTol = std::strtod(argv[++i], nullptr);
    } else {
      return usage();
    }
  }

  std::map<std::string, double> baseline;
  std::map<std::string, double> fresh;
  try {
    baseline = flattenFile(argv[1]);
    fresh = flattenFile(argv[2]);
  } catch (const std::exception& error) {
    std::cerr << "bench_check: " << error.what() << "\n";
    return 3;
  }

  std::cout << "bench_check: " << argv[2] << " vs baseline " << argv[1] << " (tol "
            << tol * 100.0 << "%, time-tol " << timeTol * 100.0 << "%)\n";
  std::cout << std::left << std::setw(6) << "state" << std::setw(52) << "key" << std::right
            << std::setw(14) << "baseline" << std::setw(14) << "fresh" << std::setw(10)
            << "delta" << "\n";

  std::size_t failures = 0;
  std::size_t warnings = 0;
  std::size_t compared = 0;
  const auto row = [](const char* state, const std::string& key, const std::string& base,
                      const std::string& current, const std::string& delta) {
    std::cout << std::left << std::setw(6) << state << std::setw(52) << key << std::right
              << std::setw(14) << base << std::setw(14) << current << std::setw(10) << delta
              << "\n";
  };
  const auto number = [](double v) {
    std::ostringstream os;
    os << std::setprecision(6) << v;
    return os.str();
  };

  for (const auto& [key, base] : baseline) {
    const bool hard = isHardKey(key);
    const auto it = fresh.find(key);
    if (it == fresh.end()) {
      // A key the baseline has but the fresh run lost is a regression in the
      // bench writer itself, regardless of classification.
      row("FAIL", key, number(base), "(missing)", "-");
      ++failures;
      continue;
    }
    ++compared;
    const double delta = relativeDelta(base, it->second);
    const double limit = hard ? tol : timeTol;
    if (delta <= limit) {
      continue; // quiet on in-tolerance keys: the table shows deviations only
    }
    std::ostringstream deltaText;
    deltaText << std::setprecision(3) << delta * 100.0 << "%";
    if (hard) {
      row("FAIL", key, number(base), number(it->second), deltaText.str());
      ++failures;
    } else {
      row("warn", key, number(base), number(it->second), deltaText.str());
      ++warnings;
    }
  }
  for (const auto& [key, value] : fresh) {
    if (baseline.find(key) == baseline.end()) {
      row("new", key, "-", number(value), "-");
    }
  }

  std::cout << compared << " keys compared, " << failures << " failures, " << warnings
            << " warnings\n";
  if (failures != 0) {
    std::cout << "RESULT: FAIL\n";
    return 1;
  }
  std::cout << "RESULT: " << (warnings != 0 ? "PASS (with warnings)\n" : "PASS\n");
  return 0;
}
