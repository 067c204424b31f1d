/// \file main.cpp
/// qadd_perf: one named workload, one seed, one measurement.
///
///   qadd_perf --workload alg-exact|num-sweep|serve-mix --seed N --seconds S
///             --trace 0|1 --tmp DIR --data DIR
///
/// Prints a table of the metrics, then as its last line one JSON object
/// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
/// with --trace 0, the per-layer metrics (from spans and counters of a
/// separate traced half) with --trace 1.  Artefacts (QREF reference caches,
/// the span trace) go to the --tmp directory; input circuits are read from
/// <--data>/circuits.
#include "harness.hpp"
#include "workloads.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

namespace {

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "qadd_perf: " << problem
            << "\nusage: qadd_perf --workload alg-exact|num-sweep|serve-mix --seed N"
               " --seconds S --trace 0|1 --tmp DIR --data DIR\n";
  std::exit(2);
}

perf::Options parse(int argc, char** argv) {
  perf::Options options;
  bool haveWorkload = false;
  bool haveTmp = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        haveWorkload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          usage("--trace takes 0 or 1");
        }
        options.trace = value == "1";
      } else if (flag == "--data") {
        options.dataDir = value;
      } else if (flag == "--tmp") {
        options.tmpDir = value;
        haveTmp = true;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!haveWorkload || !haveTmp) {
    usage("--workload and --tmp are required");
  }
  if (!(options.seconds > 0.0) || options.seconds > 600.0) {
    usage("--seconds must be in (0, 600]");
  }
  return options;
}

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.12g", value);
  return buffer;
}

} // namespace

int main(int argc, char** argv) {
  const perf::Options options = parse(argc, argv);
  perf::Outcome outcome;
  try {
    if (options.workload == "alg-exact") {
      outcome = perf::runAlgExact(options);
    } else if (options.workload == "num-sweep") {
      outcome = perf::runNumSweep(options);
    } else if (options.workload == "serve-mix") {
      outcome = perf::runServeMix(options);
    } else {
      usage("unknown workload " + options.workload);
    }
    if (outcome.tracer != nullptr) {
      outcome.tracer->write(options.tmpDir + "/spans.csv");
    }
  } catch (const std::exception& error) {
    std::cerr << "qadd_perf: " << options.workload << " aborted: " << error.what() << "\n";
    return 1;
  }
  for (const std::string& problem : outcome.problems) {
    std::cerr << "check failed: " << problem << "\n";
  }
  for (perf::Metric& metric : outcome.metrics) {
    if (!std::isfinite(metric.value)) {
      outcome.fail(metric.name + " is not finite");
      metric.value = 0.0;
    }
  }
  if (outcome.attempted == 0) {
    outcome.fail("no op was attempted");
  }

  std::cout << "== " << options.workload << " seed " << options.seed << ", "
            << (options.trace ? "traced" : "untraced") << " ==\n";
  for (const std::string& note : outcome.notes) {
    std::cout << "  " << note << "\n";
  }
  if (outcome.tracer != nullptr) {
    std::printf("  %-22s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms");
    for (const auto& [name, layer] : outcome.tracer->layerTimes()) {
      std::printf("  %-22s %8zu %12.3f %12.3f\n", name.c_str(), layer.count,
                  layer.totalSeconds * 1e3, layer.selfSeconds * 1e3);
    }
  }
  for (const perf::Metric& metric : outcome.metrics) {
    std::printf("  %-28s %16s %s\n", metric.name.c_str(), number(metric.value).c_str(),
                metric.unit.c_str());
  }
  std::string json = std::string("{\"correct\": ") + (outcome.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(outcome.attempted) +
                     ", \"failed\": " + std::to_string(outcome.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const perf::Metric& metric = outcome.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + metric.name + "\": {\"value\": " + number(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}
