#include "eval/driver_cli.hpp"

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <ostream>

namespace qadd::eval {

namespace {

void printUsage(std::ostream& os, const DriverSpec& spec) {
  os << spec.summary << "\n\nusage: ./" << spec.binary;
  for (const DriverPositional& positional : spec.positionals) {
    os << " [" << positional.name << "]";
  }
  os << " [flags]\n";
  if (!spec.positionals.empty()) {
    os << "\npositional arguments:\n";
    for (const DriverPositional& positional : spec.positionals) {
      os << "  " << positional.name << "  " << positional.description << " (default "
         << positional.defaultValue << ")\n";
    }
  }
  os << "\nflags:\n"
        "  --jobs N               worker threads for the numeric ε fan-out\n"
        "                         (default: QADD_JOBS env, else hardware\n"
        "                         concurrency; 1 = serial; value columns of\n"
        "                         the CSV are identical either way)\n"
        "  --stats                print the telemetry counter tables (per\n"
        "                         series + aggregated across workers)\n"
        "  --trace-json <path>    write Chrome-trace span JSON (workers show\n"
        "                         up as separate tid rows; flushed\n"
        "                         incrementally, so crashes keep a partial\n"
        "                         trace)\n"
        "  --timeline <base>      sample the package gauges per gate and per\n"
        "                         sweep point; writes <base>.json and\n"
        "                         <base>.csv (tid column matches --trace-json)\n"
        "  --profile-final        print the per-level structural profile of\n"
        "                         each series' final state DD\n"
        "  --obs-deterministic    zero the wall-clock-derived output columns\n"
        "                         (CSV seconds/cachehitrate, gc seconds,\n"
        "                         unique collisions, timeline seconds) for\n"
        "                         byte-stable output; QADD_OBS_DETERMINISTIC=1\n"
        "                         does the same\n"
        "  --checkpoint-every K   write a QCKP checkpoint every K gates\n"
        "  --checkpoint-prefix P  checkpoint path prefix (default\n"
        "                         \"checkpoint_g\"; numeric point k writes\n"
        "                         <P>p<k>_<gate>.qckp)\n"
        "  --approx-fidelity F    prune the state DDs of every numeric point\n"
        "                         under fidelity budget 1-F, F in (0, 1]\n"
        "                         (default policy pergate; see\n"
        "                         docs/APPROXIMATION.md)\n"
        "  --approx-policy P      when to prune: 'pergate' (rebudgeted after\n"
        "                         every gate) or 'oneshot' (once after the\n"
        "                         last gate); requires --approx-fidelity\n";
  if (spec.referenceFlags) {
    os << "  --refresh-reference    recompute the algebraic reference even\n"
          "                         when a valid .qref cache exists\n";
  }
  os << "  --help                 this text\n";
}

[[noreturn]] void usageError(const DriverSpec& spec, const std::string& message) {
  std::cerr << spec.binary << ": " << message << "\n\n";
  printUsage(std::cerr, spec);
  std::exit(2);
}

[[nodiscard]] long parseLong(const DriverSpec& spec, const char* what, const char* text) {
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0') {
    usageError(spec, std::string(what) + ": expected an integer, got '" + text + "'");
  }
  return value;
}

[[nodiscard]] double parseDouble(const DriverSpec& spec, const char* what, const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0') {
    usageError(spec, std::string(what) + ": expected a number, got '" + text + "'");
  }
  return value;
}

} // namespace

DriverCli parseDriverCli(int argc, char** argv, const DriverSpec& spec) {
  // --help first, so it wins over any malformed remainder.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      printUsage(std::cout, spec);
      std::exit(0);
    }
  }

  DriverCli cli;
  // The shared telemetry/snapshot flags strip themselves out of argv.
  cli.obs = parseObsCli(argc, argv);
  cli.jobs = exec::defaultJobs();

  std::size_t positionalIndex = 0;
  cli.positionals.reserve(spec.positionals.size());
  for (const DriverPositional& positional : spec.positionals) {
    cli.positionals.push_back(positional.defaultValue);
  }
  bool haveFidelity = false;
  bool havePolicy = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0) {
      if (i + 1 >= argc) {
        usageError(spec, "--jobs requires an argument");
      }
      const long jobs = parseLong(spec, "--jobs", argv[++i]);
      if (jobs < 1) {
        usageError(spec, "--jobs must be >= 1");
      }
      cli.jobs = static_cast<std::size_t>(jobs);
    } else if (std::strcmp(argv[i], "--approx-fidelity") == 0) {
      if (i + 1 >= argc) {
        usageError(spec, "--approx-fidelity requires an argument");
      }
      const double fidelity = parseDouble(spec, "--approx-fidelity", argv[++i]);
      if (!(fidelity > 0.0) || fidelity > 1.0) {
        usageError(spec, "--approx-fidelity must be in (0, 1]");
      }
      cli.approx.budget = 1.0 - fidelity;
      haveFidelity = true;
    } else if (std::strcmp(argv[i], "--approx-policy") == 0) {
      if (i + 1 >= argc) {
        usageError(spec, "--approx-policy requires an argument");
      }
      const auto policy = dd::parseApproxPolicy(argv[++i]);
      if (!policy.has_value()) {
        usageError(spec, std::string("--approx-policy: expected 'pergate', 'oneshot' or "
                                     "'none', got '") +
                             argv[i] + "'");
      }
      cli.approx.policy = *policy;
      havePolicy = true;
    } else if (argv[i][0] == '-' && argv[i][1] == '-') {
      usageError(spec, std::string("unknown flag '") + argv[i] + "'");
    } else {
      if (positionalIndex >= spec.positionals.size()) {
        usageError(spec, std::string("unexpected argument '") + argv[i] + "'");
      }
      cli.positionals[positionalIndex] =
          parseLong(spec, spec.positionals[positionalIndex].name, argv[i]);
      ++positionalIndex;
    }
  }
  if (havePolicy && !haveFidelity && cli.approx.policy != dd::ApproxPolicy::None) {
    usageError(spec, "--approx-policy requires --approx-fidelity");
  }
  if (haveFidelity && !havePolicy) {
    cli.approx.policy = dd::ApproxPolicy::PerGate; // the paper's default mode
  }
  return cli;
}

void finishDriverCli(const DriverCli& cli, std::ostream& os, const SweepResult& result) {
  finishObsCli(cli.obs, os, result.traces, &result.aggregated);
}

} // namespace qadd::eval
