/// \file qadd_serve.cpp
/// The simulation-as-a-service daemon (docs/SERVE.md): accepts circuit jobs
/// over line-delimited JSON on TCP, one DD package per session, with
/// admission control and idle-session QCKP persistence.
///
///   ./qadd_serve [--port N] [--bind A] [--workers N] [--max-queue N]
///                [--max-sessions N] [--watermark-nodes N] [--idle-timeout S]
///                [--write-stall S] [--max-frame-bytes N] [--cache N] [--help]
///
/// Prints "qadd_serve listening on port <port>" once ready (with --port 0
/// the kernel picks the port; harnesses parse this line).  SIGINT/SIGTERM or
/// the protocol's "shutdown" op stop it gracefully: new work is refused with
/// 503, admitted jobs drain, buffered responses flush.
#include "serve/server.hpp"

#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

namespace {

int usage(int code) {
  std::cerr
      << "usage: qadd_serve [options]\n"
         "  --port N             TCP port (default 7421; 0 = ephemeral, printed on stdout)\n"
         "  --bind A             bind address (default 127.0.0.1)\n"
         "  --workers N          job-execution threads (default 4)\n"
         "  --max-queue N        admission cap on pending+running jobs, 0=unlimited (default 64)\n"
         "  --max-sessions N     session limit (default 64)\n"
         "  --watermark-nodes N  persist idle sessions past this many live DD nodes, 0=off\n"
         "  --idle-timeout S     close idle connections after S seconds, 0=never (default 300)\n"
         "  --write-stall S      drop connections that stop reading after S seconds (default 30)\n"
         "  --max-frame-bytes N  413-reject frames beyond N bytes (default 8388608)\n"
         "  --cache N            identical-job result cache entries, 0=off (default 128)\n";
  return code;
}

} // namespace

int main(int argc, char** argv) {
  qadd::serve::ServerConfig config;
  config.port = 7421;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto number = [&](double fallback) {
      return i + 1 < argc ? std::atof(argv[++i]) : fallback;
    };
    if (arg == "--help" || arg == "-h") {
      return usage(0);
    }
    if (arg == "--port") {
      config.port = static_cast<std::uint16_t>(number(config.port));
    } else if (arg == "--bind") {
      config.bindAddress = i + 1 < argc ? argv[++i] : config.bindAddress;
    } else if (arg == "--workers") {
      config.workers = static_cast<std::size_t>(number(config.workers));
    } else if (arg == "--max-queue") {
      config.maxQueueDepth = static_cast<std::size_t>(number(config.maxQueueDepth));
    } else if (arg == "--max-sessions") {
      config.maxSessions = static_cast<std::size_t>(number(config.maxSessions));
    } else if (arg == "--watermark-nodes") {
      config.memoryWatermarkNodes = static_cast<std::size_t>(number(0));
    } else if (arg == "--idle-timeout") {
      config.idleTimeoutSeconds = number(config.idleTimeoutSeconds);
    } else if (arg == "--write-stall") {
      config.writeStallSeconds = number(config.writeStallSeconds);
    } else if (arg == "--max-frame-bytes") {
      config.maxFrameBytes = static_cast<std::size_t>(number(config.maxFrameBytes));
    } else if (arg == "--cache") {
      config.resultCacheEntries = static_cast<std::size_t>(number(config.resultCacheEntries));
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      return usage(2);
    }
  }

  // Route SIGINT/SIGTERM through a dedicated sigwait thread — a plain signal
  // handler could not safely touch the server's condition variable.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  qadd::serve::Server server(config);
  try {
    server.start();
  } catch (const std::exception& error) {
    std::cerr << "qadd_serve: " << error.what() << "\n";
    return 1;
  }
  std::thread signalThread([&signals, &server] {
    int signal = 0;
    sigwait(&signals, &signal);
    server.requestShutdown();
  });
  signalThread.detach(); // still in sigwait at exit unless a signal arrived

  std::cout << "qadd_serve listening on port " << server.port() << std::endl;
  server.waitShutdown();
  server.stop();
  const auto& counters = server.counters();
  std::cout << "qadd_serve: " << server.jobQueue().completed() << " jobs completed, "
            << server.jobQueue().rejected() << " rejected, "
            << counters.droppedConnections.load() << " connections dropped\n";
  return 0;
}
