/// \file server.hpp
/// The qadd_serve daemon core: a poll()-based TCP accept/dispatch loop
/// speaking the line-delimited JSON protocol of docs/SERVE.md.  Light ops
/// (hello/ping/open/close/metrics/shutdown) are answered inline on the loop
/// thread; package-touching ops (run/state/checkpoint/loadstate) go through
/// the admission-controlled JobQueue onto a thread pool, one session at a
/// time per session.  Identical algebraic jobs are coalesced against a
/// bounded result cache: the first arrival computes, concurrent duplicates
/// wait for its result, later duplicates are served from cache — exactness
/// is what makes the cached answer the correct answer.
#pragma once

#include "serve/job_queue.hpp"
#include "serve/session.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

namespace qadd::serve {

struct ServerConfig {
  std::string bindAddress = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = let the kernel pick (port() reports it)
  std::size_t workers = 4; ///< job-execution threads
  std::size_t maxQueueDepth = 64; ///< admission cap, pending+running (0 = unlimited)
  std::size_t maxSessions = 64;
  std::size_t memoryWatermarkNodes = 0;    ///< idle-session persistence watermark (0 = off)
  std::size_t maxFrameBytes = 8 << 20;     ///< request frames beyond this → 413 + close
  double idleTimeoutSeconds = 300.0;       ///< close quiet connections (0 = never)
  double writeStallSeconds = 30.0;         ///< drop connections that stop reading (0 = never)
  std::size_t resultCacheEntries = 128;    ///< identical-job result cache size (0 = off)
  std::uint32_t maxAmplitudeQubits = 20;   ///< refuse 2^n amplitude dumps beyond this width
};

/// Monotonic counters exposed via /metrics; all relaxed (telemetry only).
struct ServerCounters {
  std::atomic<std::uint64_t> connectionsAccepted{0};
  std::atomic<std::uint64_t> connectionsClosed{0};
  std::atomic<std::uint64_t> droppedConnections{0}; ///< write-stall force-closes
  std::atomic<std::uint64_t> framesIn{0};
  std::atomic<std::uint64_t> framesOut{0};
  std::atomic<std::uint64_t> malformedFrames{0};
  std::atomic<std::uint64_t> oversizedFrames{0};
  std::atomic<std::uint64_t> jobsFailed{0}; ///< jobs answered with a 5xx
  std::atomic<std::uint64_t> resultCacheHits{0};
  std::atomic<std::uint64_t> resultCacheCoalesced{0}; ///< followers that waited on a leader
};

class Server {
public:
  explicit Server(ServerConfig config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen and spawn the event-loop thread.
  /// \throws std::runtime_error when the socket cannot be set up.
  void start();

  /// The bound port (after start(); resolves config.port == 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Graceful shutdown: refuse new work (503), drain admitted jobs, flush
  /// response buffers, close.  Idempotent; also run by the destructor.
  void stop();

  /// Async shutdown trigger (the "shutdown" op): unblocks waitShutdown().
  void requestShutdown();
  /// Block until requestShutdown()/stop(); the daemon main sits here.
  void waitShutdown();

  [[nodiscard]] const ServerCounters& counters() const { return counters_; }
  [[nodiscard]] JobQueue& jobQueue() { return *queue_; }
  [[nodiscard]] const ServerConfig& config() const { return config_; }

  /// Prometheus exposition: the obs families over the merged per-session
  /// package stats plus the qadd_serve_* families.  Thread-safe and
  /// non-blocking (reads the sessions' post-job telemetry snapshots).
  [[nodiscard]] std::string renderMetrics() const;

private:
  struct Connection;
  struct CacheEntry;
  class ResultCache;

  void eventLoop();
  void wake();
  void acceptPending();
  void handleReadable(const std::shared_ptr<Connection>& connection);
  void processFrames(const std::shared_ptr<Connection>& connection);
  bool flushWrites(const std::shared_ptr<Connection>& connection);
  void closeConnection(int fd, bool dropped);
  void handleFrame(const std::shared_ptr<Connection>& connection, std::string_view line);
  void send(const std::shared_ptr<Connection>& connection, const json::Value& response);

  // Op handlers (inline ones run on the loop thread, job ones on the pool).
  [[nodiscard]] json::Value opHello(const json::Value& id) const;
  [[nodiscard]] json::Value opOpen(const json::Value& id, const json::Value& request);
  [[nodiscard]] json::Value opClose(const json::Value& id, const json::Value& request);
  [[nodiscard]] json::Value opMetrics(const json::Value& id) const;
  void runJob(const std::shared_ptr<Connection>& connection, const json::Value& request);
  [[nodiscard]] json::Value executeJob(const std::shared_ptr<Connection>& connection,
                                       const json::Value& id, const json::Value& request);
  [[nodiscard]] json::Value opRun(const std::shared_ptr<Connection>& connection,
                                  const json::Value& id, const json::Value& request);

  ServerConfig config_;
  ServerCounters counters_;
  std::unique_ptr<exec::ThreadPool> pool_;
  std::unique_ptr<SessionManager> sessions_;
  std::unique_ptr<JobQueue> queue_;
  std::unique_ptr<ResultCache> cache_;

  int listenFd_ = -1;
  int wakePipe_[2] = {-1, -1};
  std::uint16_t port_ = 0;
  std::thread loop_;
  std::unordered_map<int, std::shared_ptr<Connection>> connections_; ///< loop thread only

  std::atomic<bool> stopping_{false};  ///< graceful-stop entered: new work → 503
  std::atomic<bool> drained_{false};   ///< job queue fully drained (flush may finish)
  std::mutex lifecycleMutex_;
  std::condition_variable shutdownCv_;
  bool shutdownRequested_ = false;
  bool started_ = false;
  bool stopped_ = false;
};

} // namespace qadd::serve
