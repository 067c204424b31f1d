#include "serve/server.hpp"

#include "eval/report.hpp"
#include "exec/thread_pool.hpp"
#include "io/snapshot.hpp"
#include "obs/exposition.hpp"
#include "qc/qasm.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace qadd::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Lingering close: after a 413 the peer may still be mid-burst; keep
/// draining (and discarding) its bytes this long so close() sends FIN rather
/// than RST and the error response actually reaches the client.
constexpr double kLingerSeconds = 1.0;

void setNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

json::Value idOf(const json::Value& request) {
  const json::Value* id = request.find("id");
  return id != nullptr ? *id : json::Value();
}

/// Re-serialize a PackageStats through the canonical JSON emitter so the
/// protocol's "stats" object matches the offline reports field for field.
json::Value statsToJson(const obs::PackageStats& stats) {
  std::ostringstream os;
  eval::writeStatsJson(os, stats);
  return json::parse(os.str());
}

/// Integer-valued request field, validated BEFORE any cast: the double must
/// be finite, integral, and within [min, max] — a static_cast of a hostile
/// value (1e30, NaN, a negative into an unsigned) is undefined behavior.
double checkedInteger(const json::Value& request, std::string_view key, double fallback,
                      double min, double max) {
  const json::Value* value = request.find(key);
  if (value == nullptr) {
    return fallback;
  }
  const std::string name{key};
  if (!value->isNumber()) {
    throw ServeError(kBadRequest, "\"" + name + "\" must be a number");
  }
  const double number = value->asNumber();
  if (!std::isfinite(number) || number != std::floor(number) || number < min || number > max) {
    std::ostringstream os;
    os << '"' << name << "\" must be an integer in [" << min << ", " << max << ']';
    throw ServeError(kBadRequest, os.str());
  }
  return number;
}

} // namespace

// -- connection state -------------------------------------------------------------

struct Server::Connection {
  explicit Connection(int descriptor) : fd(descriptor) {}

  const int fd;
  std::string inBuffer; ///< loop thread only

  std::mutex outMutex;
  std::string outBuffer; ///< guarded by outMutex (job threads append)

  std::atomic<int> pendingJobs{0};
  // Loop-thread-only bookkeeping.
  Clock::time_point lastActivity{};
  Clock::time_point writeStallSince{}; ///< epoch value = not stalled
  Clock::time_point lingerSince{};     ///< when the lingering drain started
  bool closing = false; ///< stop reading; close once flushed and jobs drained
  bool discarding = false; ///< read-and-discard while closing (lingering close)

  [[nodiscard]] bool hasOutput() {
    const std::lock_guard<std::mutex> lock(outMutex);
    return !outBuffer.empty();
  }
};

// -- identical-job result cache ---------------------------------------------------

struct Server::CacheEntry {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  bool failed = false;
  int errorCode = 0;
  std::string errorMessage;
  JobResult result;
};

/// Bounded map keyed on the job identity (system config + circuit CRC +
/// requested outputs).  The first requester of a key is the *leader* and
/// computes; concurrent requesters wait on the entry; later requesters copy
/// the published result.  FIFO eviction; in-flight entries are not evicted.
class Server::ResultCache {
public:
  explicit ResultCache(std::size_t maxEntries) : maxEntries_(maxEntries) {}

  std::pair<std::shared_ptr<CacheEntry>, bool> lookupOrInsert(const std::string& key) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = entries_.find(key); it != entries_.end()) {
      return {it->second, false};
    }
    auto entry = std::make_shared<CacheEntry>();
    entries_.emplace(key, entry);
    order_.push_back(key);
    for (std::size_t attempts = order_.size(); entries_.size() > maxEntries_ && attempts > 0;
         --attempts) {
      const std::string victim = std::move(order_.front());
      order_.pop_front();
      const auto vit = entries_.find(victim);
      if (vit == entries_.end()) {
        continue;
      }
      bool evictable = false;
      {
        const std::lock_guard<std::mutex> entryLock(vit->second->mutex);
        evictable = vit->second->done;
      }
      if (evictable) {
        entries_.erase(vit);
      } else {
        order_.push_back(victim); // a leader is still computing it
      }
    }
    return {entry, true};
  }

  /// Drop a failed leader's entry so a later identical job can recompute.
  void forget(const std::string& key) {
    const std::lock_guard<std::mutex> lock(mutex_);
    entries_.erase(key); // the stale order_ slot is skipped at eviction time
  }

private:
  std::size_t maxEntries_;
  std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<CacheEntry>> entries_;
  std::deque<std::string> order_;
};

// -- lifecycle --------------------------------------------------------------------

Server::Server(ServerConfig config) : config_(std::move(config)) {
  pool_ = std::make_unique<exec::ThreadPool>(config_.workers);
  SessionManager::Limits limits;
  limits.maxSessions = config_.maxSessions;
  limits.memoryWatermarkNodes = config_.memoryWatermarkNodes;
  sessions_ = std::make_unique<SessionManager>(limits);
  queue_ = std::make_unique<JobQueue>(*pool_, config_.maxQueueDepth);
  if (config_.resultCacheEntries != 0) {
    cache_ = std::make_unique<ResultCache>(config_.resultCacheEntries);
  }
}

Server::~Server() { stop(); }

void Server::start() {
  {
    const std::lock_guard<std::mutex> lock(lifecycleMutex_);
    if (started_) {
      throw std::runtime_error("server already started");
    }
    started_ = true;
  }
  listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listenFd_ < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bindAddress.c_str(), &address.sin_addr) != 1) {
    throw std::runtime_error("bad bind address: " + config_.bindAddress);
  }
  if (::bind(listenFd_, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0) {
    throw std::runtime_error(std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(listenFd_, 128) != 0) {
    throw std::runtime_error(std::string("listen: ") + std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t length = sizeof(bound);
  ::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&bound), &length);
  port_ = ntohs(bound.sin_port);
  setNonBlocking(listenFd_);
  if (::pipe(wakePipe_) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  setNonBlocking(wakePipe_[0]);
  setNonBlocking(wakePipe_[1]);
  loop_ = std::thread([this] { eventLoop(); });
}

void Server::stop() {
  {
    const std::lock_guard<std::mutex> lock(lifecycleMutex_);
    if (!started_ || stopped_) {
      return;
    }
    stopped_ = true;
    shutdownRequested_ = true;
  }
  shutdownCv_.notify_all();
  stopping_.store(true, std::memory_order_release);
  queue_->close();
  wake();
  queue_->drain();
  drained_.store(true, std::memory_order_release);
  wake();
  if (loop_.joinable()) {
    loop_.join();
  }
  for (const int fd : {wakePipe_[0], wakePipe_[1]}) {
    if (fd >= 0) {
      ::close(fd);
    }
  }
  wakePipe_[0] = wakePipe_[1] = -1;
}

void Server::requestShutdown() {
  {
    const std::lock_guard<std::mutex> lock(lifecycleMutex_);
    shutdownRequested_ = true;
  }
  shutdownCv_.notify_all();
}

void Server::waitShutdown() {
  std::unique_lock<std::mutex> lock(lifecycleMutex_);
  shutdownCv_.wait(lock, [this] { return shutdownRequested_; });
}

void Server::wake() {
  if (wakePipe_[1] >= 0) {
    const char byte = 'w';
    [[maybe_unused]] const auto n = ::write(wakePipe_[1], &byte, 1); // full pipe = already awake
  }
}

// -- event loop -------------------------------------------------------------------

void Server::eventLoop() {
  Clock::time_point flushDeadline{};
  std::vector<pollfd> fds;
  std::vector<std::shared_ptr<Connection>> polled;
  while (true) {
    const bool stopping = stopping_.load(std::memory_order_acquire);
    if (stopping && listenFd_ >= 0) {
      ::close(listenFd_);
      listenFd_ = -1;
    }
    fds.clear();
    polled.clear();
    fds.push_back({wakePipe_[0], POLLIN, 0});
    if (listenFd_ >= 0) {
      fds.push_back({listenFd_, POLLIN, 0});
    }
    for (const auto& [fd, connection] : connections_) {
      short events = 0;
      if (!connection->closing || connection->discarding) {
        events |= POLLIN;
      }
      if (connection->hasOutput()) {
        events |= POLLOUT;
      }
      fds.push_back({fd, events, 0});
      polled.push_back(connection);
    }
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 250);

    if ((fds[0].revents & POLLIN) != 0) {
      char drain[256];
      while (::read(wakePipe_[0], drain, sizeof(drain)) > 0) {
      }
    }
    std::size_t index = 1;
    if (listenFd_ >= 0) {
      if ((fds[index].revents & POLLIN) != 0) {
        acceptPending();
      }
      ++index;
    }
    for (std::size_t i = 0; i < polled.size(); ++i, ++index) {
      const auto& connection = polled[i];
      const short revents = fds[index].revents;
      if ((revents & (POLLOUT)) != 0) {
        if (!flushWrites(connection)) {
          closeConnection(connection->fd, /*dropped=*/true);
          continue;
        }
      }
      if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
          (!connection->closing || connection->discarding)) {
        handleReadable(connection);
      }
      // Opportunistic flush: responses produced inline by handleFrame go out
      // without waiting for the next POLLOUT round trip.
      if (connections_.contains(connection->fd) && connection->hasOutput()) {
        if (!flushWrites(connection)) {
          closeConnection(connection->fd, /*dropped=*/true);
        }
      }
    }

    // Timeout / teardown sweep.
    const Clock::time_point now = Clock::now();
    std::vector<std::pair<int, bool>> closures; // (fd, dropped)
    for (const auto& [fd, connection] : connections_) {
      bool outEmpty = false;
      Clock::time_point stallSince{};
      {
        const std::lock_guard<std::mutex> lock(connection->outMutex);
        outEmpty = connection->outBuffer.empty();
        stallSince = connection->writeStallSince;
      }
      if (config_.writeStallSeconds > 0 && !outEmpty && stallSince != Clock::time_point{} &&
          std::chrono::duration<double>(now - stallSince).count() > config_.writeStallSeconds) {
        closures.emplace_back(fd, true);
        continue;
      }
      const bool quiescent = outEmpty && connection->pendingJobs.load() == 0;
      const bool lingering =
          connection->discarding &&
          std::chrono::duration<double>(now - connection->lingerSince).count() < kLingerSeconds;
      if (connection->closing && quiescent && !lingering) {
        closures.emplace_back(fd, false);
        continue;
      }
      if (!connection->closing && config_.idleTimeoutSeconds > 0 && quiescent &&
          std::chrono::duration<double>(now - connection->lastActivity).count() >
              config_.idleTimeoutSeconds) {
        closures.emplace_back(fd, false);
      }
    }
    for (const auto& [fd, dropped] : closures) {
      closeConnection(fd, dropped);
    }

    if (stopping && drained_.load(std::memory_order_acquire)) {
      if (flushDeadline == Clock::time_point{}) {
        flushDeadline = now + std::chrono::seconds(5);
      }
      bool allFlushed = true;
      for (const auto& [fd, connection] : connections_) {
        if (connection->hasOutput()) {
          if (!flushWrites(connection)) {
            closeConnection(fd, /*dropped=*/true);
            break; // iterator invalidated; re-check next iteration
          }
          allFlushed = false;
        }
      }
      if (allFlushed || now > flushDeadline) {
        while (!connections_.empty()) {
          closeConnection(connections_.begin()->first, false);
        }
        return;
      }
    }
  }
}

void Server::acceptPending() {
  while (true) {
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) {
      return; // EAGAIN (or a transient error; the next POLLIN retries)
    }
    setNonBlocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto connection = std::make_shared<Connection>(fd);
    connection->lastActivity = Clock::now();
    connections_.emplace(fd, std::move(connection));
    counters_.connectionsAccepted.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::handleReadable(const std::shared_ptr<Connection>& connection) {
  char buffer[65536];
  while (!connection->closing || connection->discarding) {
    const ssize_t n = ::recv(connection->fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      connection->lastActivity = Clock::now();
      if (connection->discarding) {
        // Lingering close: the peer is mid-burst past a rejection; swallow
        // the rest so close() ends in FIN (RST would discard the response).
        continue;
      }
      connection->inBuffer.append(buffer, static_cast<std::size_t>(n));
      // Process after every chunk, so the frame-size limit is enforced no
      // matter how an over-limit frame is spread across a readable burst,
      // and inBuffer never grows past the cap plus one recv chunk.
      processFrames(connection);
      if (static_cast<std::size_t>(n) < sizeof(buffer)) {
        break;
      }
      continue;
    }
    if (n == 0) {
      // Peer half-closed: stop reading, but finish in-flight jobs and flush
      // their responses before tearing the connection down.
      connection->closing = true;
      connection->discarding = false;
      break;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      connection->closing = true;
      connection->discarding = false;
    }
    break;
  }
}

void Server::processFrames(const std::shared_ptr<Connection>& connection) {
  const auto rejectOversized = [&] {
    counters_.oversizedFrames.fetch_add(1, std::memory_order_relaxed);
    send(connection, makeError(json::Value(), kPayloadTooLarge,
                               "frame exceeds " + std::to_string(config_.maxFrameBytes) +
                                   " bytes"));
    connection->closing = true;
    connection->discarding = true;
    connection->lingerSince = Clock::now();
    connection->inBuffer.clear();
    connection->inBuffer.shrink_to_fit();
  };
  std::size_t start = 0;
  while (true) {
    const std::size_t newline = connection->inBuffer.find('\n', start);
    if (newline == std::string::npos) {
      break;
    }
    std::string_view line(connection->inBuffer.data() + start, newline - start);
    if (!line.empty() && line.back() == '\r') {
      line.remove_suffix(1);
    }
    if (line.size() > config_.maxFrameBytes) {
      rejectOversized(); // before parsing, let alone executing
      return;
    }
    if (!line.empty()) {
      handleFrame(connection, line);
    }
    start = newline + 1;
  }
  connection->inBuffer.erase(0, start);
  if (connection->inBuffer.size() > config_.maxFrameBytes) {
    rejectOversized(); // a partial frame already over the limit cannot complete
  }
}

bool Server::flushWrites(const std::shared_ptr<Connection>& connection) {
  const std::lock_guard<std::mutex> lock(connection->outMutex);
  while (!connection->outBuffer.empty()) {
    const ssize_t n = ::send(connection->fd, connection->outBuffer.data(),
                             connection->outBuffer.size(), MSG_NOSIGNAL);
    if (n > 0) {
      connection->outBuffer.erase(0, static_cast<std::size_t>(n));
      connection->writeStallSince = {};
      connection->lastActivity = Clock::now();
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (connection->writeStallSince == Clock::time_point{}) {
        connection->writeStallSince = Clock::now();
      }
      return true; // kernel buffer full; POLLOUT resumes, stall clock runs
    }
    return false; // hard write error: drop the connection
  }
  connection->writeStallSince = {};
  return true;
}

void Server::closeConnection(int fd, bool dropped) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) {
    return;
  }
  ::close(fd);
  connections_.erase(it);
  counters_.connectionsClosed.fetch_add(1, std::memory_order_relaxed);
  if (dropped) {
    counters_.droppedConnections.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::send(const std::shared_ptr<Connection>& connection, const json::Value& response) {
  if (connection == nullptr) {
    return;
  }
  const std::string line = json::dump(response);
  {
    const std::lock_guard<std::mutex> lock(connection->outMutex);
    connection->outBuffer += line;
    connection->outBuffer += '\n';
  }
  counters_.framesOut.fetch_add(1, std::memory_order_relaxed);
  wake();
}

// -- dispatch ---------------------------------------------------------------------

void Server::handleFrame(const std::shared_ptr<Connection>& connection, std::string_view line) {
  counters_.framesIn.fetch_add(1, std::memory_order_relaxed);
  json::Value request;
  try {
    request = json::parse(line);
    if (!request.isObject()) {
      throw json::Error(0, "frame is not a JSON object");
    }
  } catch (const json::Error& error) {
    counters_.malformedFrames.fetch_add(1, std::memory_order_relaxed);
    send(connection, makeError(json::Value(), kBadRequest,
                               std::string("malformed frame: ") + error.what()));
    return;
  }
  const json::Value id = idOf(request);
  const std::string op = request.getString("op");
  if (stopping_.load(std::memory_order_acquire)) {
    send(connection, makeError(id, kUnavailable, "server is shutting down"));
    return;
  }
  try {
    if (op == "hello") {
      send(connection, opHello(id));
    } else if (op == "ping") {
      send(connection, makeOk(id));
    } else if (op == "open") {
      send(connection, opOpen(id, request));
    } else if (op == "close") {
      send(connection, opClose(id, request));
    } else if (op == "metrics") {
      send(connection, opMetrics(id));
    } else if (op == "shutdown") {
      send(connection, makeOk(id));
      requestShutdown();
    } else if (op == "run" || op == "state" || op == "checkpoint" || op == "loadstate" ||
               op == "stats") {
      runJob(connection, request);
    } else {
      send(connection, makeError(id, kBadRequest, "unknown op '" + op + "'"));
    }
  } catch (const ServeError& error) {
    send(connection, makeError(id, error.code(), error.what()));
  } catch (const std::exception& error) {
    send(connection, makeError(id, kInternalError, error.what()));
  }
}

json::Value Server::opHello(const json::Value& id) const {
  json::Value response = makeOk(id);
  response.set("server", "qadd_serve");
  response.set("protocol", kProtocolVersion);
  json::Value systems = json::Value::array();
  systems.push("alg");
  systems.push("num");
  response.set("systems", std::move(systems));
  response.set("maxFrameBytes", config_.maxFrameBytes);
  response.set("maxQueueDepth", config_.maxQueueDepth);
  response.set("maxSessions", config_.maxSessions);
  return response;
}

json::Value Server::opOpen(const json::Value& id, const json::Value& request) {
  SessionConfig sessionConfig;
  sessionConfig.name = request.getString("session");
  sessionConfig.system = request.getString("system", "alg");
  sessionConfig.epsilon = request.getNumber("eps", 0.0);
  sessionConfig.qubits =
      static_cast<qc::Qubit>(checkedInteger(request, "qubits", 0.0, 0.0, 64.0));
  sessionConfig.gcWatermark = static_cast<std::size_t>(
      checkedInteger(request, "gc_watermark", 200'000.0, 0.0, 9.0e15));
  sessionConfig.maxMagnitudeNormalization = request.getBool("max_magnitude");
  // Protocol v2: fidelity-bounded approximation knobs.  approx_fidelity F in
  // (0, 1] becomes a pruning budget of 1-F per docs/APPROXIMATION.md; the
  // policy defaults to "pergate" when only the fidelity is given.
  // makeSessionBackend rejects the combination with an algebraic session.
  const double approxFidelity = request.getNumber("approx_fidelity", 1.0);
  if (!(approxFidelity > 0.0) || approxFidelity > 1.0) {
    throw ServeError(kBadRequest, "approx_fidelity must be in (0, 1]");
  }
  const std::string policyText = request.getString("approx_policy", "");
  if (!policyText.empty()) {
    const auto policy = dd::parseApproxPolicy(policyText);
    if (!policy.has_value()) {
      throw ServeError(kBadRequest, "unknown approx_policy '" + policyText +
                                        "' (expected \"pergate\", \"oneshot\" or \"none\")");
    }
    sessionConfig.approx.policy = *policy;
  }
  if (approxFidelity < 1.0) {
    sessionConfig.approx.budget = 1.0 - approxFidelity;
    if (sessionConfig.approx.policy == dd::ApproxPolicy::None && policyText.empty()) {
      sessionConfig.approx.policy = dd::ApproxPolicy::PerGate;
    }
  } else if (sessionConfig.approx.policy != dd::ApproxPolicy::None) {
    throw ServeError(kBadRequest, "approx_policy requires approx_fidelity < 1");
  }
  const auto session = sessions_->open(sessionConfig);
  json::Value response = makeOk(id);
  response.set("session", session->config().name);
  response.set("system", session->config().system);
  response.set("eps", session->config().epsilon);
  response.set("qubits", static_cast<std::size_t>(session->config().qubits));
  if (session->config().approx.active()) {
    response.set("approx_fidelity", 1.0 - session->config().approx.budget);
    response.set("approx_policy", dd::approxPolicyName(session->config().approx.policy));
  }
  return response;
}

json::Value Server::opClose(const json::Value& id, const json::Value& request) {
  sessions_->close(request.getString("session"));
  return makeOk(id);
}

json::Value Server::opMetrics(const json::Value& id) const {
  json::Value response = makeOk(id);
  response.set("metrics", renderMetrics());
  return response;
}

void Server::runJob(const std::shared_ptr<Connection>& connection, const json::Value& request) {
  const json::Value id = idOf(request);
  const std::string sessionName = request.getString("session");
  // Resolve the session inline: a 404 should not consume queue capacity.
  [[maybe_unused]] const auto session = sessions_->find(sessionName); // throws ServeError(404)
  const int priority =
      static_cast<int>(checkedInteger(request, "priority", 0.0, -1.0e9, 1.0e9));
  connection->pendingJobs.fetch_add(1, std::memory_order_relaxed);
  std::weak_ptr<Connection> weak = connection;
  const bool admitted = queue_->tryEnqueue(priority, [this, weak, request, id] {
    const std::shared_ptr<Connection> target = weak.lock();
    const json::Value response = executeJob(target, id, request);
    if (target != nullptr) {
      send(target, response);
      target->pendingJobs.fetch_sub(1, std::memory_order_relaxed);
      wake();
    }
  });
  if (!admitted) {
    connection->pendingJobs.fetch_sub(1, std::memory_order_relaxed);
    throw ServeError(kTooManyRequests,
                     "job queue is full (depth " + std::to_string(queue_->maxDepth()) + ")");
  }
}

json::Value Server::executeJob(const std::shared_ptr<Connection>& connection,
                               const json::Value& id, const json::Value& request) {
  const std::string op = request.getString("op");
  try {
    if (op == "run") {
      return opRun(connection, id, request);
    }
    const auto session = sessions_->find(request.getString("session"));
    json::Value response = makeOk(id);
    if (op == "state") {
      sessions_->withBackend(*session, [&](SessionBackend& backend) {
        response.set("snapshot_b64", encodeBase64(backend.stateSnapshot()));
        response.set("nodes", backend.stateNodes());
      });
    } else if (op == "checkpoint") {
      sessions_->withBackend(*session, [&](SessionBackend& backend) {
        response.set("checkpoint_b64", encodeBase64(backend.checkpoint()));
      });
    } else if (op == "loadstate") {
      const json::Value* blob = request.find("qdds_b64");
      if (blob == nullptr || !blob->isString()) {
        throw ServeError(kBadRequest, "loadstate requires a \"qdds_b64\" string");
      }
      const std::vector<std::uint8_t> qdds = decodeBase64(blob->asString());
      sessions_->withBackend(*session, [&](SessionBackend& backend) {
        backend.loadState(qdds);
        response.set("nodes", backend.stateNodes());
      });
    } else { // "stats"
      sessions_->withBackend(*session, [&](SessionBackend& backend) {
        response.set("stats", statsToJson(backend.stats()));
      });
    }
    return response;
  } catch (const qc::ParseError& error) {
    json::Value detail = json::Value::object();
    detail.set("line", error.line());
    detail.set("column", error.column());
    detail.set("token", error.token());
    return makeError(id, kBadRequest, error.what(), std::move(detail));
  } catch (const ServeError& error) {
    if (error.code() >= 500) {
      counters_.jobsFailed.fetch_add(1, std::memory_order_relaxed);
    }
    return makeError(id, error.code(), error.what());
  } catch (const io::SnapshotError& error) {
    return makeError(id, kBadRequest, error.what());
  } catch (const std::invalid_argument& error) {
    return makeError(id, kBadRequest, error.what());
  } catch (const std::exception& error) {
    counters_.jobsFailed.fetch_add(1, std::memory_order_relaxed);
    return makeError(id, kInternalError, error.what());
  }
}

json::Value Server::opRun(const std::shared_ptr<Connection>& connection, const json::Value& id,
                          const json::Value& request) {
  const auto session = sessions_->find(request.getString("session"));
  const SessionConfig& sessionConfig = session->config();

  JobRequest job;
  if (const json::Value* qasm = request.find("qasm"); qasm != nullptr && qasm->isString()) {
    job.circuit = qc::fromQasm(qasm->asString()); // ParseError carries line/column/token
  } else if (const json::Value* text = request.find("circuit");
             text != nullptr && text->isString()) {
    job.circuit = qc::Circuit::fromText(text->asString());
  } else {
    throw ServeError(kBadRequest, "run requires a \"qasm\" or \"circuit\" string");
  }
  job.wantAmplitudes = request.getBool("amplitudes");
  job.wantSnapshot = request.getBool("snapshot");
  job.wantCheckpoint = request.getBool("checkpoint");
  job.traceEvery =
      static_cast<std::size_t>(checkedInteger(request, "trace_every", 0.0, 0.0, 9.0e15));
  if (const json::Value* resume = request.find("resume"); resume != nullptr) {
    if (!resume->isString()) {
      throw ServeError(kBadRequest, "resume must be a base64 string");
    }
    job.resumeCheckpoint = decodeBase64(resume->asString());
  }
  if (job.wantAmplitudes && sessionConfig.qubits > config_.maxAmplitudeQubits) {
    throw ServeError(kBadRequest,
                     "amplitude dumps are limited to " +
                         std::to_string(config_.maxAmplitudeQubits) + " qubits");
  }
  const bool wantStats = request.getBool("stats");

  // Identical algebraic jobs coalesce: exactness makes the cached answer THE
  // answer, independent of which session computed it or what ran before
  // (order-independence, docs/SERVE.md).  The key is the full canonical
  // circuit text — already computed for free via toText(), and immune to the
  // collisions a short hash would invite on a service whose contract is
  // exactness.  Leaders always capture a final-state snapshot so cache hits
  // can restore it into the serving session (run-then-state behaves the same
  // cached or not); the client-visible snapshot stays opt-in.
  const bool cacheable = cache_ != nullptr && sessionConfig.system == "alg" &&
                         job.resumeCheckpoint.empty() && !job.wantCheckpoint &&
                         job.traceEvery == 0 && !wantStats;
  const bool wantSnapshotResponse = job.wantSnapshot;
  std::string cacheKey;
  std::shared_ptr<CacheEntry> entry;
  bool leader = true;
  JobResult result;
  obs::PackageStats statsSnapshot;
  bool served = false;
  if (cacheable) {
    job.wantSnapshot = true;
    cacheKey = sessionConfig.system + '|' + std::to_string(sessionConfig.qubits) + '|' +
               (job.wantAmplitudes ? 'A' : '-') + '|' + job.circuit.toText();
    std::tie(entry, leader) = cache_->lookupOrInsert(cacheKey);
    if (!leader) {
      std::unique_lock<std::mutex> lock(entry->mutex);
      if (entry->done) {
        counters_.resultCacheHits.fetch_add(1, std::memory_order_relaxed);
      } else {
        counters_.resultCacheCoalesced.fetch_add(1, std::memory_order_relaxed);
        entry->cv.wait(lock, [&] { return entry->done; });
      }
      if (entry->failed) {
        throw ServeError(entry->errorCode != 0 ? entry->errorCode : kInternalError,
                         entry->errorMessage);
      }
      result = entry->result;
      result.fromCache = true;
      served = true;
    }
    if (served) {
      // Adopt the cached final state as the session state, exactly as an
      // uncached run would have (the QDDS snapshot is exact, so this is a
      // byte-identical restore; the session's circuit position resets).
      sessions_->withBackend(*session, [&](SessionBackend& backend) {
        backend.loadState(result.snapshot);
      });
    }
  }

  if (!served) {
    const auto publishFailure = [&](int code, const std::string& message) {
      if (!cacheable || !leader) {
        return;
      }
      {
        const std::lock_guard<std::mutex> lock(entry->mutex);
        entry->done = true;
        entry->failed = true;
        entry->errorCode = code;
        entry->errorMessage = message;
      }
      entry->cv.notify_all();
      cache_->forget(cacheKey); // a later identical job may recompute
    };
    try {
      sessions_->withBackend(*session, [&](SessionBackend& backend) {
        GateCallback onGate;
        if (job.traceEvery != 0 && connection != nullptr) {
          onGate = [&](std::size_t gate, std::size_t nodes) {
            json::Value event = json::Value::object();
            event.set("id", id);
            event.set("event", "gate");
            event.set("gate", gate);
            event.set("nodes", nodes);
            send(connection, event);
          };
        }
        result = backend.run(job, onGate);
        if (wantStats) {
          statsSnapshot = backend.stats();
        }
      });
    } catch (const ServeError& error) {
      publishFailure(error.code(), error.what());
      throw;
    } catch (const std::exception& error) {
      publishFailure(kInternalError, error.what());
      throw;
    }
    if (cacheable && leader) {
      {
        const std::lock_guard<std::mutex> lock(entry->mutex);
        entry->done = true;
        entry->result = result;
      }
      entry->cv.notify_all();
    }
  }

  json::Value response = makeOk(id);
  response.set("gates", result.gatesApplied);
  response.set("nodes", result.finalNodes);
  response.set("seconds", result.seconds);
  if (sessionConfig.approx.active()) {
    response.set("fidelity", result.fidelity);
    response.set("pruned_nodes", result.prunedNodes);
  }
  if (result.fromCache) {
    response.set("cached", true);
  }
  if (job.wantAmplitudes) {
    json::Value amplitudes = json::Value::array();
    for (const std::complex<double>& amplitude : result.amplitudes) {
      json::Value pair = json::Value::array();
      pair.push(amplitude.real());
      pair.push(amplitude.imag());
      amplitudes.push(std::move(pair));
    }
    response.set("amplitudes", std::move(amplitudes));
  }
  if (wantSnapshotResponse) {
    response.set("snapshot_b64", encodeBase64(result.snapshot));
  }
  if (job.wantCheckpoint) {
    response.set("checkpoint_b64", encodeBase64(result.checkpoint));
  }
  if (wantStats) {
    response.set("stats", statsToJson(statsSnapshot));
  }
  return response;
}

// -- metrics ----------------------------------------------------------------------

std::string Server::renderMetrics() const {
  obs::PackageStats total;
  const auto sessions = sessions_->sessions();
  for (const auto& session : sessions) {
    total += session->lastStats();
  }
  std::ostringstream os;
  obs::renderPrometheus(os, total);

  const auto gauge = [&os](const char* name, const char* help, std::uint64_t value) {
    os << "# HELP " << name << ' ' << help << '\n';
    os << "# TYPE " << name << " gauge\n";
    os << name << ' ' << value << '\n';
  };
  const auto counter = [&os](const char* name, const char* help, std::uint64_t value) {
    os << "# HELP " << name << ' ' << help << '\n';
    os << "# TYPE " << name << " counter\n";
    os << name << ' ' << value << '\n';
  };
  gauge("qadd_serve_sessions", "Open sessions.", sessions.size());
  gauge("qadd_serve_queue_depth", "Jobs admitted and not yet completed.", queue_->depth());
  gauge("qadd_serve_connections", "Open client connections.",
        counters_.connectionsAccepted.load() - counters_.connectionsClosed.load());
  counter("qadd_serve_jobs_accepted_total", "Jobs admitted by the queue.", queue_->accepted());
  counter("qadd_serve_jobs_rejected_total", "Jobs refused by admission control (429).",
          queue_->rejected());
  counter("qadd_serve_jobs_completed_total", "Jobs completed.", queue_->completed());
  counter("qadd_serve_jobs_failed_total", "Jobs answered with a 5xx.",
          counters_.jobsFailed.load());
  counter("qadd_serve_frames_in_total", "Request frames received.", counters_.framesIn.load());
  counter("qadd_serve_frames_out_total", "Response frames sent.", counters_.framesOut.load());
  counter("qadd_serve_frames_malformed_total", "Frames that failed to parse.",
          counters_.malformedFrames.load());
  counter("qadd_serve_frames_oversized_total", "Frames beyond the size limit (413).",
          counters_.oversizedFrames.load());
  counter("qadd_serve_connections_dropped_total", "Connections force-closed on write stall.",
          counters_.droppedConnections.load());
  counter("qadd_serve_result_cache_hits_total", "Jobs served from the result cache.",
          counters_.resultCacheHits.load());
  counter("qadd_serve_result_cache_coalesced_total",
          "Jobs that waited on an identical in-flight job.",
          counters_.resultCacheCoalesced.load());
  const auto& sessionCounters = sessions_->counters();
  counter("qadd_serve_sessions_persisted_total",
          "Idle sessions persisted to QCKP under the memory watermark.",
          sessionCounters.persisted.load());
  counter("qadd_serve_sessions_restored_total", "Persisted sessions restored on demand.",
          sessionCounters.restored.load());

  os << "# HELP qadd_serve_session_nodes Live DD nodes per resident session.\n";
  os << "# TYPE qadd_serve_session_nodes gauge\n";
  for (const auto& session : sessions) {
    os << "qadd_serve_session_nodes{session=\""
       << obs::promEscapeLabel(session->config().name) << "\"} " << session->lastLiveNodes()
       << '\n';
  }
  return os.str();
}

} // namespace qadd::serve
