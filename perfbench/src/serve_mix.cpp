/// \file serve_mix.cpp
/// Workload `serve-mix`: an in-process serve::Server (default config apart
/// from port and worker count) driven by one generator thread over a few
/// connections: closed-loop bursts for the timings, then an open-loop rate
/// ladder for slo_rps.  Simulation is about a millisecond per request,
/// so the time goes to the serving stages: JSON parse, admission queue,
/// session lookup, the result cache and QDDS/base64 encoding.  Sessions
/// keep warm tables across jobs, unlike the fresh packages of the other
/// workloads.
///
/// The server's loop thread, its job workers and the generator (this
/// thread) together use at most hardware_concurrency() threads.
#include "replay.hpp"
#include "workloads.hpp"

#include "algorithms/grover.hpp"
#include "eval/accuracy.hpp"
#include "io/snapshot.hpp"
#include "qc/qasm.hpp"
#include "qc/simulator.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perf {
namespace {

using namespace qadd;
using Alg = dd::AlgebraicSystem;
using Num = dd::NumericSystem;

/// Tolerance of the numeric sessions.
constexpr double kEpsilon = 1e-10;
/// Grover widths and marked elements (bit n-1 set: no oracle X gates).
constexpr std::array<std::pair<qc::Qubit, std::uint64_t>, 3> kGrover = {
    {{8, 0xB5}, {9, 0x1A9}, {10, 0x2D3}}};
/// The repository's sample circuits (copies under perfbench/circuits).
constexpr std::array<const char*, 5> kQasm = {"bell", "clifford_t_mix", "ghz5", "qft4",
                                              "toffoli_chain"};
constexpr std::size_t kConnections = 4;
/// The timed phase is a closed loop of bursts, which gives p50, tail,
/// ok_frac and ops_per_s: each burst sends kBurstRequests requests of the
/// block with at most kInFlight outstanding (the server admits 64) and
/// takes from its first send to its last answer, about 0.2 s on the tuning
/// host.  A scheduler stall of a few ms, which on a shared host hits
/// several percent of millisecond requests, moves a burst by about 2%.
constexpr std::size_t kBurstRequests = 500;
constexpr std::size_t kInFlight = 32;
constexpr std::size_t kBurstsPerPass = 4;
/// Offered rate of the open-loop nominal phase of the traced run and the
/// first rung of the slo_rps ladder: about a tenth of the server's capacity
/// on the tuning host (about 2500/s).
constexpr double kNominalRate = 200.0;
/// The traced run's nominal phases run as this many equal windows with the
/// calibration kernel between them (the server is idle there).
constexpr std::size_t kWindows = 10;
/// Offered rates tried in turn for slo_rps.  The rungs are far apart on
/// purpose: 1000/s passes and 4000/s misses at any speed the tuning host
/// showed, so the passing rung does not flip with the host's speed; finer
/// rungs near capacity did.
constexpr std::array<double, 3> kLadder = {kNominalRate, 1000.0, 4000.0};
/// Set-up here takes about 0.3 s, so it repeats more often than elsewhere.
constexpr int kServeSetupRepeats = 3 * kSetupRepeats;
/// A request meets the SLO when verified and answered within this many
/// milliseconds of its due time; a rate meets it when 99% of its requests
/// do and nothing is left outstanding.
constexpr double kLatencyLimitMs = 50.0;
constexpr double kSloShare = 0.99;
/// How long a phase waits for answers after its last due time.
constexpr double kDrainSeconds = 1.0;

struct Shape {
  std::string name;
  bool exact = false; ///< runs on an `alg` session
  bool qasm = false;  ///< sent as `qasm` source instead of circuit text
  std::string text;
  qc::Circuit circuit{1};
  std::string session;
  std::size_t nodes = 0;
  std::vector<std::uint8_t> snapshot;           ///< offline fresh-package result
  std::vector<std::complex<double>> reference;  ///< exact result, or dense if not Clifford+T
  bool hasExactReference = false;
  double accuracy = 0.0; ///< numeric shapes: accuracyError(result, exact)
};

enum class Kind { Run, State, Metrics };

struct Template {
  Kind kind = Kind::Run;
  std::size_t shape = 0;
  bool snapshot = false;
  std::string body; ///< the request frame after `{"id":N,`
};

/// One raw TCP connection of the open-loop generator.
class Wire {
public:
  explicit Wire(std::uint16_t port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) {
      throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0) {
      const std::string message = std::strerror(errno);
      ::close(fd_);
      throw std::runtime_error("connect: " + message);
    }
  }
  ~Wire() { ::close(fd_); }
  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;

  [[nodiscard]] int fd() const { return fd_; }

  void send(const std::string& frame) {
    std::size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        throw std::runtime_error(std::string("send: ") + std::strerror(errno));
      }
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Read what is available without blocking; append complete lines.
  void receive(std::vector<std::string>& lines) {
    char chunk[65536];
    while (true) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n > 0) {
        buffer_.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) {
        throw std::runtime_error("connection closed by server");
      }
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
    }
    std::size_t from = 0;
    for (std::size_t newline = buffer_.find('\n'); newline != std::string::npos;
         newline = buffer_.find('\n', from)) {
      lines.push_back(buffer_.substr(from, newline - from));
      from = newline + 1;
    }
    buffer_.erase(0, from);
  }

private:
  int fd_;
  std::string buffer_;
};

/// One slot of the request block: a fixed template, or a rotation over
/// templates that advances from block to block.
struct Slot {
  std::size_t templ = 0;
  std::vector<std::size_t> rotation; ///< when set, replaces `templ`
  std::size_t offset = 0;            ///< start of the rotation
};

struct Setup {
  std::vector<Shape> shapes;
  std::vector<Template> templates;
  std::vector<Slot> block;
  double generateMs = 0.0;
  std::unique_ptr<serve::Server> server;
  serve::Client control;
  std::vector<std::unique_ptr<Wire>> wires; ///< declared after the server: closed first
};

/// One request of a phase and what came back.
struct Record {
  std::size_t templ = 0;
  double due = 0.0;
  double sent = -1.0;
  double received = -1.0;
  bool okFrame = false;
  bool cached = false;
  int code = 0;
  double serverSeconds = 0.0;
  std::size_t gates = 0;
  std::size_t nodes = 0;
  std::size_t bytes = 0;
  std::string payload; ///< snapshot_b64 or metrics text
  bool verified = false;
};

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

std::size_t serveWorkers() {
  const unsigned threads = std::max(1U, std::thread::hardware_concurrency());
  return threads > 3 ? threads - 2 : 1;
}

serve::json::Value request(const char* op) {
  serve::json::Value value = serve::json::Value::object();
  value.set("op", op);
  return value;
}

std::string frameBody(const serve::json::Value& value) {
  const std::string text = serve::json::dump(value);
  return text.substr(1); // drop '{'; the generator prefixes the id
}

void buildShapes(const Options& options, Setup& setup, Outcome& outcome) {
  const auto start = Clock::now();
  std::vector<Shape> bases;
  for (const auto& [qubits, marked] : kGrover) {
    Shape shape;
    shape.name = "grover" + std::to_string(qubits);
    shape.circuit = algos::grover({qubits, marked, 0});
    shape.text = shape.circuit.toText();
    bases.push_back(std::move(shape));
  }
  setup.generateMs = secondsSince(start) * 1e3;
  for (const char* name : kQasm) {
    Shape shape;
    shape.name = name;
    shape.qasm = true;
    shape.text = readFile(options.dataDir + "/circuits/" + name + ".qasm");
    shape.circuit = qc::fromQasm(shape.text);
    bases.push_back(std::move(shape));
  }
  // Exact shapes first (every base that is Clifford+T), then the numeric
  // shape of every base, checked against the exact result when there is one.
  for (const Shape& base : bases) {
    Shape shape = base;
    shape.exact = true;
    try {
      qc::Simulator<Alg> simulator(shape.circuit);
      simulator.run();
      shape.nodes = simulator.stateNodes();
      shape.snapshot = io::saveVector(simulator.package(), simulator.state());
      shape.reference = simulator.package().amplitudes(simulator.state());
      shape.hasExactReference = true;
    } catch (const std::invalid_argument&) {
      continue; // rotations: no exact plane for this circuit
    }
    const la::Vector dense = denseSimulate(shape.circuit);
    outcome.check(eval::accuracyError(dense.data(), shape.reference) < 1e-9,
                  shape.name + ": exact result differs from dense simulation");
    shape.session = "alg-" + shape.name;
    setup.shapes.push_back(std::move(shape));
  }
  for (const Shape& base : bases) {
    Shape shape = base;
    Num::Config config;
    config.epsilon = kEpsilon;
    qc::Simulator<Num> simulator(shape.circuit, config);
    simulator.run();
    shape.nodes = simulator.stateNodes();
    shape.snapshot = io::saveVector(simulator.package(), simulator.state());
    const auto amplitudes = simulator.package().amplitudes(simulator.state());
    for (const Shape& exact : setup.shapes) {
      if (exact.name == shape.name) {
        shape.reference = exact.reference;
        shape.hasExactReference = true;
      }
    }
    if (!shape.hasExactReference) {
      shape.reference = denseSimulate(shape.circuit).data();
    }
    shape.accuracy = eval::accuracyError(amplitudes, shape.reference);
    outcome.check(shape.accuracy < 1e-6, shape.name + ": numeric result is inaccurate");
    shape.session = "num-" + shape.name;
    setup.shapes.push_back(std::move(shape));
  }
}

std::size_t findShape(const Setup& setup, const std::string& name, bool exact) {
  for (std::size_t i = 0; i < setup.shapes.size(); ++i) {
    if (setup.shapes[i].name == name && setup.shapes[i].exact == exact) {
      return i;
    }
  }
  throw std::logic_error("no shape " + name);
}

/// The fixed request mix, as one block of 20 slots: 10 numeric runs,
/// 6 repeated exact runs (result-cache hits), 2 state ops, 2 metrics
/// scrapes; 4 of the 16 runs ask for a snapshot.  Numeric QASM slots and
/// exact QASM slots rotate over their circuits from block to block.
void buildTemplates(Setup& setup) {
  const auto add = [&](Kind kind, std::size_t shape, bool snapshot) {
    Template templ;
    templ.kind = kind;
    templ.shape = shape;
    templ.snapshot = snapshot;
    serve::json::Value value = request(kind == Kind::Run     ? "run"
                                       : kind == Kind::State ? "state"
                                                             : "metrics");
    if (kind != Kind::Metrics) {
      const Shape& target = setup.shapes[shape];
      value.set("session", target.session);
      if (kind == Kind::Run) {
        value.set(target.qasm ? "qasm" : "circuit", target.text);
        if (snapshot) {
          value.set("snapshot", true);
        }
      }
    }
    templ.body = frameBody(value);
    setup.templates.push_back(std::move(templ));
    return setup.templates.size() - 1;
  };
  for (std::size_t i = 0; i < setup.shapes.size(); ++i) {
    add(Kind::Run, i, false);
    add(Kind::Run, i, true);
  }
  const std::size_t stateOps[] = {add(Kind::State, findShape(setup, "grover8", false), false),
                                  add(Kind::State, findShape(setup, "grover10", false), false)};
  const std::size_t metricsOp = add(Kind::Metrics, 0, false);
  // Run templates are laid out as (plain, snapshot) per shape.
  const auto run = [&](const std::string& name, bool exact, bool snapshot) {
    return Slot{2 * findShape(setup, name, exact) + (snapshot ? 1 : 0), {}, 0};
  };
  std::vector<std::size_t> numericQasm, exactQasm, exactQasmSnapshot;
  for (std::size_t i = 0; i < setup.shapes.size(); ++i) {
    if (setup.shapes[i].qasm) {
      (setup.shapes[i].exact ? exactQasm : numericQasm).push_back(2 * i);
      if (setup.shapes[i].exact) {
        exactQasmSnapshot.push_back(2 * i + 1);
      }
    }
  }
  setup.block = {run("grover8", false, false),  run("grover9", false, false),
                 run("grover10", false, false), run("grover8", false, false),
                 run("grover9", false, false),  run("grover10", false, false),
                 run("grover9", false, true),   run("grover10", false, true),
                 {0, numericQasm, 0},           {0, numericQasm, 1},
                 run("grover8", true, false),   run("grover9", true, false),
                 run("grover10", true, false),  run("grover10", true, true),
                 {0, exactQasm, 0},             {0, exactQasmSnapshot, 1},
                 {stateOps[0], {}, 0},          {stateOps[1], {}, 0},
                 {metricsOp, {}, 0},            {metricsOp, {}, 0}};
}

/// Template of slot `slot` in block `block`: rotating slots advance by two
/// per block.
std::size_t templateFor(const Setup& setup, std::size_t block, std::size_t slot) {
  const Slot& entry = setup.block[slot];
  if (entry.rotation.empty()) {
    return entry.templ;
  }
  return entry.rotation[(2 * block + entry.offset) % entry.rotation.size()];
}

serve::json::Value callOk(serve::Client& client, const serve::json::Value& value) {
  serve::json::Value reply = client.call(value);
  if (!reply.getBool("ok")) {
    throw std::runtime_error("request failed: " + serve::json::dump(reply));
  }
  return reply;
}

bool checkSnapshot(const Shape& shape, const std::string& base64) {
  try {
    const auto bytes = serve::decodeBase64(base64);
    if (shape.exact) {
      return bytes == shape.snapshot;
    }
    // Numeric results depend on the session's table history, so a warm
    // session's bytes may differ from a fresh run: check size and accuracy.
    Num::Config config;
    config.epsilon = kEpsilon;
    dd::Package<Num> package(shape.circuit.qubits(), config);
    const auto state = io::loadVector(package, std::span<const std::uint8_t>(bytes));
    return package.countNodes(state) == shape.nodes &&
           eval::accuracyError(package.amplitudes(state), shape.reference) < 1e-6;
  } catch (const std::exception&) {
    return false;
  }
}

bool verify(const Setup& setup, const Record& record) {
  if (record.received < 0.0 || !record.okFrame) {
    return false;
  }
  const Template& templ = setup.templates[record.templ];
  const Shape& shape = setup.shapes[templ.shape];
  switch (templ.kind) {
  case Kind::Metrics:
    return record.payload.find("qadd_serve_jobs_completed_total") != std::string::npos;
  case Kind::State:
    return record.nodes == shape.nodes && checkSnapshot(shape, record.payload);
  case Kind::Run:
    return record.gates == shape.circuit.size() && record.nodes == shape.nodes &&
           (!templ.snapshot || checkSnapshot(shape, record.payload));
  }
  return false;
}

void setUp(const Options& options, Setup& setup, Outcome& outcome) {
  buildShapes(options, setup, outcome);
  buildTemplates(setup);

  serve::ServerConfig config;
  config.port = 0;
  config.workers = serveWorkers();
  setup.server = std::make_unique<serve::Server>(config);
  setup.server->start();
  setup.control.connect("127.0.0.1", setup.server->port(), 30.0);

  // A fresh session must return exactly the offline simulator's bytes.
  for (const Shape& shape : setup.shapes) {
    const std::string session = "fresh-" + shape.session;
    serve::json::Value open = request("open");
    open.set("session", session);
    open.set("system", shape.exact ? "alg" : "num");
    open.set("eps", shape.exact ? 0.0 : kEpsilon);
    open.set("qubits", static_cast<std::size_t>(shape.circuit.qubits()));
    callOk(setup.control, open);
    serve::json::Value run = request("run");
    run.set("session", session);
    run.set(shape.qasm ? "qasm" : "circuit", shape.text);
    run.set("snapshot", true);
    const serve::json::Value reply = callOk(setup.control, run);
    outcome.check(serve::decodeBase64(reply.getString("snapshot_b64")) == shape.snapshot,
                  session + ": served bytes differ from the offline simulator");
    serve::json::Value close = request("close");
    close.set("session", session);
    callOk(setup.control, close);
  }
  for (const Shape& shape : setup.shapes) {
    serve::json::Value open = request("open");
    open.set("session", shape.session);
    open.set("system", shape.exact ? "alg" : "num");
    open.set("eps", shape.exact ? 0.0 : kEpsilon);
    open.set("qubits", static_cast<std::size_t>(shape.circuit.qubits()));
    callOk(setup.control, open);
  }
  // Warm-up pass: every template once, which also fills the result cache
  // with the exact runs the timed phase repeats.
  for (std::size_t t = 0; t < setup.templates.size(); ++t) {
    Record record;
    record.templ = t;
    const serve::json::Value reply =
        setup.control.call(serve::json::parse("{" + setup.templates[t].body));
    record.received = 0.0;
    record.okFrame = reply.getBool("ok");
    record.gates = static_cast<std::size_t>(reply.getNumber("gates"));
    record.nodes = static_cast<std::size_t>(reply.getNumber("nodes"));
    record.payload = reply.getString("snapshot_b64", reply.getString("metrics"));
    outcome.check(verify(setup, record), "warm-up request " + std::to_string(t) + " failed");
  }
  for (std::size_t c = 0; c < kConnections; ++c) {
    setup.wires.push_back(std::make_unique<Wire>(setup.server->port()));
  }
}

struct Phase {
  std::vector<Record> records;
  double elapsed = 0.0; ///< first send to last answer, in seconds
};

/// Plan `count` requests in a seeded slot order per block, due with seeded
/// jitter around a fixed period at `rate` (all due at once when `rate` is
/// 0), send each when due while fewer than `maxOutstanding` are unanswered
/// (0: no limit), and collect the answers until everything is answered or
/// nothing has been sent or answered for kDrainSeconds.  Request ids
/// continue across phases so late answers of one phase cannot be taken for
/// another's.
Phase runPhase(Setup& setup, SeededOrder& order, std::size_t count, double rate,
               std::size_t maxOutstanding, std::uint64_t& nextId, Tracer* tracer) {
  Phase phase;
  const std::size_t blockSize = setup.block.size();
  std::vector<std::size_t> slots;
  for (std::size_t i = 0; i < count; ++i) {
    if (i % blockSize == 0) {
      slots = order.permutation(blockSize);
    }
    Record record;
    record.templ = templateFor(setup, i / blockSize, slots[i % blockSize]);
    record.due =
        rate > 0.0 ? (static_cast<double>(i) + 0.5 + 0.8 * (order.uniform() - 0.5)) / rate : 0.0;
    phase.records.push_back(std::move(record));
  }
  const std::uint64_t firstId = nextId;
  nextId += count;

  std::vector<pollfd> fds;
  for (const auto& wire : setup.wires) {
    fds.push_back({wire->fd(), POLLIN, 0});
  }
  std::vector<std::string> lines;
  std::size_t next = 0;
  std::size_t outstanding = 0;
  const auto canSend = [&] {
    return next < count && (maxOutstanding == 0 || outstanding < maxOutstanding);
  };
  double lastActivity = 0.0;
  const auto start = Clock::now();
  while (true) {
    double now = secondsSince(start);
    while (canSend() && phase.records[next].due <= now) {
      Record& record = phase.records[next];
      setup.wires[next % kConnections]->send("{\"id\":" + std::to_string(firstId + next) + "," +
                                             setup.templates[record.templ].body + "\n");
      record.sent = secondsSince(start);
      ++next;
      ++outstanding;
      now = record.sent;
      lastActivity = now;
    }
    if (next == count && outstanding == 0) {
      break;
    }
    if (!canSend() && now > lastActivity + kDrainSeconds) {
      break; // nothing answered for too long
    }
    const double wait = std::max(
        0.0, canSend() ? phase.records[next].due - now : lastActivity + kDrainSeconds - now);
    timespec timeout{};
    timeout.tv_sec = static_cast<time_t>(wait);
    timeout.tv_nsec = static_cast<long>((wait - std::floor(wait)) * 1e9);
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) {
      continue;
    }
    for (std::size_t c = 0; c < fds.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      lines.clear();
      setup.wires[c]->receive(lines);
      const double received = secondsSince(start);
      lastActivity = received;
      for (const std::string& line : lines) {
        const serve::json::Value reply = serve::json::parse(line);
        const serve::json::Value* id = reply.find("id");
        if (id == nullptr || !id->isNumber()) {
          continue;
        }
        const auto index = static_cast<std::uint64_t>(id->asNumber());
        if (index < firstId || index >= firstId + count) {
          continue; // a late answer from an earlier phase
        }
        Record& record = phase.records[index - firstId];
        if (record.received >= 0.0) {
          continue;
        }
        record.received = received;
        record.bytes = line.size();
        record.okFrame = reply.getBool("ok");
        if (const serve::json::Value* error = reply.find("error")) {
          record.code = static_cast<int>(error->getNumber("code"));
        }
        record.cached = reply.getBool("cached");
        record.serverSeconds = reply.getNumber("seconds");
        record.gates = static_cast<std::size_t>(reply.getNumber("gates"));
        record.nodes = static_cast<std::size_t>(reply.getNumber("nodes"));
        record.payload = reply.getString("snapshot_b64", reply.getString("metrics"));
        --outstanding;
        if (tracer != nullptr) {
          const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(record.due));
          const auto sent = start + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(record.sent));
          const auto done = start + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(received));
          const Tracer::Id span = tracer->record("serve.request", Tracer::kNone, index, due, done);
          tracer->record("serve.wire", span, index, sent, done);
        }
      }
    }
  }
  double last = 0.0;
  for (Record& record : phase.records) {
    record.verified = verify(setup, record);
    last = std::max(last, record.received);
  }
  phase.elapsed = last - (phase.records.empty() ? 0.0 : phase.records.front().sent);
  return phase;
}

double latencyMs(const Record& record) { return (record.received - record.due) * 1e3; }

/// One line per request of a phase: what was sent, when, and what came back.
void writeRecords(const Setup& setup, const std::vector<const Record*>& records,
                  const std::string& path) {
  std::ofstream os(path);
  os << "template,session,due_s,sent_s,received_s,server_s,cached,code,verified\n";
  os.precision(9);
  for (const Record* entry : records) {
    const Record& record = *entry;
    const Template& templ = setup.templates[record.templ];
    os << record.templ << ','
       << (templ.kind == Kind::Metrics ? "metrics" : setup.shapes[templ.shape].session) << ','
       << record.due << ',' << record.sent << ',' << record.received << ','
       << record.serverSeconds << ',' << record.cached << ',' << record.code << ','
       << record.verified << '\n';
  }
}

/// Median and p99 latency per request kind, for the table.
std::string kindBreakdown(const Setup& setup, const std::vector<const Record*>& records) {
  std::map<std::string, std::vector<double>> byKind;
  for (const Record* entry : records) {
    const Record& record = *entry;
    if (record.received < 0.0) {
      continue;
    }
    const Template& templ = setup.templates[record.templ];
    const std::string kind = templ.kind == Kind::Metrics ? "metrics"
                             : templ.kind == Kind::State ? "state"
                             : setup.shapes[templ.shape].exact ? "run-alg"
                                                               : "run-num";
    byKind[kind].push_back(latencyMs(record));
  }
  std::string text = "latency ms by kind (p50/p99):";
  for (auto& [kind, values] : byKind) {
    std::sort(values.begin(), values.end());
    char buffer[96];
    std::snprintf(buffer, sizeof(buffer), " %s %.2f/%.2f (n=%zu)", kind.c_str(),
                  values[values.size() / 2], values[values.size() * 99 / 100], values.size());
    text += buffer;
  }
  return text;
}

struct PhaseSummary {
  std::uint64_t attempted = 0, verified = 0, withinLimit = 0, refused = 0;
  std::vector<double> latencies; ///< verified requests, as measured
  bool meetsSlo = false;
  double goodput = 0.0; ///< requests within the limit per second
};

PhaseSummary summarizePhase(const Phase& phase) {
  PhaseSummary summary;
  bool drained = true;
  for (const Record& record : phase.records) {
    ++summary.attempted;
    drained = drained && record.received >= 0.0;
    summary.refused += record.code == 429 ? 1 : 0;
    if (record.verified) {
      ++summary.verified;
      summary.latencies.push_back(latencyMs(record));
      summary.withinLimit += latencyMs(record) <= kLatencyLimitMs ? 1 : 0;
    }
  }
  summary.meetsSlo = drained && static_cast<double>(summary.withinLimit) >=
                                    kSloShare * static_cast<double>(summary.attempted);
  summary.goodput = static_cast<double>(summary.withinLimit) / phase.elapsed;
  return summary;
}

/// The traced run's nominal phase: kWindows windows at kNominalRate with a
/// probe of the host's speed before the first and after each.
struct Nominal {
  std::vector<Phase> windows;
  std::vector<double> probesMs;
  std::uint64_t attempted = 0, verified = 0, refused = 0;
  std::vector<double> latencies; ///< verified requests, at the reference speed

  [[nodiscard]] std::vector<const Record*> records() const {
    std::vector<const Record*> all;
    for (const Phase& window : windows) {
      for (const Record& record : window.records) {
        all.push_back(&record);
      }
    }
    return all;
  }
};

Nominal runNominal(Setup& setup, SeededOrder& order, double seconds, std::uint64_t& nextId,
                   Tracer* tracer) {
  Nominal nominal;
  nominal.probesMs.push_back(probeHostMs(3));
  for (std::size_t w = 0; w < kWindows; ++w) {
    const auto count = static_cast<std::size_t>(
        std::llround(kNominalRate * seconds / static_cast<double>(kWindows)));
    nominal.windows.push_back(runPhase(setup, order, count, kNominalRate, 0, nextId, tracer));
    nominal.probesMs.push_back(probeHostMs(3));
    const PhaseSummary summary = summarizePhase(nominal.windows.back());
    nominal.attempted += summary.attempted;
    nominal.verified += summary.verified;
    nominal.refused += summary.refused;
    for (const double latency : summary.latencies) {
      nominal.latencies.push_back(
          atReferenceSpeed(latency, nominal.probesMs[w], nominal.probesMs[w + 1]));
    }
  }
  return nominal;
}

} // namespace

Outcome runServeMix(const Options& options) {
  Outcome outcome;
  std::vector<double> setupSeconds, generateMs;
  std::unique_ptr<Setup> owned;
  for (int repeat = 0; repeat < kServeSetupRepeats; ++repeat) {
    owned.reset(); // stop the previous server first
    setupSeconds.push_back(timeAtReferenceSpeed([&] {
      owned = std::make_unique<Setup>();
      setUp(options, *owned, outcome);
    }));
    generateMs.push_back(owned->generateMs);
  }
  Setup& setup = *owned;
  {
    // Two seeds: same templates in every block, only their order differs.
    SeededOrder a(options.seed);
    SeededOrder b(options.seed + 1);
    auto slotsA = a.permutation(setup.block.size());
    auto slotsB = b.permutation(setup.block.size());
    std::vector<std::size_t> templatesA, templatesB;
    for (std::size_t i = 0; i < slotsA.size(); ++i) {
      templatesA.push_back(templateFor(setup, 0, slotsA[i]));
      templatesB.push_back(templateFor(setup, 0, slotsB[i]));
    }
    std::sort(templatesA.begin(), templatesA.end());
    std::sort(templatesB.begin(), templatesB.end());
    outcome.check(templatesA == templatesB, "two seeds give different request mixes");
  }
  EndToEnd e2e;
  e2e.setupS = median(setupSeconds);
  std::vector<double> errors;
  for (const Shape& shape : setup.shapes) {
    e2e.ddNodes += static_cast<double>(shape.nodes);
    if (!shape.exact && shape.hasExactReference) {
      errors.push_back(shape.accuracy);
    }
  }
  e2e.accuracyErr = mean(errors);

  SeededOrder order(options.seed);
  std::uint64_t nextId = 1;
  const auto& counters = setup.server->counters();
  if (!options.trace) {
    // Bursts, closed loop: the calibration kernel runs between bursts, when
    // the server is idle.
    std::uint64_t requests = 0, verified = 0;
    const auto bursts = [] { return std::vector<int>(kBurstsPerPass, 0); };
    const LoopResult loop = closedLoop(options.seconds / 2, bursts, [&](int) {
      const Phase burst = runPhase(setup, order, kBurstRequests, 0.0, kInFlight, nextId, nullptr);
      const PhaseSummary summary = summarizePhase(burst);
      requests += summary.attempted;
      verified += summary.verified;
      return OpResult{burst.elapsed, summary.verified == summary.attempted};
    });
    outcome.attempted = requests;
    outcome.failed = requests - verified;
    e2e.setClosedLoop(loop);
    e2e.opsPerS = static_cast<double>(verified) / static_cast<double>(loop.passes) /
                  (loop.typicalPassMs() / 1e3);
    e2e.okFrac = static_cast<double>(verified) / static_cast<double>(requests);
    loop.writeCsv(options.tmpDir + "/bursts.csv");

    // The rate ladder, open loop: latency from each request's due time.
    std::string ladder = "ladder:";
    e2e.sloRps = 0.0;
    for (const double rate : kLadder) {
      const double seconds = options.seconds / (2 * kLadder.size());
      const Phase rung = runPhase(setup, order, static_cast<std::size_t>(std::llround(rate * seconds)),
                                  rate, 0, nextId, nullptr);
      const PhaseSummary summary = summarizePhase(rung);
      const LatencySummary latency = summarize(summary.latencies);
      char line[160];
      std::snprintf(line, sizeof(line), " %d/s %s (%llu/%llu within limit, p50 %.2f ms, p%.1f %.2f ms)",
                    static_cast<int>(rate), summary.meetsSlo ? "meets" : "misses",
                    static_cast<unsigned long long>(summary.withinLimit),
                    static_cast<unsigned long long>(summary.attempted), latency.p50,
                    latency.tailPercentile, latency.tail);
      ladder += line;
      if (rate == kNominalRate) {
        std::vector<const Record*> records;
        for (const Record& record : rung.records) {
          records.push_back(&record);
        }
        outcome.notes.push_back(kindBreakdown(setup, records));
        writeRecords(setup, records, options.tmpDir + "/requests.csv");
      }
      if (!summary.meetsSlo) {
        break;
      }
      e2e.sloRps = summary.goodput;
    }
    // Let the server finish what the last rung left queued.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    outcome.metrics = e2e.metrics();
    outcome.notes.push_back(ladder);
    outcome.notes.push_back("bursts of " + std::to_string(kBurstRequests) + " requests, " +
                            std::to_string(kInFlight) + " in flight; " + rawTimingNote(loop));
    return outcome;
  }

  // Traced run: untraced nominal half, traced nominal half, then the
  // offline replay of every shape for the qc/core/io layers.
  const Nominal plain = runNominal(setup, order, options.seconds / 2, nextId, nullptr);
  const auto tracer = std::make_shared<Tracer>();
  outcome.tracer = tracer;
  const std::uint64_t coalescedBefore = counters.resultCacheCoalesced.load();
  const Nominal traced = runNominal(setup, order, options.seconds / 2, nextId, tracer.get());
  const std::uint64_t coalesced = counters.resultCacheCoalesced.load() - coalescedBefore;
  outcome.attempted = plain.attempted + traced.attempted;
  outcome.failed = outcome.attempted - plain.verified - traced.verified;

  LayerMetrics layer;
  std::vector<double> simMs, overheadMs, lateMs, payloadKb;
  std::size_t runs = 0, cachedRuns = 0;
  for (const Record* entry : traced.records()) {
    const Record& record = *entry;
    lateMs.push_back((record.sent - record.due) * 1e3);
    if (record.received < 0.0) {
      continue;
    }
    payloadKb.push_back(static_cast<double>(record.bytes) / 1024.0);
    if (setup.templates[record.templ].kind != Kind::Run) {
      continue;
    }
    ++runs;
    if (record.cached) {
      ++cachedRuns;
    } else if (record.okFrame) {
      simMs.push_back(record.serverSeconds * 1e3);
      overheadMs.push_back((record.received - record.sent - record.serverSeconds) * 1e3);
    }
  }
  layer.simMs = mean(simMs);
  layer.overheadMs = mean(overheadMs);
  layer.cacheHitFrac = runs == 0 ? 0.0 : static_cast<double>(cachedRuns) / static_cast<double>(runs);
  layer.coalesced = static_cast<double>(coalesced);
  layer.rejected = static_cast<double>(traced.refused);
  layer.payloadKb = mean(payloadKb);
  layer.genLateMs = mean(lateMs);
  layer.traceOverhead = median(traced.latencies) / median(plain.latencies) - 1.0;
  layer.generateMs = median(generateMs);
  layer.workers = static_cast<double>(setup.server->config().workers);

  // Offline replay of each shape, gate by gate, with a timed QDDS round
  // trip of the result.
  double gates = 0, buildSeconds = 0, multiplySeconds = 0, saveSeconds = 0, loadSeconds = 0,
         bytes = 0;
  std::uint64_t hits = 0, spills = 0;
  std::uint64_t opId = nextId;
  const auto replayShape = [&](auto& package, const Shape& shape, bool exact) {
    const Scope span(tracer.get(), "replay.shape", Tracer::kNone, opId);
    const auto before = package.stats().weights;
    const auto replay = replaySteps(package, shape.circuit, tracer.get(), span.id(), opId);
    const auto after = package.stats();
    const auto t0 = Clock::now();
    const auto saved = io::saveVector(package, replay.state);
    const auto t1 = Clock::now();
    (void)io::loadVector(package, std::span<const std::uint8_t>(saved));
    const auto t2 = Clock::now();
    tracer->record("io.saveVector", span.id(), opId, t0, t1);
    tracer->record("io.loadVector", span.id(), opId, t1, t2);
    ++opId;
    gates += static_cast<double>(shape.circuit.size());
    buildSeconds += replay.buildSeconds;
    multiplySeconds += replay.multiplySeconds;
    saveSeconds += secondsBetween(t0, t1);
    loadSeconds += secondsBetween(t1, t2);
    bytes += static_cast<double>(saved.size());
    layer.core.add(after, exact);
    if (exact) {
      hits += after.weights.smallPathHits - before.smallPathHits;
      spills += after.weights.smallPathSpills - before.smallPathSpills;
    }
    outcome.check(package.countNodes(replay.state) == shape.nodes,
                  shape.session + ": offline replay differs");
  };
  for (const Shape& shape : setup.shapes) {
    if (shape.exact) {
      dd::Package<Alg> package(shape.circuit.qubits());
      replayShape(package, shape, true);
    } else {
      Num::Config config;
      config.epsilon = kEpsilon;
      dd::Package<Num> package(shape.circuit.qubits(), config);
      replayShape(package, shape, false);
    }
  }
  const auto shapes = static_cast<double>(setup.shapes.size());
  layer.gates = gates / shapes;
  layer.gateBuildUs = buildSeconds / gates * 1e6;
  layer.mvUs = multiplySeconds / gates * 1e6;
  layer.spillFrac = spillFraction(hits, spills);
  layer.saveMs = saveSeconds / shapes * 1e3;
  layer.loadMs = loadSeconds / shapes * 1e3;
  layer.snapshotKb = bytes / shapes / 1024.0;
  outcome.metrics = layer.metrics();
  return outcome;
}

} // namespace perf
