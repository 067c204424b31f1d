/// \file test_serve.cpp
/// The qadd_serve subsystem: wire-format units (JSON, base64), the job
/// queue's priorities and admission control, session lifecycle with idle
/// persistence, and live-server protocol robustness — a malformed/truncated/
/// oversized frame fuzzer, kill-mid-job checkpoint restore proving QCKP
/// byte-identity across a server restart, result-cache coalescing, and
/// Prometheus label escaping of hostile session names.
#include "algorithms/grover.hpp"
#include "core/algebraic_system.hpp"
#include "exec/thread_pool.hpp"
#include "io/snapshot.hpp"
#include "qc/simulator.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace qadd;

// -- helpers ----------------------------------------------------------------------

serve::ServerConfig testConfig() {
  serve::ServerConfig config;
  config.port = 0;
  config.workers = 2;
  config.idleTimeoutSeconds = 0; // tests poke connections at their own pace
  return config;
}

serve::Client connectTo(const serve::Server& server) {
  serve::Client client;
  client.connect("127.0.0.1", server.port(), 30.0);
  return client;
}

serve::json::Value makeRequest(const std::string& op) {
  serve::json::Value request = serve::json::Value::object();
  request.set("op", op);
  return request;
}

serve::json::Value openSession(serve::Client& client, const std::string& name,
                               const std::string& system, qc::Qubit qubits,
                               double epsilon = 0.0) {
  serve::json::Value open = makeRequest("open");
  open.set("session", name);
  open.set("system", system);
  open.set("qubits", static_cast<std::size_t>(qubits));
  open.set("eps", epsilon);
  return client.call(open);
}

int errorCode(const serve::json::Value& reply) {
  const serve::json::Value* error = reply.find("error");
  return error == nullptr ? 0 : static_cast<int>(error->getNumber("code"));
}

// -- json -------------------------------------------------------------------------

TEST(ServeJson, RoundTripsDocuments) {
  const std::string text =
      R"({"id":7,"op":"run","ok":true,"eps":0.5,"names":["a","b"],"nested":{"x":null}})";
  const serve::json::Value value = serve::json::parse(text);
  EXPECT_EQ(value.getNumber("id"), 7.0);
  EXPECT_EQ(value.getString("op"), "run");
  EXPECT_TRUE(value.getBool("ok"));
  EXPECT_EQ(serve::json::dump(value), text);
}

TEST(ServeJson, EscapesAndControlCharacters) {
  serve::json::Value value = serve::json::Value::object();
  value.set("s", std::string("a\"b\\c\nd\te\x01"));
  const std::string dumped = serve::json::dump(value);
  EXPECT_EQ(dumped.find('\n'), std::string::npos) << "frames must stay single-line";
  const serve::json::Value back = serve::json::parse(dumped);
  EXPECT_EQ(back.getString("s"), "a\"b\\c\nd\te\x01");
}

TEST(ServeJson, RejectsMalformedAndDeepDocuments) {
  for (const char* bad : {"", "{", "[1,", "{\"a\":}", "tru", "01x", "\"\\q\"", "{\"a\":1}x",
                          "\"unterminated", "nan"}) {
    EXPECT_THROW((void)serve::json::parse(bad), serve::json::Error) << bad;
  }
  const std::string deep(100, '[');
  EXPECT_THROW((void)serve::json::parse(deep + std::string(100, ']')), serve::json::Error);
}

TEST(ServeJson, ParsesUnicodeEscapes) {
  const serve::json::Value value = serve::json::parse(R"({"s":"\u0041\u00e9\u20ac"})");
  EXPECT_EQ(value.getString("s"), "A\xC3\xA9\xE2\x82\xAC");
}

// -- base64 -----------------------------------------------------------------------

TEST(ServeBase64, RoundTripsAllLengths) {
  std::mt19937 rng(7);
  for (std::size_t length = 0; length < 70; ++length) {
    std::vector<std::uint8_t> bytes(length);
    for (auto& b : bytes) {
      b = static_cast<std::uint8_t>(rng());
    }
    EXPECT_EQ(serve::decodeBase64(serve::encodeBase64(bytes)), bytes) << length;
  }
}

TEST(ServeBase64, RejectsInvalidInput) {
  for (const char* bad : {"abc", "ab=c", "====", "a===", "ab=cdefg", "ab!d", "AAAA\n"}) {
    EXPECT_THROW((void)serve::decodeBase64(bad), serve::ServeError) << bad;
  }
}

// -- job queue --------------------------------------------------------------------

TEST(ServeJobQueue, DispatchesByPriorityAndRejectsPastDepth) {
  exec::ThreadPool pool(1);
  serve::JobQueue queue(pool, 4);
  std::mutex gate;
  gate.lock(); // hold the single worker on the first job
  std::vector<int> order;
  std::mutex orderMutex;
  ASSERT_TRUE(queue.tryEnqueue(0, [&] {
    const std::lock_guard<std::mutex> hold(gate); // blocks until released
  }));
  // Wait until the blocker is actually in flight so the later jobs are all
  // pending together and dispatch strictly by priority.
  while (queue.accepted() != 1 || queue.depth() != 1) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto record = [&](int tag) {
    return [&order, &orderMutex, tag] {
      const std::lock_guard<std::mutex> lock(orderMutex);
      order.push_back(tag);
    };
  };
  ASSERT_TRUE(queue.tryEnqueue(5, record(5)));
  ASSERT_TRUE(queue.tryEnqueue(1, record(1)));
  ASSERT_TRUE(queue.tryEnqueue(3, record(3)));
  EXPECT_FALSE(queue.tryEnqueue(0, record(0))) << "5th job must exceed depth 4";
  EXPECT_EQ(queue.rejected(), 1U);
  gate.unlock();
  queue.drain();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 5})) << "pending jobs run in priority order";
  EXPECT_EQ(queue.completed(), 4U);
}

// -- sessions: idle persistence ---------------------------------------------------

TEST(ServeSession, PersistsIdleSessionsAndRestoresByteIdentically) {
  serve::SessionManager::Limits limits;
  limits.memoryWatermarkNodes = 1; // everything idle gets persisted
  serve::SessionManager manager(limits);

  serve::SessionConfig config;
  config.system = "alg";
  config.qubits = 5;
  config.name = "a";
  const auto a = manager.open(config);
  config.name = "b";
  const auto b = manager.open(config);

  const qc::Circuit circuit = algos::grover({5, 11, 0});
  serve::JobRequest job;
  job.circuit = circuit;
  std::vector<std::uint8_t> before;
  manager.withBackend(*a, [&](serve::SessionBackend& backend) {
    (void)backend.run(job, {});
    before = backend.stateSnapshot();
  });
  // Running on b makes a the LRU victim once the watermark sweep runs.
  manager.withBackend(*b, [&](serve::SessionBackend& backend) { (void)backend.run(job, {}); });
  EXPECT_GE(manager.counters().persisted.load(), 1U);
  EXPECT_TRUE(a->persisted());

  std::vector<std::uint8_t> after;
  manager.withBackend(*a, [&](serve::SessionBackend& backend) {
    after = backend.stateSnapshot();
  });
  EXPECT_EQ(manager.counters().restored.load(), 1U);
  EXPECT_EQ(after, before) << "QCKP persist/restore must be byte-identical";
}

TEST(ServeSession, OpenValidatesAndEnforcesLimits) {
  serve::SessionManager::Limits limits;
  limits.maxSessions = 1;
  serve::SessionManager manager(limits);
  serve::SessionConfig config;
  config.name = "s";
  config.qubits = 2;
  (void)manager.open(config);
  try {
    (void)manager.open(config);
    FAIL() << "duplicate open must throw";
  } catch (const serve::ServeError& error) {
    EXPECT_EQ(error.code(), serve::kConflict);
  }
  config.name = "t";
  try {
    (void)manager.open(config);
    FAIL() << "session limit must throw";
  } catch (const serve::ServeError& error) {
    EXPECT_EQ(error.code(), serve::kTooManyRequests);
  }
  manager.close("s");
  EXPECT_THROW(manager.close("s"), serve::ServeError);
  config.name = "u";
  config.system = "alg";
  config.epsilon = 0.5; // exact system refuses a tolerance
  EXPECT_THROW((void)manager.open(config), serve::ServeError);
  config.epsilon = 0.0;
  config.qubits = 0;
  EXPECT_THROW((void)manager.open(config), serve::ServeError);
}

// -- live server: protocol robustness ---------------------------------------------

TEST(ServeServer, SurvivesMalformedFrameFuzzing) {
  auto config = testConfig();
  config.maxFrameBytes = 4096;
  serve::Server server(config);
  server.start();

  serve::Client client = connectTo(server);
  // Deterministic garbage: every frame must be answered with ok=false and
  // the connection must survive everything that fits the frame limit.
  std::vector<std::string> frames = {
      "{",
      "}",
      "null",
      "[1,2,3]",
      "\"just a string\"",
      "{\"op\":42}",
      "{\"op\":\"no-such-op\"}",
      "{\"op\":\"run\"}",
      "{\"op\":\"run\",\"session\":\"ghost\"}",
      "{\"op\":\"open\",\"session\":\"\",\"qubits\":3}",
      "{\"op\":\"open\",\"session\":\"x\",\"system\":\"quaternion\",\"qubits\":3}",
      "{\"op\":\"open\",\"session\":\"x\",\"system\":\"num\",\"qubits\":3,\"eps\":-1}",
      std::string("{\"op\":\"") + std::string(200, 'z') + "\"}",
      "{\"op\":\"loadstate\",\"session\":\"ghost\",\"qdds_b64\":\"!!!\"}",
      // Hostile numbers must be rejected with 400 before any integer cast
      // (a static_cast from 1e30 or a negative into an unsigned is UB).
      "{\"op\":\"open\",\"session\":\"n1\",\"qubits\":1e30}",
      "{\"op\":\"open\",\"session\":\"n2\",\"qubits\":-3}",
      "{\"op\":\"open\",\"session\":\"n3\",\"qubits\":2.5}",
      "{\"op\":\"open\",\"session\":\"n4\",\"qubits\":3,\"gc_watermark\":-1}",
      "{\"op\":\"open\",\"session\":\"n5\",\"qubits\":\"three\"}",
  };
  std::mt19937 rng(1234);
  for (int i = 0; i < 40; ++i) {
    std::string junk;
    const std::size_t length = 1 + rng() % 60;
    for (std::size_t j = 0; j < length; ++j) {
      junk += static_cast<char>(' ' + rng() % 95); // printable, non-newline
    }
    frames.push_back(junk);
  }
  for (const std::string& frame : frames) {
    client.sendRaw(frame + "\n");
    const serve::json::Value reply = serve::json::parse(client.readLine());
    EXPECT_FALSE(reply.getBool("ok")) << frame;
    EXPECT_GE(errorCode(reply), 400) << frame;
  }
  // The connection is still healthy after all of it.
  EXPECT_TRUE(client.call(makeRequest("ping")).getBool("ok"));

  // A truncated frame (no newline, then close) must be ignored quietly.
  {
    serve::Client truncated = connectTo(server);
    truncated.sendRaw("{\"op\":\"ping\",\"id\":\"never-finis");
    truncated.close();
  }
  // A frame split into byte-sized writes must reassemble.
  {
    serve::Client slow = connectTo(server);
    const std::string frame = "{\"op\":\"ping\",\"id\":\"slow\"}\n";
    for (const char byte : frame) {
      slow.sendRaw(std::string(1, byte));
    }
    EXPECT_TRUE(serve::json::parse(slow.readLine()).getBool("ok"));
  }
  // An oversized frame draws 413 and a close; the server itself lives on.
  {
    serve::Client big = connectTo(server);
    big.sendRaw(std::string(config.maxFrameBytes + 1024, 'x'));
    const serve::json::Value reply = serve::json::parse(big.readLine());
    EXPECT_EQ(errorCode(reply), serve::kPayloadTooLarge);
    EXPECT_THROW((void)big.readLine(), std::runtime_error); // server closed it
  }
  EXPECT_TRUE(client.call(makeRequest("ping")).getBool("ok"));
  EXPECT_GE(server.counters().malformedFrames.load(), 40U);
  EXPECT_EQ(server.counters().oversizedFrames.load(), 1U);
  server.stop();
}

TEST(ServeServer, KillMidJobAndCheckpointRestoreAcrossRestart) {
  const qc::Circuit circuit = algos::grover({6, 23, 0});
  // Offline references: the full run, and a mid-circuit QCKP checkpoint.
  qc::Simulator<dd::AlgebraicSystem> offline(circuit);
  offline.run();
  const std::vector<std::uint8_t> reference = io::saveVector(offline.package(), offline.state());
  qc::Simulator<dd::AlgebraicSystem> partial(circuit);
  const std::size_t half = circuit.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    partial.step();
  }
  const std::vector<std::uint8_t> checkpoint = partial.saveCheckpoint();

  std::uint16_t firstPort = 0;
  {
    auto config = testConfig();
    serve::Server server(config);
    server.start();
    firstPort = server.port();
    serve::Client client = connectTo(server);
    ASSERT_TRUE(openSession(client, "s", "alg", circuit.qubits()).getBool("ok"));
    // Fire a job and vanish mid-flight: the client dies, then the server is
    // torn down.  Neither side may crash or leak the in-flight work.
    serve::json::Value run = makeRequest("run");
    run.set("session", "s");
    run.set("circuit", circuit.toText());
    client.sendRaw(serve::json::dump(run) + "\n");
    client.close();
    server.stop();
  }

  // A fresh server (think: restarted daemon) resumes the QCKP mid-circuit
  // and must land on the byte-identical final state.
  auto config = testConfig();
  serve::Server server(config);
  server.start();
  EXPECT_NE(server.port(), 0);
  (void)firstPort;
  serve::Client client = connectTo(server);
  ASSERT_TRUE(openSession(client, "s", "alg", circuit.qubits()).getBool("ok"));
  serve::json::Value resume = makeRequest("run");
  resume.set("session", "s");
  resume.set("circuit", circuit.toText());
  resume.set("resume", serve::encodeBase64(checkpoint));
  resume.set("snapshot", true);
  const serve::json::Value reply = client.call(resume);
  ASSERT_TRUE(reply.getBool("ok")) << serve::json::dump(reply);
  EXPECT_EQ(static_cast<std::size_t>(reply.getNumber("gates")), circuit.size() - half)
      << "resume must only apply the remaining gates";
  EXPECT_EQ(serve::decodeBase64(reply.getString("snapshot_b64")), reference)
      << "restored run must be byte-identical to the offline simulation";

  // The "checkpoint" op round-trips through loadstate-free restore too.
  const serve::json::Value ckptReply = [&] {
    serve::json::Value request = makeRequest("checkpoint");
    request.set("session", "s");
    return client.call(request);
  }();
  ASSERT_TRUE(ckptReply.getBool("ok"));
  const auto serverCkpt = serve::decodeBase64(ckptReply.getString("checkpoint_b64"));
  // Restoring that checkpoint on yet another session reproduces the state.
  ASSERT_TRUE(openSession(client, "t", "alg", circuit.qubits()).getBool("ok"));
  serve::json::Value replay = makeRequest("run");
  replay.set("session", "t");
  replay.set("circuit", circuit.toText());
  replay.set("resume", serve::encodeBase64(serverCkpt));
  replay.set("snapshot", true);
  const serve::json::Value replayed = client.call(replay);
  ASSERT_TRUE(replayed.getBool("ok"));
  EXPECT_EQ(serve::decodeBase64(replayed.getString("snapshot_b64")), reference);
  server.stop();
}

TEST(ServeServer, AdmissionControlAnswers429) {
  auto config = testConfig();
  config.workers = 1;
  config.maxQueueDepth = 1;
  serve::Server server(config);
  server.start();
  serve::Client client = connectTo(server);
  const qc::Circuit circuit = algos::grover({11, 3, 0}); // slow enough to pile behind
  ASSERT_TRUE(openSession(client, "s", "alg", circuit.qubits()).getBool("ok"));
  serve::json::Value run = makeRequest("run");
  run.set("session", "s");
  run.set("circuit", circuit.toText());
  // Pipeline several jobs in one burst: with one worker and depth 1, the
  // later ones must be refused with 429 while the first still runs.
  const int burst = 5;
  std::string frames;
  for (int i = 0; i < burst; ++i) {
    frames += serve::json::dump(run) + "\n";
  }
  client.sendRaw(frames);
  int ok = 0;
  int rejected = 0;
  for (int i = 0; i < burst; ++i) {
    const serve::json::Value reply = serve::json::parse(client.readLine());
    if (reply.getBool("ok")) {
      ++ok;
    } else {
      EXPECT_EQ(errorCode(reply), serve::kTooManyRequests);
      ++rejected;
    }
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(rejected, 1) << "burst past the depth limit must draw 429s";
  EXPECT_EQ(server.jobQueue().rejected(), static_cast<std::uint64_t>(rejected));
  server.stop();
}

TEST(ServeServer, CoalescesIdenticalAlgebraicJobs) {
  serve::Server server(testConfig());
  server.start();
  serve::Client client = connectTo(server);
  const qc::Circuit circuit = algos::grover({6, 9, 0});
  ASSERT_TRUE(openSession(client, "a", "alg", circuit.qubits()).getBool("ok"));
  ASSERT_TRUE(openSession(client, "b", "alg", circuit.qubits()).getBool("ok"));
  serve::json::Value run = makeRequest("run");
  run.set("session", "a");
  run.set("circuit", circuit.toText());
  run.set("snapshot", true);
  const serve::json::Value first = client.call(run);
  ASSERT_TRUE(first.getBool("ok"));
  EXPECT_FALSE(first.getBool("cached"));
  // Same circuit on a DIFFERENT session: exactness makes the cached result
  // valid regardless of which session computed it.
  serve::json::Value again = makeRequest("run");
  again.set("session", "b");
  again.set("circuit", circuit.toText());
  again.set("snapshot", true);
  const serve::json::Value second = client.call(again);
  ASSERT_TRUE(second.getBool("ok"));
  EXPECT_TRUE(second.getBool("cached"));
  EXPECT_EQ(second.getString("snapshot_b64"), first.getString("snapshot_b64"))
      << "cached snapshot must be byte-identical";
  EXPECT_EQ(server.counters().resultCacheHits.load(), 1U);
  // A cached run restores the final state into the serving session, so a
  // follow-up "state" behaves exactly as after an uncached run.
  serve::json::Value state = makeRequest("state");
  state.set("session", "b");
  const serve::json::Value stateReply = client.call(state);
  ASSERT_TRUE(stateReply.getBool("ok"));
  EXPECT_EQ(stateReply.getString("snapshot_b64"), first.getString("snapshot_b64"))
      << "cached run must leave the session in the run's final state";
  // Even when the client did not ask for a snapshot payload.
  ASSERT_TRUE(openSession(client, "c", "alg", circuit.qubits()).getBool("ok"));
  serve::json::Value bare = makeRequest("run");
  bare.set("session", "c");
  bare.set("circuit", circuit.toText());
  const serve::json::Value third = client.call(bare);
  ASSERT_TRUE(third.getBool("ok"));
  EXPECT_TRUE(third.getString("snapshot_b64").empty()) << "snapshot payload stays opt-in";
  serve::json::Value stateC = makeRequest("state");
  stateC.set("session", "c");
  EXPECT_EQ(client.call(stateC).getString("snapshot_b64"), first.getString("snapshot_b64"));
  // Job-level numeric fields draw 400, not UB, on hostile values.
  serve::json::Value hostile = makeRequest("run");
  hostile.set("session", "a");
  hostile.set("circuit", circuit.toText());
  hostile.set("priority", 1e300);
  EXPECT_EQ(errorCode(client.call(hostile)), serve::kBadRequest);
  serve::json::Value negativeTrace = makeRequest("run");
  negativeTrace.set("session", "a");
  negativeTrace.set("circuit", circuit.toText());
  negativeTrace.set("trace_every", -1.0);
  EXPECT_EQ(errorCode(client.call(negativeTrace)), serve::kBadRequest);
  server.stop();
}

TEST(ServeServer, MetricsEscapeHostileSessionNames) {
  serve::Server server(testConfig());
  server.start();
  serve::Client client = connectTo(server);
  const std::string hostile = "we\"ird\nname\\x";
  ASSERT_TRUE(openSession(client, hostile, "alg", 3).getBool("ok"));
  const serve::json::Value reply = client.call(makeRequest("metrics"));
  ASSERT_TRUE(reply.getBool("ok"));
  const std::string metrics = reply.getString("metrics");
  EXPECT_NE(metrics.find("qadd_serve_session_nodes{session=\"we\\\"ird\\nname\\\\x\"}"),
            std::string::npos)
      << metrics;
  EXPECT_EQ(metrics.find("we\"ird"), std::string::npos) << "raw quote must not appear";
  // And the whole exposition parses line by line (no label value breaks it).
  for (std::size_t pos = 0; pos < metrics.size();) {
    const std::size_t end = metrics.find('\n', pos);
    ASSERT_NE(end, std::string::npos) << "exposition must end in a newline";
    pos = end + 1;
  }
  server.stop();
}

TEST(ServeServer, StateAndLoadStateRoundTrip) {
  serve::Server server(testConfig());
  server.start();
  serve::Client client = connectTo(server);
  const qc::Circuit circuit = algos::grover({5, 7, 0});
  ASSERT_TRUE(openSession(client, "src", "alg", circuit.qubits()).getBool("ok"));
  // "state" before any job is a 409.
  {
    serve::json::Value request = makeRequest("state");
    request.set("session", "src");
    EXPECT_EQ(errorCode(client.call(request)), serve::kConflict);
  }
  serve::json::Value run = makeRequest("run");
  run.set("session", "src");
  run.set("circuit", circuit.toText());
  ASSERT_TRUE(client.call(run).getBool("ok"));
  serve::json::Value state = makeRequest("state");
  state.set("session", "src");
  const serve::json::Value stateReply = client.call(state);
  ASSERT_TRUE(stateReply.getBool("ok"));
  const std::string blob = stateReply.getString("snapshot_b64");
  ASSERT_FALSE(blob.empty());
  // Upload into a fresh session; its state snapshot must match byte for byte.
  ASSERT_TRUE(openSession(client, "dst", "alg", circuit.qubits()).getBool("ok"));
  serve::json::Value load = makeRequest("loadstate");
  load.set("session", "dst");
  load.set("qdds_b64", blob);
  ASSERT_TRUE(client.call(load).getBool("ok"));
  serve::json::Value state2 = makeRequest("state");
  state2.set("session", "dst");
  EXPECT_EQ(client.call(state2).getString("snapshot_b64"), blob);
  server.stop();
}

TEST(ServeServer, RunBytesIndependentOfWorkerCount) {
  // Jobs are the daemon's unit of parallelism: every session owns its
  // package, so running several sessions at once on more workers must not
  // change a single output byte.  The result cache is off so every session
  // computes its own run.
  struct Job {
    std::string session;
    std::string system;
    qc::Circuit circuit;
  };
  const std::vector<Job> jobs{
      {"alg6", "alg", algos::grover({6, 9, 0})}, {"alg7", "alg", algos::grover({7, 100, 0})},
      {"num6", "num", algos::grover({6, 9, 0})}, {"num7", "num", algos::grover({7, 100, 0})}};
  struct Reply {
    std::string snapshot;
    std::size_t nodes = 0;
    bool operator==(const Reply&) const = default;
  };
  const auto runAll = [&jobs](std::size_t workers) {
    serve::ServerConfig config = testConfig();
    config.workers = workers;
    config.resultCacheEntries = 0;
    serve::Server server(config);
    server.start();
    std::vector<Reply> replies(jobs.size());
    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      clients.emplace_back([&server, &job = jobs[i], &reply = replies[i]] {
        serve::Client client = connectTo(server);
        if (!openSession(client, job.session, job.system, job.circuit.qubits()).getBool("ok")) {
          return; // leaves an empty reply, which the comparison below reports
        }
        serve::json::Value run = makeRequest("run");
        run.set("session", job.session);
        run.set("circuit", job.circuit.toText());
        run.set("snapshot", true);
        const serve::json::Value result = client.call(run);
        if (result.getBool("ok")) {
          reply = {result.getString("snapshot_b64"),
                   static_cast<std::size_t>(result.getNumber("nodes"))};
        }
      });
    }
    for (std::thread& client : clients) {
      client.join();
    }
    server.stop();
    return replies;
  };
  const std::vector<Reply> serial = runAll(1);
  const std::vector<Reply> parallel = runAll(4);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_FALSE(serial[i].snapshot.empty()) << jobs[i].session;
    EXPECT_GT(serial[i].nodes, 0U) << jobs[i].session;
    EXPECT_EQ(parallel[i], serial[i]) << jobs[i].session << ": run bytes moved with workers";
  }
}

TEST(ServeServer, RepeatedControlQubitIsAStructuredError) {
  serve::Server server(testConfig());
  server.start();
  serve::Client client = connectTo(server);
  ASSERT_TRUE(openSession(client, "dup", "alg", 3).getBool("ok"));
  serve::json::Value text = makeRequest("run");
  text.set("session", "dup");
  text.set("circuit", "qubits 3\nx q0\nx q2 ctrl q0 nctrl q0\n");
  const serve::json::Value textReply = client.call(text);
  EXPECT_FALSE(textReply.getBool("ok"));
  EXPECT_EQ(errorCode(textReply), serve::kBadRequest);
  EXPECT_NE(textReply.find("error")->getString("message").find("control qubit repeated"),
            std::string::npos);

  serve::json::Value qasm = makeRequest("run");
  qasm.set("session", "dup");
  qasm.set("qasm", "OPENQASM 2.0;\nqreg q[3];\nx q[0];\nccx q[0], q[0], q[2];\n");
  const serve::json::Value qasmReply = client.call(qasm);
  EXPECT_FALSE(qasmReply.getBool("ok"));
  EXPECT_EQ(errorCode(qasmReply), serve::kBadRequest);
  EXPECT_EQ(qasmReply.find("error")->getNumber("line"), 4.0);
  // The session is unharmed: a well-formed job still runs.
  serve::json::Value good = makeRequest("run");
  good.set("session", "dup");
  good.set("circuit", "qubits 3\nx q0\nx q2 ctrl q0 nctrl q1\n");
  const serve::json::Value wellFormed = client.call(good);
  EXPECT_TRUE(wellFormed.getBool("ok")) << serve::json::dump(wellFormed);
  server.stop();
}

TEST(ServeServer, ShutdownRefusesNewWorkWith503) {
  serve::Server server(testConfig());
  server.start();
  serve::Client client = connectTo(server);
  EXPECT_TRUE(client.call(makeRequest("ping")).getBool("ok"));
  std::thread stopper([&server] { server.stop(); });
  server.waitShutdown(); // stop() flips the shutdown flag before draining
  stopper.join();
  // The old connection is gone and new ones are refused.
  EXPECT_THROW((void)client.call(makeRequest("ping")), std::runtime_error);
  serve::Client late;
  EXPECT_THROW(late.connect("127.0.0.1", server.port(), 2.0), std::runtime_error);
}

} // namespace
