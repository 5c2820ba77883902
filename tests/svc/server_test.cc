#include "svc/server.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exp/runner.h"
#include "svc/client.h"
#include "svc/json.h"
#include "svc/trace.h"

namespace netd::svc {
namespace {

/// Starts a loopback-TCP server on a kernel-assigned port.
class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Server::Options opts;
    opts.endpoint.port = 0;  // kernel picks
    server_.emplace(std::move(opts));
    std::string error;
    ASSERT_TRUE(server_->start(&error)) << error;
  }

  void TearDown() override { server_->stop(); }

  Client connect() {
    std::string error;
    auto c = Client::connect(server_->endpoint(), &error);
    EXPECT_TRUE(c.has_value()) << error;
    return std::move(*c);
  }

  std::optional<Server> server_;
};

TEST_F(ServerTest, HelloCreatesThenAttaches) {
  Client a = connect();
  std::string error;
  HelloResponse h1;
  ASSERT_TRUE(expect_response(
      a.call(Request{HelloRequest{"noc", SessionConfig{}, std::nullopt}},
             &error),
      &h1, &error))
      << error;
  EXPECT_TRUE(h1.created);

  // A second connection attaches to the same session.
  Client b = connect();
  HelloResponse h2;
  error.clear();
  ASSERT_TRUE(expect_response(
      b.call(Request{HelloRequest{"noc", SessionConfig{}, std::nullopt}},
             &error),
      &h2, &error))
      << error;
  EXPECT_FALSE(h2.created);
  EXPECT_EQ(h2.config, h1.config);

  // Attaching with a different config is refused, not silently ignored.
  SessionConfig other;
  other.alarm_threshold = 7;
  const auto rsp = b.call(Request{HelloRequest{"noc", other, std::nullopt}},
                          &error);
  ASSERT_TRUE(rsp.has_value()) << error;
  const auto* err = std::get_if<ErrorResponse>(&*rsp);
  ASSERT_NE(err, nullptr);
  EXPECT_NE(err->message.find("different config"), std::string::npos);
}

TEST_F(ServerTest, ObserveWithoutSessionOrBaselineIsAnError) {
  Client c = connect();
  std::string error;
  probe::Mesh empty;

  // Unknown session.
  auto rsp = c.call(Request{ObserveRequest{"ghost", empty, std::nullopt}},
                    &error);
  ASSERT_TRUE(rsp.has_value()) << error;
  EXPECT_NE(std::get_if<ErrorResponse>(&*rsp), nullptr);

  // Known session, but no baseline installed yet. The in-process facade
  // asserts on this; the server must answer with an error instead.
  HelloResponse hello;
  error.clear();
  ASSERT_TRUE(expect_response(
      c.call(Request{HelloRequest{"s", SessionConfig{}, std::nullopt}}, &error),
      &hello, &error))
      << error;
  rsp = c.call(Request{ObserveRequest{"s", empty, std::nullopt}}, &error);
  ASSERT_TRUE(rsp.has_value()) << error;
  const auto* err = std::get_if<ErrorResponse>(&*rsp);
  ASSERT_NE(err, nullptr);
  EXPECT_NE(err->message.find("baseline"), std::string::npos);
}

/// The diagnosis graph pairs a round's paths with the baseline's by
/// index, so a round must list the baseline's (src, dst) pairs in the
/// baseline's order. A round that does not is rejected, naming the first
/// misplaced pair, and is not applied.
TEST_F(ServerTest, RoundWithPairsOutOfBaselineOrderIsRejected) {
  Client c = connect();
  std::string error;
  HelloResponse hello;
  ASSERT_TRUE(expect_response(
      c.call(Request{HelloRequest{"order", SessionConfig{}, std::nullopt}},
             &error),
      &hello, &error))
      << error;
  probe::Mesh mesh;
  for (std::size_t k = 0; k < 2; ++k) {
    probe::TracePath path;
    path.src = k;
    path.dst = 1 - k;
    path.ok = true;
    path.hops = {{"s" + std::to_string(k), graph::NodeKind::kSensor, 4,
                  topo::RouterId{}},
                 {"r1", graph::NodeKind::kRouter, 1, topo::RouterId{}},
                 {"s" + std::to_string(1 - k), graph::NodeKind::kSensor, 5,
                  topo::RouterId{}}};
    mesh.paths.push_back(std::move(path));
  }
  SetBaselineResponse base;
  ASSERT_TRUE(expect_response(
      c.call(Request{SetBaselineRequest{"order", mesh, std::nullopt}}, &error),
      &base, &error))
      << error;
  probe::Mesh swapped = mesh;
  std::swap(swapped.paths[0], swapped.paths[1]);

  auto rsp =
      c.call(Request{ObserveRequest{"order", swapped, std::nullopt}}, &error);
  ASSERT_TRUE(rsp.has_value()) << error;
  const auto* err = std::get_if<ErrorResponse>(&*rsp);
  ASSERT_NE(err, nullptr) << serialize(*rsp);
  EXPECT_EQ(err->message,
            "mesh pair 0 is (1,0) but the baseline's pair 0 is (0,1)");

  ObserveBatchRequest batch{"order", "agent-1", {}, std::nullopt};
  batch.items.push_back(ObserveItem{1, mesh, std::nullopt, std::nullopt});
  batch.items.push_back(ObserveItem{2, swapped, std::nullopt, std::nullopt});
  rsp = c.call(Request{batch}, &error);
  ASSERT_TRUE(rsp.has_value()) << error;
  err = std::get_if<ErrorResponse>(&*rsp);
  ASSERT_NE(err, nullptr) << serialize(*rsp);
  EXPECT_EQ(err->message,
            "batch item seq 2: mesh pair 0 is (1,0) but the baseline's pair "
            "0 is (0,1)");

  // Only the aligned batch item was applied.
  ObserveResponse obs;
  ASSERT_TRUE(expect_response(
      c.call(Request{ObserveRequest{"order", mesh, std::nullopt}}, &error),
      &obs, &error))
      << error;
  EXPECT_EQ(obs.round, 2u);
}

TEST_F(ServerTest, ScenarioReplayThroughSocketMatchesRecording) {
  // The acceptance property: a real scenario's recorded episodes produce
  // byte-identical diagnoses when driven through a live socket.
  exp::ScenarioConfig cfg;
  cfg.topo_params.target_ases = 40;
  cfg.topo_params.pool_stubs = 80;
  cfg.topo_params.pool_tier2 = 10;
  cfg.num_placements = 1;
  cfg.trials_per_placement = 3;
  exp::Runner runner(cfg);
  std::ostringstream os;
  SessionConfig scfg;
  scfg.alarm_threshold = 2;
  std::string error;
  ASSERT_TRUE(runner.record_trace(os, scfg, &error).has_value()) << error;

  std::istringstream is(os.str());
  const auto trace = read_trace(is, &error);
  ASSERT_TRUE(trace.has_value()) << error;

  Client c = connect();
  const ReplayResult result = replay_through(c, "replay", *trace);
  EXPECT_TRUE(result.ok()) << result.mismatches.front();
  EXPECT_GT(result.diagnoses, 0u);

  // And the session retains the last diagnosis for `query`.
  QueryResponse q;
  error.clear();
  ASSERT_TRUE(expect_response(
      c.call(Request{QueryRequest{"replay", std::nullopt}}, &error), &q,
      &error))
      << error;
  EXPECT_TRUE(q.diagnosis.has_value());
  EXPECT_GT(q.round, 0u);
}

TEST_F(ServerTest, MalformedFramesEarnErrorsNotDisconnects) {
  Client c = connect();
  std::string error;
  const std::vector<std::string> bad_frames = {
      "{ definitely not json",
      R"({"v":1,"op":"hello")",  // truncated JSON
      R"([1,2,3])",              // not an object
      R"({"v":99,"op":"query","session":"s"})",
      "",
  };
  for (const std::string& bad : bad_frames) {
    error.clear();
    const auto line = c.call_raw(bad, &error);
    ASSERT_TRUE(line.has_value()) << bad << ": " << error;
    const auto rsp = parse_response(*line, &error);
    ASSERT_TRUE(rsp.has_value()) << *line;
    EXPECT_NE(std::get_if<ErrorResponse>(&*rsp), nullptr) << *line;
  }
  // The connection survived all of it.
  StatsResponse stats;
  error.clear();
  ASSERT_TRUE(expect_response(c.call(Request{StatsRequest{}}, &error), &stats,
                              &error))
      << error;
  const auto j = Json::parse(stats.stats);
  ASSERT_TRUE(j.has_value());
  ASSERT_NE(j->find("malformed_frames"), nullptr);
  EXPECT_GE(j->find("malformed_frames")->as_int(), 5);
}

TEST(ServerTortureTest, OversizedFrameClosesOnlyThatConnection) {
  Server::Options opts;
  opts.endpoint.port = 0;
  opts.max_frame_bytes = 1024;  // small cap so the test stays cheap
  Server server(std::move(opts));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  auto victim = Client::connect(server.endpoint(), &error);
  ASSERT_TRUE(victim.has_value()) << error;
  const std::string huge(4096, 'x');
  const auto line = victim->call_raw(huge, &error);
  if (line.has_value()) {  // the error response may or may not outrun close
    const auto rsp = parse_response(*line, &error);
    ASSERT_TRUE(rsp.has_value()) << *line;
    EXPECT_NE(std::get_if<ErrorResponse>(&*rsp), nullptr);
  }
  // The stream cannot be resynchronized, so the server closed it.
  error.clear();
  const auto after = victim->call_raw(R"({"v":1,"op":"stats"})", &error);
  EXPECT_FALSE(after.has_value());

  // Other connections are unaffected.
  auto fresh = Client::connect(server.endpoint(), &error);
  ASSERT_TRUE(fresh.has_value()) << error;
  StatsResponse stats;
  error.clear();
  ASSERT_TRUE(expect_response(fresh->call(Request{StatsRequest{}}, &error),
                              &stats, &error))
      << error;
  const auto j = Json::parse(stats.stats);
  ASSERT_TRUE(j.has_value());
  EXPECT_GE(j->find("oversized_frames")->as_int(), 1);
  server.stop();
}

TEST_F(ServerTest, MidRequestDisconnectIsCountedAndHarmless) {
  {
    std::string error;
    Fd fd = connect_to(server_->endpoint(), &error);
    ASSERT_TRUE(fd.valid()) << error;
    // Half a frame, no newline, then vanish.
    ASSERT_TRUE(write_all(fd.get(), R"({"v":1,"op":"hel)"));
  }  // fd closes here

  // The disconnect is asynchronous; poll the metric.
  std::string error;
  Client c = connect();
  bool seen = false;
  for (int i = 0; i < 100 && !seen; ++i) {
    StatsResponse stats;
    error.clear();
    ASSERT_TRUE(expect_response(c.call(Request{StatsRequest{}}, &error),
                                &stats, &error))
        << error;
    const auto j = Json::parse(stats.stats);
    ASSERT_TRUE(j.has_value());
    seen = j->find("disconnects_mid_request")->as_int() >= 1;
    if (!seen) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(seen);
}

TEST_F(ServerTest, TwelveConcurrentSessionsMakeProgress) {
  constexpr int kClients = 12;  // > the server's 8 workers: some must queue
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([this, i, &failures] {
      std::string error;
      auto c = Client::connect(server_->endpoint(), &error);
      if (!c.has_value()) {
        ++failures;
        return;
      }
      const std::string session = "s" + std::to_string(i);
      // A healthy one-pair mesh: rounds roll the baseline forward and
      // never alarm, which is all this test needs — it is about
      // concurrency, not diagnosis.
      probe::Mesh mesh;
      probe::TracePath path;
      path.src = 0;
      path.dst = 1;
      path.ok = true;
      path.hops = {{"s0", graph::NodeKind::kSensor, 4, topo::RouterId{}},
                   {"s1", graph::NodeKind::kSensor, 5, topo::RouterId{}}};
      mesh.paths.push_back(std::move(path));
      HelloResponse hello;
      SetBaselineResponse base;
      if (!expect_response(
              c->call(
                  Request{HelloRequest{session, SessionConfig{}, std::nullopt}},
                  &error),
              &hello, &error) ||
          !expect_response(
              c->call(Request{SetBaselineRequest{session, mesh, std::nullopt}},
                      &error),
              &base, &error)) {
        ++failures;
        return;
      }
      for (int r = 0; r < 5; ++r) {
        ObserveResponse obs;
        error.clear();
        if (!expect_response(
                c->call(Request{ObserveRequest{session, mesh, std::nullopt}},
                        &error),
                &obs, &error)) {
          ++failures;
          return;
        }
      }
      QueryResponse q;
      error.clear();
      if (!expect_response(
              c->call(Request{QueryRequest{session, std::nullopt}}, &error),
              &q, &error)) {
        ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  std::string error;
  Client c = connect();
  StatsResponse stats;
  ASSERT_TRUE(expect_response(c.call(Request{StatsRequest{}}, &error), &stats,
                              &error))
      << error;
  const auto j = Json::parse(stats.stats);
  ASSERT_TRUE(j.has_value());
  EXPECT_GE(j->find("sessions_created")->as_int(), kClients);
  const Json* ops = j->find("ops");
  ASSERT_NE(ops, nullptr);
  ASSERT_NE(ops->find("observe"), nullptr);
  EXPECT_GE(ops->find("observe")->find("count")->as_int(), 5 * kClients);
}

TEST_F(ServerTest, ShutdownOpStopsTheServer) {
  Client c = connect();
  std::string error;
  ShutdownResponse rsp;
  ASSERT_TRUE(expect_response(c.call(Request{ShutdownRequest{}}, &error), &rsp,
                              &error))
      << error;
  server_->wait();  // returns because the shutdown op fired
}

TEST(ServerIdleTimeoutTest, StalledConnectionsCannotStarveFreshClients) {
  // The slow-loris acceptance test: every worker is pinned by a peer that
  // sent half a frame and went quiet. With an idle deadline the workers
  // free themselves and a fresh client is served within the budget.
  Server::Options opts;
  opts.endpoint.port = 0;
  opts.num_threads = 2;
  opts.idle_timeout_ms = 300;
  Server server(std::move(opts));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  std::vector<Fd> stalled;
  for (std::size_t i = 0; i < 2; ++i) {  // one per worker
    Fd fd = connect_to(server.endpoint(), &error);
    ASSERT_TRUE(fd.valid()) << error;
    ASSERT_TRUE(write_all(fd.get(), R"({"v":1,"op":"sta)"));  // no newline
    stalled.push_back(std::move(fd));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const auto start = std::chrono::steady_clock::now();
  auto fresh = Client::connect(server.endpoint(), &error);
  ASSERT_TRUE(fresh.has_value()) << error;
  StatsResponse stats;
  ASSERT_TRUE(expect_response(fresh->call(Request{StatsRequest{}}, &error),
                              &stats, &error))
      << error;
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  // Served as soon as a stalled peer hit its deadline, well before any
  // blocking-forever failure mode (the test itself would hang).
  EXPECT_LT(waited.count(), 5000);

  const auto j = Json::parse(stats.stats);
  ASSERT_TRUE(j.has_value());
  ASSERT_NE(j->find("idle_timeouts"), nullptr);
  EXPECT_GE(j->find("idle_timeouts")->as_int(), 1);
  server.stop();
}

TEST(ServerUnixSocketTest, StaleSocketFileIsReclaimedOnStart) {
  // A killed daemon leaves its socket file behind; a restart must detect
  // that nothing answers on it and rebind instead of failing.
  const std::string path = ::testing::TempDir() + "svc_stale.sock";
  ::unlink(path.c_str());
  {
    Endpoint ep;
    ep.kind = Endpoint::Kind::kUnix;
    ep.path = path;
    std::string error;
    Fd listener = listen_on(ep, &error);
    ASSERT_TRUE(listener.valid()) << error;
  }  // closed WITHOUT unlink: the file stays, dead

  Server::Options opts;
  opts.endpoint.kind = Endpoint::Kind::kUnix;
  opts.endpoint.path = path;
  Server server(std::move(opts));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  auto c = Client::connect(server.endpoint(), &error);
  ASSERT_TRUE(c.has_value()) << error;
  StatsResponse stats;
  ASSERT_TRUE(expect_response(c->call(Request{StatsRequest{}}, &error), &stats,
                              &error))
      << error;
  server.stop();
}

TEST(ServerUnixSocketTest, LiveSocketIsNeverClobbered) {
  const std::string path = ::testing::TempDir() + "svc_live.sock";
  ::unlink(path.c_str());
  Server::Options opts;
  opts.endpoint.kind = Endpoint::Kind::kUnix;
  opts.endpoint.path = path;
  Server first(std::move(opts));
  std::string error;
  ASSERT_TRUE(first.start(&error)) << error;

  Server::Options opts2;
  opts2.endpoint.kind = Endpoint::Kind::kUnix;
  opts2.endpoint.path = path;
  Server second(std::move(opts2));
  EXPECT_FALSE(second.start(&error));
  EXPECT_NE(error.find("live server"), std::string::npos) << error;

  // The first server is unharmed.
  auto c = Client::connect(first.endpoint(), &error);
  ASSERT_TRUE(c.has_value()) << error;
  StatsResponse stats;
  ASSERT_TRUE(expect_response(c->call(Request{StatsRequest{}}, &error), &stats,
                              &error))
      << error;
  first.stop();
}

TEST(ServerUnixSocketTest, ServesOverUnixDomainSocket) {
  Server::Options opts;
  opts.endpoint.kind = Endpoint::Kind::kUnix;
  opts.endpoint.path = ::testing::TempDir() + "svc_test.sock";
  Server server(std::move(opts));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  auto c = Client::connect(server.endpoint(), &error);
  ASSERT_TRUE(c.has_value()) << error;
  HelloResponse hello;
  ASSERT_TRUE(expect_response(
      c->call(Request{HelloRequest{"u", SessionConfig{}, std::nullopt}},
              &error),
      &hello, &error))
      << error;
  EXPECT_TRUE(hello.created);
  server.stop();
}

TEST(ServerLatencyMetricsTest, StatsReportLatencyPercentilesPerOp) {
  Server::Options opts;
  opts.endpoint.port = 0;
  Server server(std::move(opts));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  auto c = Client::connect(server.endpoint(), &error);
  ASSERT_TRUE(c.has_value()) << error;
  for (int i = 0; i < 3; ++i) {
    StatsResponse stats;
    error.clear();
    ASSERT_TRUE(expect_response(c->call(Request{StatsRequest{}}, &error),
                                &stats, &error))
        << error;
  }
  StatsResponse stats;
  error.clear();
  ASSERT_TRUE(expect_response(c->call(Request{StatsRequest{}}, &error), &stats,
                              &error))
      << error;
  const auto j = Json::parse(stats.stats);
  ASSERT_TRUE(j.has_value()) << stats.stats;
  const Json* op = j->find("ops")->find("stats");
  ASSERT_NE(op, nullptr) << stats.stats;
  EXPECT_GE(op->find("count")->as_int(), 3);
  const Json* lat = op->find("lat_us");
  ASSERT_NE(lat, nullptr);
  for (const char* q : {"p50", "p90", "p99", "max"}) {
    ASSERT_NE(lat->find(q), nullptr) << q;
    EXPECT_GT(lat->find(q)->as_double(), 0.0) << q;
  }
  server.stop();
}

}  // namespace
}  // namespace netd::svc
