// agent::Agent against an in-process server: the durable ship loop, the
// exactly-once redelivery contract, server-amnesia recovery, and
// independent per-source watermarks.
#include "agent/agent.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "agent/spool.h"
#include "svc/client.h"
#include "svc/fault.h"
#include "svc/json.h"
#include "svc/server.h"

namespace netd::agent {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string d = ::testing::TempDir() + "/" + name;
  const std::string cmd = "rm -rf '" + d + "'";
  [[maybe_unused]] const int rc = std::system(cmd.c_str());
  return d;
}

/// Small deterministic fleet config: 5 sensors over a 30-AS world, 6
/// rounds with a persistent failure at round 3, alarm threshold 2 — the
/// failure fires a diagnosis well inside the run.
AgentConfig small_config(const std::string& endpoint,
                         const std::string& spool_dir) {
  AgentConfig cfg;
  cfg.endpoint = endpoint;
  cfg.spool_dir = spool_dir;
  cfg.ases = 30;
  cfg.stubs = 60;
  cfg.tier2 = 8;
  cfg.sensors = 5;
  cfg.rounds = 6;
  cfg.fail_round = 3;
  cfg.alarm_threshold = 2;
  cfg.batch_max_items = 2;  // exercise multi-batch draining
  cfg.client.connect_timeout_ms = 2000;
  cfg.client.request_timeout_ms = 20000;
  cfg.client.max_retries = 3;
  cfg.client.backoff_base_ms = 5;
  cfg.client.backoff_max_ms = 50;
  return cfg;
}

class AgentTest : public ::testing::Test {
 protected:
  void SetUp() override { start_server(); }
  void TearDown() override {
    if (server_.has_value()) server_->stop();
  }

  /// Default: loopback TCP on a kernel-picked port. A test that must
  /// restart the server on a STABLE endpoint passes a unix-socket spec;
  /// `plan` injects server-side wire faults (e.g. delays to pace a run).
  void start_server(const std::string& spec = "",
                    const svc::FaultPlan& plan = {}) {
    if (server_.has_value()) server_->stop();
    svc::Server::Options opts;
    std::string error;
    if (spec.empty()) {
      opts.endpoint.port = 0;  // kernel picks a loopback port
    } else {
      const auto ep = svc::Endpoint::parse(spec, &error);
      ASSERT_TRUE(ep.has_value()) << error;
      opts.endpoint = *ep;
    }
    opts.fault_plan = plan;
    server_.emplace(std::move(opts));
    ASSERT_TRUE(server_->start(&error)) << error;
    endpoint_ = server_->endpoint().to_string();
  }

  /// Watermark probe straight from the test: the server's view of
  /// (session, src) — ack, round counter, alarm state.
  svc::ObserveBatchResponse probe(const std::string& session,
                                  const std::string& src) {
    std::string error;
    auto c = svc::Client::connect(server_->endpoint(), &error);
    EXPECT_TRUE(c.has_value()) << error;
    svc::ObserveBatchResponse rsp;
    EXPECT_TRUE(svc::expect_response(
        c->call(svc::Request{svc::ObserveBatchRequest{session, src, {},
                                                      std::nullopt}},
                &error),
        &rsp, &error))
        << error;
    return rsp;
  }

  /// Error-tolerant round poll for watching a live agent from outside:
  /// any failure (session not yet helloed, server restarting) reads as 0.
  std::uint64_t poll_round(const std::string& session,
                           const std::string& src) {
    std::string error;
    auto c = svc::Client::connect(server_->endpoint(), &error);
    if (!c.has_value()) return 0;
    svc::ObserveBatchResponse rsp;
    if (!svc::expect_response(
            c->call(svc::Request{svc::ObserveBatchRequest{session, src, {},
                                                          std::nullopt}},
                    &error),
            &rsp, &error)) {
      return 0;
    }
    return rsp.round;
  }

  std::optional<std::string> query_diagnosis(const std::string& session) {
    std::string error;
    auto c = svc::Client::connect(server_->endpoint(), &error);
    EXPECT_TRUE(c.has_value()) << error;
    svc::QueryResponse rsp;
    EXPECT_TRUE(svc::expect_response(
        c->call(svc::Request{svc::QueryRequest{session, std::nullopt}}, &error),
        &rsp, &error))
        << error;
    return rsp.diagnosis;
  }

  std::optional<svc::Server> server_;
  std::string endpoint_;
};

TEST_F(AgentTest, ShipsAllRoundsAndDiagnoses) {
  const AgentConfig cfg =
      small_config(endpoint_, fresh_dir("netd_agent_ship"));
  Agent a(cfg);
  std::string error;
  ASSERT_EQ(a.run(&error), Agent::kExitOk) << error;
  const auto& s = a.summary();
  EXPECT_EQ(s.spooled, 6u);
  EXPECT_EQ(s.generated, 6u);
  EXPECT_EQ(s.acked, 6u);
  EXPECT_EQ(s.applied, 6u);
  EXPECT_EQ(s.deduped, 0u);
  EXPECT_EQ(s.round, 6u);
  EXPECT_EQ(s.batches, 3u);  // 6 rounds / batch_max_items 2
  EXPECT_TRUE(s.alarmed);
  ASSERT_TRUE(s.diagnosis.has_value());

  const auto server_view = probe(cfg.session, cfg.name);
  EXPECT_EQ(server_view.ack, 6u);
  EXPECT_EQ(server_view.round, 6u);
  EXPECT_EQ(query_diagnosis(cfg.session), s.diagnosis);
}

TEST_F(AgentTest, RedeliveryAfterLostAckIsDedupedExactlyOnce) {
  const std::string dir = fresh_dir("netd_agent_redeliver");
  const AgentConfig cfg = small_config(endpoint_, dir);
  std::string error;
  {
    Agent a(cfg);
    ASSERT_EQ(a.run(&error), Agent::kExitOk) << error;
  }
  // Crash window: the server applied everything but the agent died before
  // persisting its ship watermark. Deleting MANIFEST reproduces it.
  ASSERT_EQ(std::remove((dir + "/MANIFEST").c_str()), 0);
  {
    // The next incarnation opens believing nothing was shipped, probes
    // the server's watermark first, learns everything already landed,
    // and redelivers nothing at all.
    Agent again(cfg);
    ASSERT_EQ(again.run(&error), Agent::kExitOk) << error;
    const auto& s = again.summary();
    EXPECT_EQ(s.generated, 0u);  // rounds recovered from the spool
    EXPECT_EQ(s.applied, 0u);    // nothing fed twice
    EXPECT_EQ(s.acked, 6u);
  }
  // The harsher window: a redelivery that bypasses the probe because the
  // batch was already in flight when its ack was lost. Replay the spool
  // verbatim — the server must recognize every record and apply none.
  Spool::Options sopts;
  sopts.dir = dir;
  const auto spool = Spool::open(sopts, &error);
  ASSERT_NE(spool, nullptr) << error;
  svc::ObserveBatchRequest dup{cfg.session, cfg.name, {}, std::nullopt};
  ASSERT_TRUE(spool->for_each(
      0,
      [&](std::uint64_t seq, std::string_view payload) {
        const auto doc = svc::Json::parse(std::string(payload));
        EXPECT_TRUE(doc.has_value());
        const svc::Json* mesh =
            doc.has_value() ? doc->find("mesh") : nullptr;
        EXPECT_NE(mesh, nullptr);
        std::string merror;
        auto m = svc::mesh_from_json(*mesh, &merror);
        EXPECT_TRUE(m.has_value()) << merror;
        dup.items.push_back({seq, std::move(*m), std::nullopt, std::nullopt});
        return true;
      },
      &error))
      << error;
  ASSERT_EQ(dup.items.size(), 6u);
  auto c = svc::Client::connect(server_->endpoint(), &error);
  ASSERT_TRUE(c.has_value()) << error;
  svc::ObserveBatchResponse rsp;
  ASSERT_TRUE(svc::expect_response(
      c->call(svc::Request{std::move(dup)}, &error), &rsp, &error))
      << error;
  EXPECT_EQ(rsp.applied, 0u);   // nothing fed twice
  EXPECT_EQ(rsp.deduped, 6u);   // every record recognized as redelivery
  EXPECT_EQ(rsp.ack, 6u);
  // The troubleshooter saw exactly six rounds, not twelve.
  EXPECT_EQ(rsp.round, 6u);
}

TEST_F(AgentTest, ResumeAfterPartialShipOnlyShipsTheRemainder) {
  const std::string dir = fresh_dir("netd_agent_resume");
  AgentConfig cfg = small_config(endpoint_, dir);
  std::string error;
  {
    // First incarnation dies after measuring everything but shipping
    // nothing (generate_only models the kill between spool and ship).
    AgentConfig gen = cfg;
    gen.generate_only = true;
    Agent a(gen);
    ASSERT_EQ(a.run(&error), Agent::kExitOk) << error;
    EXPECT_EQ(a.summary().spooled, 6u);
  }
  Agent b(cfg);
  ASSERT_EQ(b.run(&error), Agent::kExitOk) << error;
  EXPECT_EQ(b.summary().generated, 0u);
  EXPECT_EQ(b.summary().applied, 6u);
  EXPECT_EQ(b.summary().recovery.records, 6u);
  EXPECT_EQ(probe(cfg.session, cfg.name).round, 6u);
}

TEST_F(AgentTest, ServerAmnesiaBetweenRunsReshipsByteIdentically) {
  const std::string dir = fresh_dir("netd_agent_amnesia");
  AgentConfig cfg = small_config(endpoint_, dir);
  std::string error;
  {
    Agent a(cfg);
    ASSERT_EQ(a.run(&error), Agent::kExitOk) << error;
  }
  const auto first = query_diagnosis(cfg.session);
  ASSERT_TRUE(first.has_value());

  // The server loses everything (restart / failover to an empty replica).
  start_server();
  cfg.endpoint = endpoint_;

  // The next incarnation's startup hello recreates the session; the
  // watermark probe reads 0 in the fresh epoch, so the whole retained
  // spool is re-shipped.
  Agent b(cfg);
  ASSERT_EQ(b.run(&error), Agent::kExitOk) << error;
  EXPECT_EQ(b.summary().applied, 6u);  // fresh epoch: all six re-applied
  const auto view = probe(cfg.session, cfg.name);
  EXPECT_EQ(view.ack, 6u);
  EXPECT_EQ(view.round, 6u);
  // The reconstructed session converges on the byte-identical diagnosis.
  EXPECT_EQ(query_diagnosis(cfg.session), first);
}

TEST_F(AgentTest, MidRunAmnesiaTriggersRehelloAndConverges) {
  // The restart must land MID-ship to exercise the unknown_session →
  // re-hello path, so this server lives on a STABLE unix endpoint (a
  // TCP port-0 restart would move the port under the agent) and delays
  // every response to pace the ship loop wide enough to yank it.
  const std::string sock = ::testing::TempDir() + "/netd_agent_yank.sock";
  std::remove(sock.c_str());
  svc::FaultPlan slow;
  slow.delay_prob = 1.0;
  slow.delay_ms = 25;
  start_server("unix:" + sock, slow);

  AgentConfig cfg = small_config(endpoint_, fresh_dir("netd_agent_yank"));
  cfg.rounds = 12;
  cfg.batch_max_items = 1;  // one round per exchange: many restart windows
  cfg.client.max_retries = 8;
  cfg.client.backoff_max_ms = 100;

  // Reference diagnosis from an untortured twin in its own session.
  AgentConfig ref = cfg;
  ref.spool_dir = fresh_dir("netd_agent_yank_ref");
  ref.session = "fleet-ref";
  std::string error;
  Agent r(ref);
  ASSERT_EQ(r.run(&error), Agent::kExitOk) << error;
  const auto reference = query_diagnosis(ref.session);
  ASSERT_TRUE(reference.has_value());

  // Ship in a background thread; once rounds are landing, restart the
  // server with total state loss while batches are still in flight.
  Agent a(cfg);
  std::string agent_error;
  int code = -1;
  std::thread shipper([&] { code = a.run(&agent_error); });
  while (poll_round(cfg.session, cfg.name) < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  start_server("unix:" + sock, slow);  // empty state: total amnesia
  shipper.join();
  ASSERT_EQ(code, Agent::kExitOk) << agent_error;

  // The agent hit unknown_session mid-stream, re-helloed, re-installed
  // the baseline and re-shipped the retained spool into the new epoch.
  EXPECT_GE(a.summary().rehellos, 1u);
  const auto view = probe(cfg.session, cfg.name);
  EXPECT_EQ(view.ack, 12u);
  EXPECT_EQ(view.round, 12u);
  EXPECT_EQ(query_diagnosis(cfg.session), reference);
}

TEST_F(AgentTest, TwoSourcesKeepIndependentWatermarks) {
  AgentConfig a_cfg =
      small_config(endpoint_, fresh_dir("netd_agent_src_a"));
  a_cfg.name = "sensor-a";
  AgentConfig b_cfg =
      small_config(endpoint_, fresh_dir("netd_agent_src_b"));
  b_cfg.name = "sensor-b";
  // Same session: both agents feed one troubleshooter.
  std::string error;
  Agent a(a_cfg);
  ASSERT_EQ(a.run(&error), Agent::kExitOk) << error;
  Agent b(b_cfg);
  ASSERT_EQ(b.run(&error), Agent::kExitOk) << error;

  const auto view_a = probe(a_cfg.session, "sensor-a");
  const auto view_b = probe(a_cfg.session, "sensor-b");
  EXPECT_EQ(view_a.ack, 6u);
  EXPECT_EQ(view_b.ack, 6u);
  // The session round counter saw both streams; the watermarks did not
  // collide.
  EXPECT_EQ(view_a.round, 12u);
  // An unknown source starts at watermark zero.
  EXPECT_EQ(probe(a_cfg.session, "sensor-z").ack, 0u);
}

TEST_F(AgentTest, UnreachableServerSpoolsAndExitsRetriable) {
  AgentConfig cfg = small_config("127.0.0.1:1",  // nothing listens there
                                 fresh_dir("netd_agent_unreach"));
  cfg.client.max_retries = 1;
  cfg.client.connect_timeout_ms = 200;
  cfg.ship_max_failures = 2;
  Agent a(cfg);
  std::string error;
  EXPECT_EQ(a.run(&error), Agent::kExitUnreachable);
  EXPECT_FALSE(error.empty());
  // Everything measured is safely on disk, ready for the next attempt.
  EXPECT_EQ(a.summary().spooled, 6u);
}

}  // namespace
}  // namespace netd::agent
