#include "svc/fault.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "svc/client.h"
#include "svc/json.h"
#include "svc/server.h"
#include "svc/trace.h"

namespace netd::svc {
namespace {

TEST(FaultPlanTest, DefaultPlanIsDisabledChaosIsNot) {
  EXPECT_FALSE(FaultPlan{}.enabled());
  EXPECT_TRUE(FaultPlan::chaos(1).enabled());
}

TEST(FaultInjectorTest, SameSeedSameFrameSequenceSameFaults) {
  // The whole point of the harness: a soak is replayable from its seed.
  const auto run = [](std::uint64_t seed) {
    int sp[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
    FaultInjector inj(FaultPlan::chaos(seed));
    for (int i = 0; i < 200; ++i) {
      const std::string frame =
          "{\"v\":1,\"op\":\"query\",\"session\":\"s" + std::to_string(i) +
          "\"}\n";
      (void)inj.write_frame(sp[0], frame);
      // Drain so the kernel buffer never backpressures the writer.
      char buf[256];
      while (::recv(sp[1], buf, sizeof buf, MSG_DONTWAIT) > 0) {
      }
    }
    ::close(sp[0]);
    ::close(sp[1]);
    return inj.counters();
  };
  const FaultCounters a = run(42);
  const FaultCounters b = run(42);
  EXPECT_EQ(a.delays, b.delays);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.truncations, b.truncations);
  EXPECT_EQ(a.corruptions, b.corruptions);
  EXPECT_EQ(a.resets, b.resets);
  // The chaos mix is aggressive enough that 200 frames always draw faults.
  EXPECT_GT(a.total(), 0u);
}

TEST(FaultInjectorTest, PassThroughWhenPlanDisabled) {
  int sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
  FaultInjector inj(FaultPlan{});
  const std::string frame = "{\"v\":1,\"op\":\"stats\"}\n";
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(inj.write_frame(sp[0], frame));
    char buf[64];
    ASSERT_EQ(::recv(sp[1], buf, sizeof buf, 0),
              static_cast<ssize_t>(frame.size()));
    EXPECT_EQ(std::string(buf, frame.size()), frame);
  }
  EXPECT_EQ(inj.counters().total(), 0u);
  ::close(sp[0]);
  ::close(sp[1]);
}

/// Records one small scenario trace (same shape as the server replay
/// test) to drive the soak with: 24 trials, enough requests that chaos
/// fires on both sides at every seed.
std::string record_soak_trace() {
  exp::ScenarioConfig cfg;
  cfg.topo_params.target_ases = 40;
  cfg.topo_params.pool_stubs = 80;
  cfg.topo_params.pool_tier2 = 10;
  cfg.num_placements = 1;
  cfg.trials_per_placement = 24;
  exp::Runner runner(cfg);
  std::ostringstream os;
  SessionConfig scfg;
  scfg.alarm_threshold = 2;
  std::string error;
  EXPECT_TRUE(runner.record_trace(os, scfg, &error).has_value()) << error;
  return os.str();
}

// The acceptance property of the whole robustness layer: with seeded
// faults mangling frames in BOTH directions, a retrying client still
// replays the full recorded stream, and every surviving diagnosis is
// byte-identical to the recording (replay_through compares them). Faults
// must actually fire, and both sides must report their counts.
TEST(ChaosSoakTest, ReplayThroughFaultyLinkMatchesRecording) {
  const std::string trace_text = record_soak_trace();
  std::istringstream is(trace_text);
  std::string error;
  const auto trace = read_trace(is, &error);
  ASSERT_TRUE(trace.has_value()) << error;
  // FaultPlan::chaos fires on ~23% of frames, so a side that carries 60
  // frames sees none with probability 0.77^60 ~ 1.5e-7: both firing
  // checks below hold on every seed of a sweep. A replay sends one hello
  // and one request per baseline and round record.
  const auto requests = 1 + std::count_if(
      trace->begin(), trace->end(), [](const TraceRecord& rec) {
        return rec.type == TraceRecord::Type::kBaseline ||
               rec.type == TraceRecord::Type::kRound;
      });
  ASSERT_GE(requests, 60) << "the soak trace is too short to fire reliably";

  std::vector<std::uint64_t> seeds = {1, 7, 1337};
  if (const char* env = std::getenv("ND_CHAOS_SEED"); env != nullptr) {
    seeds = {std::strtoull(env, nullptr, 10)};
  }
  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Server::Options sopts;
    sopts.endpoint.port = 0;
    sopts.idle_timeout_ms = 2000;  // reap connections chaos killed
    sopts.fault_plan = FaultPlan::chaos(seed + 1);
    Server server(std::move(sopts));
    ASSERT_TRUE(server.start(&error)) << error;

    Client::Options copts;
    copts.connect_timeout_ms = 2000;
    copts.request_timeout_ms = 5000;
    copts.max_retries = 40;
    copts.backoff_base_ms = 2;
    copts.backoff_max_ms = 50;
    copts.seed = seed;
    copts.fault_plan = FaultPlan::chaos(seed + 2);
    auto client = Client::connect(server.endpoint(), copts, &error);
    ASSERT_TRUE(client.has_value()) << error;

    const ReplayResult result = replay_through(*client, "chaos", *trace);
    EXPECT_TRUE(result.ok()) << result.mismatches.front();
    EXPECT_GT(result.diagnoses, 0u);
    EXPECT_GT(client->fault_counters().total(), 0u)
        << "client chaos never fired";

    // Server-side injected faults are visible through the stats document.
    const auto stats = Json::parse(server.stats_json());
    ASSERT_TRUE(stats.has_value());
    const Json* faults = stats->find("faults");
    ASSERT_NE(faults, nullptr) << server.stats_json();
    std::uint64_t total = 0;
    for (const char* k :
         {"delays", "drops", "truncations", "corruptions", "resets"}) {
      ASSERT_NE(faults->find(k), nullptr) << k;
      total += static_cast<std::uint64_t>(faults->find(k)->as_int());
    }
    EXPECT_GT(total, 0u) << "server chaos never fired";
    server.stop();
  }
}

}  // namespace
}  // namespace netd::svc
