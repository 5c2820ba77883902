// The sensor-fleet chaos soak (the PR's headline integration test).
//
// N=3 netdiag-agent processes — real fork/exec of the shipped binary —
// feed one diagnosis server while everything that can go wrong does:
// the server injects seeded response faults (FaultInjector), the agents
// inject seeded request faults, agent processes are SIGKILLed mid-flight
// and re-run, and the server itself is restarted with total state loss.
// The durability contract under test: after the dust settles, every
// session holds EXACTLY its agent's rounds (zero lost, zero duplicated —
// the round counter equals the round count, the ack watermark equals the
// last seq) and the final diagnosis is byte-identical to a fault-free
// reference run.
//
// Seeded via ND_AGENT_SEED (default 1); CI soaks seeds {1, 7, 1337}
// under TSan. Override the agent binary with ND_AGENT_BIN.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "svc/client.h"
#include "svc/fault.h"
#include "svc/server.h"
#include "util/rng.h"

namespace netd::agent {
namespace {

#ifndef NETDIAG_AGENT_BIN
#define NETDIAG_AGENT_BIN ""
#endif

std::string agent_bin() {
  if (const char* env = std::getenv("ND_AGENT_BIN"); env != nullptr) {
    return env;
  }
  return NETDIAG_AGENT_BIN;
}

std::uint64_t chaos_seed() {
  if (const char* env = std::getenv("ND_AGENT_SEED"); env != nullptr) {
    return std::strtoull(env, nullptr, 10);
  }
  return 1;
}

constexpr std::size_t kAgents = 3;
constexpr std::size_t kRounds = 5;

struct RunResult {
  bool exited = false;  ///< false = killed by a signal
  int code = -1;
};

/// fork/exec the agent binary; SIGKILL it after `kill_after_ms` (< 0 =
/// let it finish). Child stdio goes to /dev/null — the summaries of
/// dozens of incarnations are noise; the server-side probes are the
/// assertions.
RunResult run_agent(const std::vector<std::string>& args, int kill_after_ms) {
  const std::string bin = agent_bin();
  std::vector<const char*> argv;
  argv.push_back(bin.c_str());
  for (const auto& a : args) argv.push_back(a.c_str());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid == 0) {
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      ::dup2(devnull, STDOUT_FILENO);
      ::dup2(devnull, STDERR_FILENO);
      ::close(devnull);
    }
    ::execv(bin.c_str(), const_cast<char* const*>(argv.data()));
    ::_exit(127);
  }
  RunResult r;
  if (pid < 0) return r;
  if (kill_after_ms >= 0) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(kill_after_ms);
    int status = 0;
    for (;;) {
      const pid_t done = ::waitpid(pid, &status, WNOHANG);
      if (done == pid) {
        // Finished before the axe fell — still a valid incarnation.
        r.exited = WIFEXITED(status);
        r.code = r.exited ? WEXITSTATUS(status) : -1;
        return r;
      }
      if (std::chrono::steady_clock::now() >= deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ::kill(pid, SIGKILL);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  r.exited = WIFEXITED(status);
  r.code = r.exited ? WEXITSTATUS(status) : -1;
  return r;
}

class ChaosFleetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_FALSE(agent_bin().empty())
        << "netdiag-agent binary path not compiled in and ND_AGENT_BIN unset";
    char tmpl[] = "/tmp/ndchaosXXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    sock_path_ = dir_ + "/svc.sock";
    endpoint_spec_ = "unix:" + sock_path_;
  }

  void TearDown() override {
    stop_server();
    const std::string cmd = "rm -rf '" + dir_ + "'";
    [[maybe_unused]] const int rc = std::system(cmd.c_str());
  }

  void start_server(bool chaos) {
    svc::Server::Options opts;
    std::string error;
    const auto ep = svc::Endpoint::parse(endpoint_spec_, &error);
    ASSERT_TRUE(ep.has_value()) << error;
    opts.endpoint = *ep;
    if (chaos) opts.fault_plan = svc::FaultPlan::chaos(chaos_seed());
    server_.emplace(std::move(opts));
    ASSERT_TRUE(server_->start(&error)) << error;
  }

  void stop_server() {
    if (server_.has_value()) {
      server_->stop();
      server_.reset();
    }
  }

  std::string session(std::size_t i) const {
    return "fleet-" + std::to_string(i);
  }
  std::string src(std::size_t i) const {
    return "sensor-" + std::to_string(i);
  }

  /// Args for agent i. Every incarnation of agent i gets the same seeds,
  /// so its observation stream is byte-identical no matter how many times
  /// it is killed and re-run.
  std::vector<std::string> agent_args(std::size_t i,
                                      const std::string& spool_suffix,
                                      bool client_chaos) const {
    std::vector<std::string> a = {
        "--endpoint", endpoint_spec_,
        "--spool-dir", dir_ + "/spool-" + std::to_string(i) + spool_suffix,
        "--name", src(i),
        "--session", session(i),
        "--ases", "30", "--stubs", "60", "--tier2", "8",
        "--sensors", "5",
        "--rounds", std::to_string(kRounds),
        "--fail-round", "3",
        "--threshold", "2",
        "--topo-seed", std::to_string(1 + i),
        "--placement-seed", std::to_string(7 + i),
        "--fail-seed", std::to_string(99 + i),
        "--batch-max", "2",
        "--max-retries", "6",
        "--connect-timeout-ms", "2000",
        "--request-timeout-ms", "30000",
        "--backoff-base-ms", "5", "--backoff-max-ms", "50",
        "--ship-max-failures", "4",
        "--seed", std::to_string(chaos_seed() + i),
    };
    if (client_chaos) {
      a.push_back("--chaos-seed");
      a.push_back(std::to_string(chaos_seed() * 31 + i));
    }
    return a;
  }

  /// Re-runs agent i until an incarnation exits 0 (unreachable-server
  /// exits are retried; anything else fails the test).
  void run_until_acked(std::size_t i, const std::string& spool_suffix,
                       bool client_chaos) {
    for (int attempt = 0; attempt < 12; ++attempt) {
      const RunResult r =
          run_agent(agent_args(i, spool_suffix, client_chaos), -1);
      ASSERT_TRUE(r.exited) << "agent " << i << " died on a signal";
      if (r.code == 0) return;
      ASSERT_EQ(r.code, 3) << "agent " << i << " failed hard (exit "
                           << r.code << ")";
    }
    FAIL() << "agent " << i << " never finished shipping";
  }

  svc::ObserveBatchResponse probe(std::size_t i) {
    std::string error;
    svc::Client::Options copts;
    copts.max_retries = 6;
    copts.backoff_base_ms = 5;
    copts.backoff_max_ms = 50;
    copts.connect_timeout_ms = 2000;
    copts.request_timeout_ms = 30000;
    auto c = svc::Client::connect(server_->endpoint(), copts, &error);
    EXPECT_TRUE(c.has_value()) << error;
    svc::ObserveBatchResponse rsp;
    EXPECT_TRUE(svc::expect_response(
        c->call(svc::Request{svc::ObserveBatchRequest{session(i), src(i), {},
                                                      std::nullopt}},
                &error),
        &rsp, &error))
        << error;
    return rsp;
  }

  std::optional<std::string> query_diagnosis(std::size_t i) {
    std::string error;
    svc::Client::Options copts;
    copts.max_retries = 6;
    copts.backoff_base_ms = 5;
    copts.backoff_max_ms = 50;
    auto c = svc::Client::connect(server_->endpoint(), copts, &error);
    EXPECT_TRUE(c.has_value()) << error;
    svc::QueryResponse rsp;
    EXPECT_TRUE(svc::expect_response(
        c->call(svc::Request{svc::QueryRequest{session(i), std::nullopt}},
                &error),
        &rsp, &error))
        << error;
    return rsp.diagnosis;
  }

  std::string dir_;
  std::string sock_path_;
  std::string endpoint_spec_;
  std::optional<svc::Server> server_;
};

TEST_F(ChaosFleetTest, KilledAgentsFaultyWiresAndServerRestartConverge) {
  // ---- Reference: a fault-free fleet on a pristine server. ----
  start_server(/*chaos=*/false);
  std::vector<std::string> reference(kAgents);
  for (std::size_t i = 0; i < kAgents; ++i) {
    run_until_acked(i, "-ref", /*client_chaos=*/false);
    const auto view = probe(i);
    ASSERT_EQ(view.ack, kRounds);
    ASSERT_EQ(view.round, kRounds);
    const auto diag = query_diagnosis(i);
    ASSERT_TRUE(diag.has_value()) << "reference agent " << i
                                  << " fired no diagnosis";
    reference[i] = *diag;
  }
  stop_server();

  // ---- The tortured fleet. ----
  start_server(/*chaos=*/true);
  util::Rng rng(chaos_seed() * 7919 + 17);

  // Round one of the torture: every agent is SIGKILLed mid-flight twice,
  // at seeded offsets — sometimes before the spool exists, sometimes
  // mid-generate, sometimes mid-ship.
  for (int kill_round = 0; kill_round < 2; ++kill_round) {
    for (std::size_t i = 0; i < kAgents; ++i) {
      const int after_ms = 20 + static_cast<int>(rng.uniform(0, 400));
      (void)run_agent(agent_args(i, "", /*client_chaos=*/true), after_ms);
    }
  }
  // Let every agent finish shipping through the faulty wire.
  for (std::size_t i = 0; i < kAgents; ++i) {
    run_until_acked(i, "", /*client_chaos=*/true);
  }
  for (std::size_t i = 0; i < kAgents; ++i) {
    const auto view = probe(i);
    EXPECT_EQ(view.ack, kRounds) << "agent " << i << " lost observations";
    EXPECT_EQ(view.round, kRounds)
        << "agent " << i << " rounds were lost or duplicated";
  }

  // ---- Total server amnesia: restart with empty state. ----
  stop_server();
  start_server(/*chaos=*/true);
  // One more kill while the fleet re-ships its spools into the new
  // incarnation, then let everyone converge.
  (void)run_agent(agent_args(0, "", /*client_chaos=*/true),
                  20 + static_cast<int>(rng.uniform(0, 300)));
  for (std::size_t i = 0; i < kAgents; ++i) {
    run_until_acked(i, "", /*client_chaos=*/true);
  }

  // ---- The verdict: exactly-once ingest, byte-identical diagnosis. ----
  for (std::size_t i = 0; i < kAgents; ++i) {
    const auto view = probe(i);
    EXPECT_EQ(view.ack, kRounds) << "agent " << i << " lost observations";
    EXPECT_EQ(view.round, kRounds)
        << "agent " << i << " rounds were lost or duplicated";
    const auto diag = query_diagnosis(i);
    ASSERT_TRUE(diag.has_value()) << "agent " << i << " fired no diagnosis";
    EXPECT_EQ(*diag, reference[i])
        << "agent " << i
        << ": tortured diagnosis differs from the fault-free reference";
  }
}

}  // namespace
}  // namespace netd::agent
