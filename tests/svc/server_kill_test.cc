// The server kill-restart soak (the durability PR's headline test).
//
// The mirror image of the agent chaos soak: here the SERVER is the
// process being SIGKILLed. A real `netdiag serve --state-dir` process is
// forked, a fleet of real netdiag-agent processes ships observations
// into it, and the server is killed mid-batch and restarted over the
// same state directory. The durability contract under test:
//
//   - zero lost and zero duplicated observations (ack == round == the
//     agent's round count),
//   - the agents never see server amnesia (every summary reports
//     rehellos == 0 — a restart of a durable server is invisible),
//   - the final diagnosis is byte-identical to an uninterrupted
//     reference run,
//   - a corrupt journal segment is quarantined, that one session falls
//     back to the amnesia protocol, and the fleet still reconverges.
//
// Seeded via ND_SVC_SEED (default 1); CI soaks seeds {1, 7, 1337} under
// TSan. Binaries come from NETDIAG_BIN / NETDIAG_AGENT_BIN (compiled
// in), overridable with the same-named environment variables.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "svc/client.h"
#include "svc/journal.h"
#include "svc/json.h"
#include "svc/protocol.h"
#include "svc/server.h"
#include "util/record_log.h"
#include "util/rng.h"

namespace netd::svc {
namespace {

#ifndef NETDIAG_BIN
#define NETDIAG_BIN ""
#endif
#ifndef NETDIAG_AGENT_BIN
#define NETDIAG_AGENT_BIN ""
#endif

std::string netdiag_bin() {
  if (const char* env = std::getenv("NETDIAG_BIN"); env != nullptr)
    return env;
  return NETDIAG_BIN;
}

std::string agent_bin() {
  if (const char* env = std::getenv("NETDIAG_AGENT_BIN"); env != nullptr)
    return env;
  return NETDIAG_AGENT_BIN;
}

std::uint64_t soak_seed() {
  if (const char* env = std::getenv("ND_SVC_SEED"); env != nullptr) {
    return std::strtoull(env, nullptr, 10);
  }
  return 1;
}

constexpr std::size_t kAgents = 2;
constexpr std::size_t kRounds = 5;

/// fork/exec `bin args...`; stdout goes to `stdout_path` (empty =
/// /dev/null), stderr to /dev/null. Returns the child pid (< 0 = fork
/// failed).
pid_t spawn(const std::string& bin, const std::vector<std::string>& args,
            const std::string& stdout_path) {
  std::vector<const char*> argv;
  argv.push_back(bin.c_str());
  for (const auto& a : args) argv.push_back(a.c_str());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int out =
        stdout_path.empty()
            ? ::open("/dev/null", O_WRONLY)
            : ::open(stdout_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (out >= 0) ::dup2(out, STDOUT_FILENO);
    if (devnull >= 0) ::dup2(devnull, STDERR_FILENO);
    if (out >= 0) ::close(out);
    if (devnull >= 0) ::close(devnull);
    ::execv(bin.c_str(), const_cast<char* const*>(argv.data()));
    ::_exit(127);
  }
  return pid;
}

/// waitpid wrapper; returns the exit code, -1 for a signal death.
int wait_exit(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

class ServerKillSoak : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_FALSE(netdiag_bin().empty()) << "NETDIAG_BIN unset";
    ASSERT_FALSE(agent_bin().empty()) << "NETDIAG_AGENT_BIN unset";
    char tmpl[] = "/tmp/ndkillXXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    state_dir_ = dir_ + "/state";
    endpoint_spec_ = "unix:" + dir_ + "/svc.sock";
  }

  void TearDown() override {
    kill_server();
    const std::string cmd = "rm -rf '" + dir_ + "'";
    [[maybe_unused]] const int rc = std::system(cmd.c_str());
  }

  /// Forks the real `netdiag serve` with the durable state dir and waits
  /// until it accepts connections.
  void start_server() {
    ASSERT_EQ(server_pid_, -1) << "server already running";
    server_pid_ = spawn(netdiag_bin(),
                        {"serve", "--listen", endpoint_spec_, "--state-dir",
                         state_dir_, "--snapshot-every", "6"},
                        "");
    ASSERT_GT(server_pid_, 0);
    std::string error;
    const auto ep = Endpoint::parse(endpoint_spec_, &error);
    ASSERT_TRUE(ep.has_value()) << error;
    for (int i = 0; i < 500; ++i) {
      if (Client::connect(*ep, &error).has_value()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    FAIL() << "server never came up: " << error;
  }

  /// SIGKILL — no drain, no fsync, no goodbye. The whole point.
  void kill_server() {
    if (server_pid_ < 0) return;
    ::kill(server_pid_, SIGKILL);
    (void)wait_exit(server_pid_);
    server_pid_ = -1;
  }

  std::string session(std::size_t i) const {
    return "fleet-" + std::to_string(i);
  }
  std::string src(std::size_t i) const {
    return "sensor-" + std::to_string(i);
  }

  std::vector<std::string> agent_args(std::size_t i,
                                      const std::string& endpoint,
                                      const std::string& spool_suffix) const {
    return {
        "--endpoint", endpoint,
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
        "--max-retries", "4",
        "--connect-timeout-ms", "1000",
        "--request-timeout-ms", "30000",
        "--backoff-base-ms", "5", "--backoff-max-ms", "50",
        "--ship-max-failures", "3",
        "--seed", std::to_string(soak_seed() + i),
    };
  }

  /// Runs agent i to completion; exit 0 or 3 (unreachable) are the only
  /// acceptable outcomes. Returns the exit code.
  int run_agent_once(std::size_t i, const std::string& endpoint,
                     const std::string& spool_suffix) {
    const std::string out = dir_ + "/agent-" + std::to_string(i) + ".json";
    const pid_t pid = spawn(agent_bin(), agent_args(i, endpoint, spool_suffix),
                            out);
    EXPECT_GT(pid, 0);
    return wait_exit(pid);
  }

  /// Re-runs agent i until an incarnation exits 0, then returns its
  /// summary line (the last run's stdout).
  std::optional<Json> run_until_acked(std::size_t i,
                                      const std::string& spool_suffix) {
    for (int attempt = 0; attempt < 12; ++attempt) {
      const int code = run_agent_once(i, endpoint_spec_, spool_suffix);
      if (code == 0) return read_summary(i);
      EXPECT_EQ(code, 3) << "agent " << i << " failed hard (exit " << code
                         << ")";
      if (code != 3) return std::nullopt;
    }
    ADD_FAILURE() << "agent " << i << " never finished shipping";
    return std::nullopt;
  }

  std::optional<Json> read_summary(std::size_t i) const {
    std::ifstream is(dir_ + "/agent-" + std::to_string(i) + ".json");
    std::string line, last;
    while (std::getline(is, line)) {
      if (!line.empty()) last = line;
    }
    return Json::parse(last);
  }

  Client connect() {
    std::string error;
    const auto ep = Endpoint::parse(endpoint_spec_, &error);
    EXPECT_TRUE(ep.has_value()) << error;
    Client::Options copts;
    copts.max_retries = 6;
    copts.backoff_base_ms = 5;
    copts.backoff_max_ms = 50;
    auto c = Client::connect(*ep, copts, &error);
    EXPECT_TRUE(c.has_value()) << error;
    return std::move(*c);
  }

  ObserveBatchResponse probe(std::size_t i) {
    Client c = connect();
    std::string error;
    ObserveBatchResponse rsp;
    EXPECT_TRUE(expect_response(
        c.call(
            Request{ObserveBatchRequest{session(i), src(i), {}, std::nullopt}},
            &error),
        &rsp, &error))
        << error;
    return rsp;
  }

  std::optional<std::string> query_diagnosis(std::size_t i) {
    Client c = connect();
    std::string error;
    QueryResponse rsp;
    EXPECT_TRUE(expect_response(
        c.call(Request{QueryRequest{session(i), std::nullopt}}, &error), &rsp,
        &error))
        << error;
    return rsp.diagnosis;
  }

  /// The fault-free reference: an in-process ephemeral server, the same
  /// agent seeds, no interruptions. Fills `reference_` with per-agent
  /// diagnosis documents.
  void record_reference() {
    Server::Options opts;
    std::string error;
    const std::string spec = "unix:" + dir_ + "/ref.sock";
    const auto ep = Endpoint::parse(spec, &error);
    ASSERT_TRUE(ep.has_value()) << error;
    opts.endpoint = *ep;
    Server server(std::move(opts));
    ASSERT_TRUE(server.start(&error)) << error;
    reference_.resize(kAgents);
    for (std::size_t i = 0; i < kAgents; ++i) {
      ASSERT_EQ(run_agent_once(i, spec, "-ref"), 0);
      auto c = Client::connect(server.endpoint(), &error);
      ASSERT_TRUE(c.has_value()) << error;
      QueryResponse rsp;
      ASSERT_TRUE(expect_response(
          c->call(Request{QueryRequest{session(i), std::nullopt}}, &error),
          &rsp, &error))
          << error;
      ASSERT_TRUE(rsp.diagnosis.has_value())
          << "reference agent " << i << " fired no diagnosis";
      reference_[i] = *rsp.diagnosis;
    }
    server.stop();
  }

  std::string dir_;
  std::string state_dir_;
  std::string endpoint_spec_;
  pid_t server_pid_ = -1;
  std::vector<std::string> reference_;
};

TEST_F(ServerKillSoak, SigkillMidBatchLosesNothingAndStaysInvisible) {
  record_reference();

  start_server();
  util::Rng rng(soak_seed() * 104729 + 3);

  // Two kill cycles: agents ship concurrently, the server is SIGKILLed
  // at a seeded offset mid-batch, then restarted over the same state.
  for (int cycle = 0; cycle < 2; ++cycle) {
    std::vector<pid_t> pids;
    for (std::size_t i = 0; i < kAgents; ++i) {
      pids.push_back(spawn(agent_bin(), agent_args(i, endpoint_spec_, ""),
                           dir_ + "/agent-" + std::to_string(i) + ".json"));
      ASSERT_GT(pids.back(), 0);
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(30 + static_cast<int>(rng.uniform(0, 400))));
    kill_server();
    for (const pid_t pid : pids) {
      const int code = wait_exit(pid);
      // 0 = outran the axe; 3 = unreachable, spool intact. Anything else
      // means the kill corrupted client-visible state.
      EXPECT_TRUE(code == 0 || code == 3) << "agent exit " << code;
    }
    start_server();
  }

  // Let the fleet converge against the final incarnation. A durable
  // server never answers unknown_session/no_baseline for a recovered
  // session, so every summary must report zero re-hellos.
  for (std::size_t i = 0; i < kAgents; ++i) {
    const auto summary = run_until_acked(i, "");
    ASSERT_TRUE(summary.has_value());
    const Json* rehellos = summary->find("rehellos");
    ASSERT_NE(rehellos, nullptr);
    EXPECT_EQ(rehellos->as_int(), 0)
        << "agent " << i << " saw server amnesia through a durable restart";
  }

  // The verdict: exactly-once ingest, byte-identical diagnosis.
  for (std::size_t i = 0; i < kAgents; ++i) {
    const auto view = probe(i);
    EXPECT_EQ(view.ack, kRounds) << "agent " << i << " lost observations";
    EXPECT_EQ(view.round, kRounds)
        << "agent " << i << " rounds were lost or duplicated";
    const auto diag = query_diagnosis(i);
    ASSERT_TRUE(diag.has_value()) << "agent " << i << " fired no diagnosis";
    EXPECT_EQ(*diag, reference_[i])
        << "agent " << i
        << ": diagnosis after kill-restart differs from the reference";
  }

  // One more restart with nothing in flight: recovery must be stable
  // (byte-identical again), not merely convergent.
  kill_server();
  start_server();
  for (std::size_t i = 0; i < kAgents; ++i) {
    const auto diag = query_diagnosis(i);
    ASSERT_TRUE(diag.has_value());
    EXPECT_EQ(*diag, reference_[i]);
  }
}

TEST_F(ServerKillSoak, CorruptSegmentQuarantinesAndFleetReconverges) {
  record_reference();

  // A clean durable run first.
  start_server();
  for (std::size_t i = 0; i < kAgents; ++i) {
    const auto summary = run_until_acked(i, "");
    ASSERT_TRUE(summary.has_value());
  }
  kill_server();

  // Corrupt one byte of session 0's journal while the server is down.
  const std::string sess_dir =
      state_dir_ + "/sessions/" + encode_session_dir(session(0));
  std::string victim;
  {
    const std::string cmd =
        "ls '" + sess_dir + "' | grep '\\.ndj$' | head -1 > '" + dir_ +
        "/seg.txt'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
    std::ifstream is(dir_ + "/seg.txt");
    std::getline(is, victim);
  }
  ASSERT_FALSE(victim.empty()) << "no journal segment to corrupt";
  {
    std::fstream f(sess_dir + "/" + victim,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(util::record_log::kHeaderBytes));
    f.put('~');
  }

  start_server();
  // Session 0 is gone (amnesia); session 1 recovered untouched.
  {
    Client c = connect();
    std::string error;
    const auto rsp = c.call(Request{QueryRequest{session(0), std::nullopt}},
                            &error);
    ASSERT_TRUE(rsp.has_value()) << error;
    const auto* err = std::get_if<ErrorResponse>(&*rsp);
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->code, kErrUnknownSession);
  }
  EXPECT_EQ(query_diagnosis(1), std::optional<std::string>(reference_[1]));
  // The evidence was preserved, not destroyed.
  {
    const std::string cmd =
        "ls '" + sess_dir + "' | grep -q '\\.quarantined$'";
    EXPECT_EQ(std::system(cmd.c_str()), 0) << "no quarantined files";
  }

  // The agent's spool retains acked records exactly for this moment: its
  // startup hello re-creates the session, the no_baseline answer drives a
  // re-baseline, and it re-ships everything — the summary shows all
  // rounds freshly applied (an intact session would have applied zero).
  const auto summary = run_until_acked(0, "");
  ASSERT_TRUE(summary.has_value());
  const Json* applied = summary->find("applied");
  ASSERT_NE(applied, nullptr);
  EXPECT_EQ(applied->as_int(), static_cast<int>(kRounds))
      << "agent never noticed the amnesia (or re-shipped partially)";
  const auto view = probe(0);
  EXPECT_EQ(view.ack, kRounds);
  EXPECT_EQ(view.round, kRounds);
  EXPECT_EQ(query_diagnosis(0), std::optional<std::string>(reference_[0]));
}

}  // namespace
}  // namespace netd::svc
