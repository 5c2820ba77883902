// The cross-process tracing pipeline, end to end with real binaries.
//
// A real `netdiag serve --trace-out` process and a small fleet of real
// `netdiag-agent --trace-out` processes run a fault scenario to a
// diagnosis; then `netdiag trace-merge` joins the per-process Chrome
// trace files. The contract under test is the headline acceptance
// criterion of the tracing PR:
//
//   - at least one observation's spool → ship (agent process) and
//     journal_append → solve (server process) spans all carry ONE trace
//     id in the merged timeline — the id the agent derived at
//     measurement time, not anything negotiated at ship time,
//   - the merged file is one valid JSON event array with one pid per
//     input process plus process_name metadata,
//   - the `events` wire verb and `netdiag tail --once` surface a
//     deterministic ring event (a redelivered batch item's dedup),
//     cursor semantics included.
//
// Binaries come from NETDIAG_BIN / NETDIAG_AGENT_BIN (compiled in),
// overridable with the same-named environment variables.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/events.h"
#include "svc/client.h"
#include "svc/json.h"
#include "svc/protocol.h"

// Span recording and the event ring compile out under NETD_OBS=OFF, and
// the pipeline under test is made of both.
#ifndef NETD_OBS_DISABLED

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

constexpr std::size_t kAgents = 2;
constexpr std::size_t kRounds = 5;

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

int wait_exit(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

class TracePipeline : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_FALSE(netdiag_bin().empty()) << "NETDIAG_BIN unset";
    ASSERT_FALSE(agent_bin().empty()) << "NETDIAG_AGENT_BIN unset";
    char tmpl[] = "/tmp/ndtraceXXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    endpoint_spec_ = "unix:" + dir_ + "/svc.sock";
  }

  void TearDown() override {
    if (server_pid_ > 0) {
      ::kill(server_pid_, SIGKILL);
      (void)wait_exit(server_pid_);
    }
    const std::string cmd = "rm -rf '" + dir_ + "'";
    [[maybe_unused]] const int rc = std::system(cmd.c_str());
  }

  std::string server_trace() const { return dir_ + "/server-trace.json"; }
  std::string agent_trace(std::size_t i) const {
    return dir_ + "/agent-" + std::to_string(i) + "-trace.json";
  }

  void start_server() {
    server_pid_ = spawn(netdiag_bin(),
                        {"serve", "--listen", endpoint_spec_, "--state-dir",
                         dir_ + "/state", "--trace-out", server_trace(),
                         "--slow-request-ms", "5000"},
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

  /// Graceful stop via the shutdown op — the path that flushes the
  /// server's --trace-out file.
  void shutdown_server() {
    {
      Client c = connect();
      std::string error;
      const auto rsp = c.call(Request{ShutdownRequest{}}, &error);
      EXPECT_TRUE(rsp.has_value()) << error;
    }
    EXPECT_EQ(wait_exit(server_pid_), 0);
    server_pid_ = -1;
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

  std::string session(std::size_t i) const {
    return "fleet-" + std::to_string(i);
  }
  std::string src(std::size_t i) const {
    return "sensor-" + std::to_string(i);
  }

  /// Runs agent i to completion (exit 0). --batch-max 1 so every round's
  /// batch carries exactly its own trace: the ship span and the item
  /// share one root, which is what lets the acceptance chain
  /// spool→ship→journal→solve live on a single trace id.
  void run_agent(std::size_t i) {
    const pid_t pid = spawn(
        agent_bin(),
        {"--endpoint", endpoint_spec_,
         "--spool-dir", dir_ + "/spool-" + std::to_string(i),
         "--name", src(i), "--session", session(i),
         "--ases", "30", "--stubs", "60", "--tier2", "8", "--sensors", "5",
         "--rounds", std::to_string(kRounds),
         "--fail-round", "3", "--threshold", "2",
         "--topo-seed", std::to_string(1 + i),
         "--placement-seed", std::to_string(7 + i),
         "--fail-seed", std::to_string(99 + i),
         "--batch-max", "1",
         "--seed", std::to_string(1 + i),
         "--trace-out", agent_trace(i)},
        dir_ + "/agent-" + std::to_string(i) + ".json");
    ASSERT_GT(pid, 0);
    ASSERT_EQ(wait_exit(pid), 0) << "agent " << i << " did not fully ack";
    const auto summary = Json::parse(slurp(
        dir_ + "/agent-" + std::to_string(i) + ".json"));
    ASSERT_TRUE(summary.has_value());
    const Json* diagnosed = summary->find("diagnosed");
    ASSERT_NE(diagnosed, nullptr);
    EXPECT_TRUE(diagnosed->as_bool())
        << "agent " << i << " fired no diagnosis — no solve span to join";
  }

  std::string dir_;
  std::string endpoint_spec_;
  pid_t server_pid_ = -1;
};

/// name → set of args.trace hex strings, one map per pid, from a merged
/// Chrome trace document.
using SpanIndex = std::map<std::uint64_t, std::map<std::string,
                                                   std::set<std::string>>>;

SpanIndex index_spans(const Json& merged) {
  SpanIndex idx;
  for (std::size_t i = 0; i < merged.size(); ++i) {
    const Json& ev = merged[i];
    const Json* ph = ev.find("ph");
    if (ph == nullptr || ph->as_string() != "X") continue;
    const Json* args = ev.find("args");
    const Json* trace = args != nullptr ? args->find("trace") : nullptr;
    if (trace == nullptr) continue;
    idx[static_cast<std::uint64_t>(ev.find("pid")->as_int())]
       [ev.find("name")->as_string()]
           .insert(trace->as_string());
  }
  return idx;
}

TEST_F(TracePipeline, OneTraceIdSpansAgentAndServerInTheMergedTimeline) {
  start_server();
  for (std::size_t i = 0; i < kAgents; ++i) run_agent(i);

  // A deterministic ring event: redeliver an already-acked seq. The
  // watermark dedups it before any validation, bumping the ring.
  {
    Client c = connect();
    std::string error;
    probe::Mesh mesh;  // content irrelevant: the watermark wins first
    ObserveBatchResponse rsp;
    ASSERT_TRUE(expect_response(
        c.call(Request{ObserveBatchRequest{
                   session(0), src(0),
                   {ObserveItem{1, std::move(mesh), std::nullopt,
                                std::nullopt}},
                   std::nullopt}},
               &error),
        &rsp, &error))
        << error;
    EXPECT_EQ(rsp.deduped, 1u);
    EXPECT_EQ(rsp.ack, kRounds);
  }

  // The events verb sees it; a second read from the returned cursor is
  // empty (drained).
  {
    Client c = connect();
    std::string error;
    EventsResponse ev;
    ASSERT_TRUE(expect_response(
        c.call(Request{EventsRequest{0, 0}}, &error), &ev, &error))
        << error;
    ASSERT_FALSE(ev.events.empty());
    bool saw_dedup = false;
    for (const auto& e : ev.events) {
      if (e.kind == obs::EventKind::kDedup &&
          e.detail == session(0) + "/" + src(0)) {
        saw_dedup = true;
        EXPECT_EQ(e.dur_us, 1u);  // deduped-item count rides in dur_us
      }
    }
    EXPECT_TRUE(saw_dedup) << "dedup event missing from the ring";
    EventsResponse drained;
    ASSERT_TRUE(expect_response(
        c.call(Request{EventsRequest{ev.next_cursor, 0}}, &error), &drained,
        &error))
        << error;
    EXPECT_TRUE(drained.events.empty());
    EXPECT_EQ(drained.next_cursor, ev.next_cursor);
  }

  // The operator view of the same ring.
  {
    const pid_t pid = spawn(netdiag_bin(),
                            {"tail", "--connect", endpoint_spec_, "--once"},
                            dir_ + "/tail.txt");
    ASSERT_GT(pid, 0);
    ASSERT_EQ(wait_exit(pid), 0);
    const std::string out = slurp(dir_ + "/tail.txt");
    EXPECT_NE(out.find("dedup " + session(0) + "/" + src(0)),
              std::string::npos)
        << out;
  }

  shutdown_server();

  // Merge agent 0, agent 1, server → pids 1, 2, 3.
  const std::string merged_path = dir_ + "/merged.json";
  {
    const pid_t pid = spawn(
        netdiag_bin(),
        {"trace-merge", agent_trace(0), agent_trace(1), server_trace(),
         "--out", merged_path},
        "");
    ASSERT_GT(pid, 0);
    ASSERT_EQ(wait_exit(pid), 0);
  }

  std::string error;
  const auto merged = Json::parse(slurp(merged_path), &error);
  ASSERT_TRUE(merged.has_value()) << error;
  ASSERT_TRUE(merged->is_array());

  // Structure: every event is an object with a pid in {1,2,3}; exactly
  // one process_name metadata record per input file.
  std::set<std::uint64_t> meta_pids;
  for (std::size_t i = 0; i < merged->size(); ++i) {
    const Json& ev = (*merged)[i];
    ASSERT_TRUE(ev.is_object());
    const Json* pid = ev.find("pid");
    ASSERT_NE(pid, nullptr);
    EXPECT_GE(pid->as_int(), 1);
    EXPECT_LE(pid->as_int(), 3);
    const Json* ph = ev.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->as_string() == "M") {
      EXPECT_TRUE(meta_pids.insert(
          static_cast<std::uint64_t>(pid->as_int())).second);
    }
  }
  EXPECT_EQ(meta_pids, (std::set<std::uint64_t>{1, 2, 3}));

  // The headline join: one trace id carrying the whole observation
  // lifecycle across processes. Agent 0 is pid 1, the server pid 3.
  const SpanIndex idx = index_spans(*merged);
  ASSERT_TRUE(idx.count(1) && idx.count(3)) << "a process emitted no spans";
  const auto names_at = [&](std::uint64_t pid, const char* name) {
    const auto pit = idx.find(pid);
    if (pit == idx.end()) return std::set<std::string>{};
    const auto nit = pit->second.find(name);
    return nit == pit->second.end() ? std::set<std::string>{} : nit->second;
  };
  std::size_t joined = 0;
  std::set<std::string> full_chain;
  for (const auto& t : names_at(1, "spool")) {
    if (!names_at(3, "journal_append").count(t)) continue;
    ++joined;
    if (names_at(1, "ship").count(t) && names_at(3, "solve").count(t)) {
      full_chain.insert(t);
    }
  }
  // Every round's spool trace reappears in the server's journal spans...
  EXPECT_GE(joined, kRounds);
  // ...and the alarmed round's trace carries all four lifecycle stages.
  EXPECT_FALSE(full_chain.empty())
      << "no trace id joins spool+ship (agent) with journal_append+solve "
         "(server)";
  // The server also parented its batch handling on the agents' traces.
  EXPECT_FALSE(names_at(3, "rx_batch_item").empty());
}

}  // namespace
}  // namespace netd::svc

#endif  // NETD_OBS_DISABLED
