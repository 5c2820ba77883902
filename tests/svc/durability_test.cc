// In-process durability tests: a Server with a state directory is
// stopped and a fresh Server is started over the same directory. The
// acceptance property is byte-identical recovery — diagnosis state and
// the per-source watermarks that answer retries and redeliveries all
// survive the restart. Session directories written record by record
// pin what recovery accepts and what it quarantines; `netdiag wal` runs
// as the real binary (NETDIAG_BIN, overridable by the same-named
// environment variable).
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exp/runner.h"
#include "svc/client.h"
#include "svc/journal.h"
#include "svc/protocol.h"
#include "svc/server.h"
#include "svc/trace.h"
#include "util/atomic_file.h"
#include "util/record_log.h"

namespace netd::svc {
namespace {

#ifndef NETDIAG_BIN
#define NETDIAG_BIN ""
#endif

/// `netdiag wal --state-dir DIR` with `flags`: its stdout.
std::string run_wal(const std::string& state_dir, const std::string& flags) {
  const char* env = std::getenv("NETDIAG_BIN");
  const std::string cmd = "'" + std::string(env ? env : NETDIAG_BIN) +
                          "' wal --state-dir '" + state_dir + "' " + flags +
                          " 2>/dev/null";
  FILE* p = ::popen(cmd.c_str(), "r");
  if (p == nullptr) return "";
  std::string out;
  char buf[4096];
  while (const std::size_t n = std::fread(buf, 1, sizeof(buf), p)) {
    out.append(buf, n);
  }
  (void)::pclose(p);
  return out;
}

probe::Mesh healthy_mesh() {
  probe::Mesh mesh;
  probe::TracePath path;
  path.src = 0;
  path.dst = 1;
  path.ok = true;
  path.hops = {{"s0", graph::NodeKind::kSensor, 4, topo::RouterId{}},
               {"s1", graph::NodeKind::kSensor, 5, topo::RouterId{}}};
  mesh.paths.push_back(std::move(path));
  return mesh;
}

class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/netd_durable_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    state_dir_ = tmpl;
  }
  void TearDown() override {
    const std::string cmd = "rm -rf '" + state_dir_ + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }

  Server::Options durable_options() const {
    Server::Options opts;
    opts.endpoint.port = 0;
    opts.state_dir = state_dir_;
    return opts;
  }

  static Client connect(Server& server) {
    std::string error;
    auto c = Client::connect(server.endpoint(), &error);
    EXPECT_TRUE(c.has_value()) << error;
    return std::move(*c);
  }

  /// Files under <state_dir>/sessions/<enc>/ whose name ends with
  /// `suffix` (suffix, not substring: `wal-...ndj.quarantined` must not
  /// count as a live `.ndj`).
  std::vector<std::string> session_files(const std::string& session,
                                         const std::string& suffix) const {
    std::vector<std::string> out;
    const std::string dir =
        state_dir_ + "/sessions/" + encode_session_dir(session);
    const std::string cmd =
        "ls '" + dir + "' 2>/dev/null > '" + state_dir_ + "/ls.txt'";
    if (std::system(cmd.c_str()) != 0) return out;
    std::ifstream is(state_dir_ + "/ls.txt");
    std::string line;
    while (std::getline(is, line)) {
      if (line.size() >= suffix.size() &&
          line.compare(line.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        out.push_back(dir + "/" + line);
      }
    }
    return out;
  }

  /// Lays out a session directory as a durable server does: `snapshot`
  /// (when not empty) committed as SNAPSHOT, then `records` appended to
  /// the journal, which numbers them from the snapshot's floor.
  void write_session(const std::string& session,
                     const std::vector<std::string>& records,
                     const std::string& snapshot = "") const {
    const std::string dir =
        state_dir_ + "/sessions/" + encode_session_dir(session);
    for (const std::string& d : {state_dir_ + "/sessions", dir}) {
      ASSERT_TRUE(::mkdir(d.c_str(), 0755) == 0 || errno == EEXIST) << d;
    }
    std::string error;
    if (!snapshot.empty()) {
      ASSERT_TRUE(util::atomic_write_file(dir + "/SNAPSHOT", snapshot, &error))
          << error;
    }
    SessionJournal::Options opts;
    opts.dir = dir;
    auto journal = SessionJournal::open(std::move(opts), &error);
    ASSERT_NE(journal, nullptr) << error;
    for (const std::string& rec : records) {
      ASSERT_NE(journal->append(rec, &error), 0u) << error;
    }
  }

  /// Starts a server beside `bad`, whose journal only a bug or a bad disk
  /// could have written, and a healthy sibling session. `bad` must be
  /// quarantined with every file renamed and every byte kept, while the
  /// sibling recovers and keeps serving.
  void expect_quarantined_beside_sibling(const std::string& bad) {
    const std::string mesh = mesh_to_json(healthy_mesh()).dump();
    write_session("sibling", {R"({"t":"hello","config":)" + kConfig + "}",
                              R"({"t":"baseline","mesh":)" + mesh + "}",
                              R"({"t":"obs","mesh":)" + mesh + "}"});
    std::vector<std::pair<std::string, std::uint64_t>> files;
    for (const std::string& f : session_files(bad, "")) {
      files.emplace_back(f, util::file_size(f).value_or(0));
    }
    ASSERT_FALSE(files.empty());
    Server server(durable_options());
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    Client c = connect(server);
    ObserveResponse obs;
    ASSERT_TRUE(expect_response(
        c.call(Request{ObserveRequest{"sibling", healthy_mesh(), std::nullopt}},
               &error),
        &obs, &error))
        << error;
    EXPECT_EQ(obs.round, 2u);  // its journaled round, then this one
    const auto rsp = c.call(Request{QueryRequest{bad, std::nullopt}}, &error);
    ASSERT_TRUE(rsp.has_value()) << error;
    const auto* err = std::get_if<ErrorResponse>(&*rsp);
    ASSERT_NE(err, nullptr) << serialize(*rsp);
    EXPECT_EQ(err->code, kErrUnknownSession);
    for (const auto& [path, size] : files) {
      EXPECT_EQ(util::file_size(path + ".quarantined"), size) << path;
      EXPECT_FALSE(util::file_size(path).has_value()) << path;
    }
    server.stop();
  }

  /// healthy_mesh() widened to `pairs` pairs, as the journal stores it.
  static std::string wide_mesh_json(std::size_t pairs) {
    probe::Mesh mesh;
    for (std::size_t k = 0; k < pairs; ++k) {
      probe::TracePath path = healthy_mesh().paths.front();
      path.src = k;
      path.dst = k + 1;
      mesh.paths.push_back(std::move(path));
    }
    return mesh_to_json(mesh).dump();
  }

  static inline const std::string kConfig =
      R"({"threshold":1,"algo":"nd-edge","granularity":"none"})";

  std::string state_dir_;
};

TEST_F(DurabilityTest, EphemeralServerAdvertisesNoEpoch) {
  Server::Options opts;
  opts.endpoint.port = 0;  // no state_dir: legacy ephemeral mode
  Server server(std::move(opts));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  Client c = connect(server);
  HelloResponse hello;
  ASSERT_TRUE(expect_response(
      c.call(Request{HelloRequest{"s", SessionConfig{}, std::nullopt}}, &error),
      &hello, &error))
      << error;
  EXPECT_EQ(hello.epoch, 0u);
  server.stop();
}

TEST_F(DurabilityTest, EpochBumpsAndSessionSurvivesRestart) {
  std::string error;
  {
    Server server(durable_options());
    ASSERT_TRUE(server.start(&error)) << error;
    Client c = connect(server);
    HelloResponse hello;
    ASSERT_TRUE(expect_response(
        c.call(Request{HelloRequest{"noc", SessionConfig{}, std::nullopt}},
               &error),
        &hello, &error))
        << error;
    EXPECT_TRUE(hello.created);
    EXPECT_EQ(hello.epoch, 1u);
    server.stop();
  }
  {
    Server server(durable_options());
    ASSERT_TRUE(server.start(&error)) << error;
    Client c = connect(server);
    HelloResponse hello;
    ASSERT_TRUE(expect_response(
        c.call(Request{HelloRequest{"noc", SessionConfig{}, std::nullopt}},
               &error),
        &hello, &error))
        << error;
    // The session was recovered, not re-created, and the epoch moved.
    EXPECT_FALSE(hello.created);
    EXPECT_EQ(hello.epoch, 2u);
    server.stop();
  }
}

TEST_F(DurabilityTest, RecoveredSessionKeepsItsConfig) {
  std::string error;
  SessionConfig cfg;
  cfg.alarm_threshold = 3;
  cfg.algo = "tomo";
  cfg.granularity = "none";
  {
    Server server(durable_options());
    ASSERT_TRUE(server.start(&error)) << error;
    Client c = connect(server);
    HelloResponse hello;
    ASSERT_TRUE(expect_response(
        c.call(Request{HelloRequest{"s", cfg, std::nullopt}}, &error), &hello,
        &error))
        << error;
    server.stop();
  }
  Server server(durable_options());
  ASSERT_TRUE(server.start(&error)) << error;
  Client c = connect(server);
  // Attaching with the original config succeeds...
  HelloResponse hello;
  ASSERT_TRUE(expect_response(
      c.call(Request{HelloRequest{"s", cfg, std::nullopt}}, &error), &hello,
      &error))
      << error;
  EXPECT_FALSE(hello.created);
  EXPECT_EQ(hello.config, cfg);
  // ...and a different config is refused, exactly as pre-restart.
  const auto rsp =
      c.call(Request{HelloRequest{"s", SessionConfig{}, std::nullopt}}, &error);
  ASSERT_TRUE(rsp.has_value()) << error;
  EXPECT_NE(std::get_if<ErrorResponse>(&*rsp), nullptr);
  server.stop();
}

TEST_F(DurabilityTest, RestartedReplayIsByteIdenticalToUninterrupted) {
  // Record a real scenario's observation stream, then drive it through
  // two servers: an uninterrupted reference, and a durable server that
  // is stopped and restarted halfway. Every response after the baseline
  // — and the final query — must match byte for byte.
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

  // Indices of the records we feed (baselines and rounds).
  std::vector<std::size_t> feed;
  for (std::size_t i = 0; i < trace->size(); ++i) {
    const auto t = (*trace)[i].type;
    if (t == TraceRecord::Type::kBaseline || t == TraceRecord::Type::kRound)
      feed.push_back(i);
  }
  ASSERT_GT(feed.size(), 4u);
  const std::size_t cut = feed.size() / 2;

  const auto feed_range = [&](Client& c, std::size_t from, std::size_t to,
                              std::vector<std::string>* out) {
    for (std::size_t k = from; k < to; ++k) {
      const TraceRecord& rec = (*trace)[feed[k]];
      std::string err;
      std::optional<Response> rsp;
      if (rec.type == TraceRecord::Type::kBaseline) {
        rsp = c.call(
            Request{SetBaselineRequest{"replay", rec.mesh, std::nullopt}},
            &err);
      } else {
        rsp = c.call(Request{ObserveRequest{"replay", rec.mesh, rec.cp}},
                     &err);
      }
      ASSERT_TRUE(rsp.has_value()) << err;
      ASSERT_EQ(std::get_if<ErrorResponse>(&*rsp), nullptr)
          << serialize(*rsp);
      out->push_back(serialize(*rsp));
    }
  };
  const auto query = [&](Client& c) {
    std::string err;
    const auto rsp = c.call(Request{QueryRequest{"replay", std::nullopt}},
                            &err);
    EXPECT_TRUE(rsp.has_value()) << err;
    return rsp.has_value() ? serialize(*rsp) : std::string{};
  };

  // Reference: one ephemeral server, never interrupted.
  std::vector<std::string> want;
  std::string want_query;
  {
    Server::Options opts;
    opts.endpoint.port = 0;
    Server server(std::move(opts));
    ASSERT_TRUE(server.start(&error)) << error;
    Client c = connect(server);
    HelloResponse hello;
    ASSERT_TRUE(expect_response(
        c.call(Request{HelloRequest{"replay", scfg, std::nullopt}}, &error),
        &hello, &error))
        << error;
    feed_range(c, 0, feed.size(), &want);
    want_query = query(c);
    server.stop();
  }

  // Durable run, restarted at the cut.
  std::vector<std::string> got;
  {
    Server server(durable_options());
    ASSERT_TRUE(server.start(&error)) << error;
    Client c = connect(server);
    HelloResponse hello;
    ASSERT_TRUE(expect_response(
        c.call(Request{HelloRequest{"replay", scfg, std::nullopt}}, &error),
        &hello, &error))
        << error;
    feed_range(c, 0, cut, &got);
    server.stop();
  }
  {
    Server server(durable_options());
    ASSERT_TRUE(server.start(&error)) << error;
    Client c = connect(server);
    // No re-hello needed: recovery registered the session.
    feed_range(c, cut, feed.size(), &got);
    const std::string got_query = query(c);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "response " << i << " diverged";
    }
    EXPECT_EQ(got_query, want_query);
    server.stop();
  }
}

TEST_F(DurabilityTest, BatchWatermarksSurviveRestartAndDedupRedelivery) {
  const probe::Mesh mesh = healthy_mesh();
  ObserveBatchRequest batch;
  batch.session = "s";
  batch.src = "agent-1";
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    batch.items.push_back(ObserveItem{seq, mesh, std::nullopt, std::nullopt});
  }
  std::string error;
  {
    Server server(durable_options());
    ASSERT_TRUE(server.start(&error)) << error;
    Client c = connect(server);
    HelloResponse hello;
    SetBaselineResponse base;
    ASSERT_TRUE(expect_response(
        c.call(Request{HelloRequest{"s", SessionConfig{}, std::nullopt}},
               &error),
        &hello, &error))
        << error;
    ASSERT_TRUE(expect_response(
        c.call(Request{SetBaselineRequest{"s", mesh, std::nullopt}}, &error),
        &base, &error))
        << error;
    ObserveBatchResponse rsp;
    ASSERT_TRUE(expect_response(c.call(Request{batch}, &error), &rsp, &error))
        << error;
    EXPECT_EQ(rsp.ack, 3u);
    EXPECT_EQ(rsp.applied, 3u);
    EXPECT_EQ(rsp.deduped, 0u);
    server.stop();
  }
  // The agent never saw the response (say the reply was lost) and
  // redelivers the whole batch to the restarted server.
  Server server(durable_options());
  ASSERT_TRUE(server.start(&error)) << error;
  Client c = connect(server);
  ObserveBatchResponse redelivered;
  ASSERT_TRUE(expect_response(c.call(Request{batch}, &error), &redelivered,
                              &error))
      << error;
  EXPECT_EQ(redelivered.ack, 3u);
  EXPECT_EQ(redelivered.applied, 0u);  // zero re-ingest
  EXPECT_EQ(redelivered.deduped, 3u);
  EXPECT_EQ(redelivered.round, 3u);  // rounds did not double
  // An empty watermark probe agrees.
  ObserveBatchResponse probe;
  ASSERT_TRUE(expect_response(
      c.call(Request{ObserveBatchRequest{"s", "agent-1", {}, std::nullopt}},
             &error),
      &probe, &error))
      << error;
  EXPECT_EQ(probe.ack, 3u);
  server.stop();
}

TEST_F(DurabilityTest, ObserveRetryCacheSurvivesRestart) {
  const probe::Mesh mesh = healthy_mesh();
  std::string error;
  std::string first_response;
  {
    Server server(durable_options());
    ASSERT_TRUE(server.start(&error)) << error;
    Client c = connect(server);
    HelloResponse hello;
    SetBaselineResponse base;
    ASSERT_TRUE(expect_response(
        c.call(Request{HelloRequest{"s", SessionConfig{}, std::nullopt}},
               &error),
        &hello, &error))
        << error;
    ASSERT_TRUE(expect_response(
        c.call(Request{SetBaselineRequest{"s", mesh, std::nullopt}}, &error),
        &base, &error))
        << error;
    const auto rsp = c.call(
        Request{ObserveRequest{"s", mesh, std::nullopt, std::uint64_t{1}}},
        &error);
    ASSERT_TRUE(rsp.has_value()) << error;
    first_response = serialize(*rsp);
    server.stop();
  }
  Server server(durable_options());
  ASSERT_TRUE(server.start(&error)) << error;
  Client c = connect(server);
  // The retried observe (same seq) is answered from the recovered cache,
  // byte-identically, without feeding the round twice.
  const auto retry = c.call(
      Request{ObserveRequest{"s", mesh, std::nullopt, std::uint64_t{1}}},
      &error);
  ASSERT_TRUE(retry.has_value()) << error;
  EXPECT_EQ(serialize(*retry), first_response);
  QueryResponse q;
  ASSERT_TRUE(expect_response(
      c.call(Request{QueryRequest{"s", std::nullopt}}, &error), &q, &error))
      << error;
  server.stop();
}

TEST_F(DurabilityTest, SnapshotBoundsReplayAndPrunesSegments) {
  const probe::Mesh mesh = healthy_mesh();
  std::string error;
  Server::Options opts = durable_options();
  opts.snapshot_every = 4;  // snapshot after every few records
  {
    Server server(std::move(opts));
    ASSERT_TRUE(server.start(&error)) << error;
    Client c = connect(server);
    HelloResponse hello;
    SetBaselineResponse base;
    ASSERT_TRUE(expect_response(
        c.call(Request{HelloRequest{"s", SessionConfig{}, std::nullopt}},
               &error),
        &hello, &error))
        << error;
    ASSERT_TRUE(expect_response(
        c.call(Request{SetBaselineRequest{"s", mesh, std::nullopt}}, &error),
        &base, &error))
        << error;
    for (int r = 0; r < 10; ++r) {
      ObserveResponse obs;
      error.clear();
      ASSERT_TRUE(expect_response(
          c.call(Request{ObserveRequest{"s", mesh, std::nullopt}}, &error),
          &obs, &error))
          << error;
    }
    server.stop();
  }
  // A snapshot exists and folded most of the journal away.
  EXPECT_EQ(session_files("s", "SNAPSHOT").size(), 1u);
  // Recovery from snapshot + short tail reproduces the session.
  Server::Options opts2 = durable_options();
  opts2.snapshot_every = 4;
  Server server(std::move(opts2));
  ASSERT_TRUE(server.start(&error)) << error;
  Client c = connect(server);
  ObserveResponse obs;
  ASSERT_TRUE(expect_response(
      c.call(Request{ObserveRequest{"s", mesh, std::nullopt}}, &error), &obs,
      &error))
      << error;
  EXPECT_EQ(obs.round, 11u);  // 10 before the restart, 1 after
  server.stop();
}

TEST_F(DurabilityTest, CorruptJournalQuarantinesAndFallsBackToAmnesia) {
  const probe::Mesh mesh = healthy_mesh();
  std::string error;
  {
    Server server(durable_options());
    ASSERT_TRUE(server.start(&error)) << error;
    Client c = connect(server);
    HelloResponse hello;
    SetBaselineResponse base;
    ASSERT_TRUE(expect_response(
        c.call(Request{HelloRequest{"s", SessionConfig{}, std::nullopt}},
               &error),
        &hello, &error))
        << error;
    ASSERT_TRUE(expect_response(
        c.call(Request{SetBaselineRequest{"s", mesh, std::nullopt}}, &error),
        &base, &error))
        << error;
    ObserveResponse obs;
    ASSERT_TRUE(expect_response(
        c.call(Request{ObserveRequest{"s", mesh, std::nullopt}}, &error),
        &obs, &error))
        << error;
    server.stop();
  }
  // Flip a payload byte in the first journal record.
  const auto segs = session_files("s", ".ndj");
  ASSERT_FALSE(segs.empty());
  {
    std::fstream f(segs[0], std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(util::record_log::kHeaderBytes));
    f.put('~');
  }
  Server server(durable_options());
  ASSERT_TRUE(server.start(&error)) << error;
  Client c = connect(server);
  // The session is gone (amnesia), answered with the structured code the
  // agent protocol reacts to...
  const auto rsp = c.call(Request{QueryRequest{"s", std::nullopt}}, &error);
  ASSERT_TRUE(rsp.has_value()) << error;
  const auto* err = std::get_if<ErrorResponse>(&*rsp);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, kErrUnknownSession);
  // ...the bytes were preserved, not destroyed...
  EXPECT_FALSE(session_files("s", ".quarantined").empty());
  EXPECT_TRUE(session_files("s", ".ndj").empty());
  // ...and re-hello starts a fresh durable life for the name.
  HelloResponse hello;
  ASSERT_TRUE(expect_response(
      c.call(Request{HelloRequest{"s", SessionConfig{}, std::nullopt}}, &error),
      &hello, &error))
      << error;
  EXPECT_TRUE(hello.created);
  server.stop();
}

TEST_F(DurabilityTest, BatchRecordNarrowerThanItsBaselineQuarantines) {
  write_session("narrow", {R"({"t":"hello","config":)" + kConfig + "}",
                           R"({"t":"baseline","mesh":)" + wide_mesh_json(64) +
                               "}",
                           R"({"t":"bobs","src":"agent-1","seq":1,"mesh":)" +
                               wide_mesh_json(1) + "}"});
  expect_quarantined_beside_sibling("narrow");
}

TEST_F(DurabilityTest, RecordWithPairsOutOfBaselineOrderQuarantines) {
  probe::Mesh mesh;
  mesh.paths = {healthy_mesh().paths.front(), healthy_mesh().paths.front()};
  mesh.paths[1].src = 1;
  mesh.paths[1].dst = 0;
  probe::Mesh swapped = mesh;
  std::swap(swapped.paths[0], swapped.paths[1]);
  write_session("swapped",
                {R"({"t":"hello","config":)" + kConfig + "}",
                 R"({"t":"baseline","mesh":)" + mesh_to_json(mesh).dump() +
                     "}",
                 R"({"t":"bobs","src":"agent-1","seq":1,"mesh":)" +
                     mesh_to_json(swapped).dump() + "}"});
  expect_quarantined_beside_sibling("swapped");
}

TEST_F(DurabilityTest, ObservationBeforeAnyBaselineQuarantines) {
  write_session("unbased", {R"({"t":"hello","config":)" + kConfig + "}",
                            R"({"t":"obs","mesh":)" + wide_mesh_json(64) +
                                R"(,"seq":1})"});
  expect_quarantined_beside_sibling("unbased");
}

TEST_F(DurabilityTest, SnapshotDetectorNarrowerThanItsBaselineQuarantines) {
  write_session(
      "shrunk", {R"({"t":"obs","mesh":)" + wide_mesh_json(64) + "}"},
      R"({"wal":2,"config":)" + kConfig +
          R"(,"round":1,"diagnosis_round":0,"src_acks":{},"baseline":)" +
          wide_mesh_json(64) +
          R"(,"detector":{"fails":[0],"alarmed":[false]}})" + "\n");
  expect_quarantined_beside_sibling("shrunk");
}

TEST_F(DurabilityTest, StateWrittenBeforeObserveSharedTheWatermarksRecovers) {
  // A session directory as servers wrote it while observe kept its own
  // retry cache: the SNAPSHOT holds last_seq and last_rsp, and every obs
  // record its seq. Both now read as the observe source's ("") watermark.
  const std::string up =
      R"({"paths":[{"src":0,"dst":1,"ok":true,"hops":[["s0","s",1,-1],)"
      R"(["r1","r",1,1],["s1","s",1,-1]],"links":[0,1]}]})";
  const std::string down =
      R"({"paths":[{"src":0,"dst":1,"ok":false,"hops":[["s0","s",1,-1],)"
      R"(["r1","r",1,1]],"links":[0]}]})";
  write_session(
      "legacy",
      {R"({"t":"obs","mesh":)" + up + R"(,"seq":2})",
       R"({"t":"bobs","src":"agent-1","seq":1,"mesh":)" + up + "}",
       R"({"t":"obs","mesh":)" + down + R"(,"seq":3})"},
      R"({"wal":3,"config":)" + kConfig +
          R"(,"round":1,"diagnosis_round":0,"last_seq":1,)"
          R"("last_rsp":{"round":1,"alarmed":false},"src_acks":{},)"
          R"("baseline":)" + up +
          R"(,"detector":{"fails":[0],"alarmed":[false]}})" + "\n");
  EXPECT_NE(run_wal(state_dir_, "--json")
                .find(R"("watermarks":{"":3,"agent-1":1})"),
            std::string::npos);
  EXPECT_NE(run_wal(state_dir_, "").find("watermarks: (observe)=3 agent-1=1"),
            std::string::npos);

  // The same stream fed to an ephemeral server, uninterrupted.
  std::string error;
  const auto mesh = [&error](const std::string& text) {
    return *mesh_from_json(*Json::parse(text), &error);
  };
  const auto cfg = session_config_from_json(*Json::parse(kConfig), &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  std::string want_last, want_query;
  {
    Server::Options opts;
    opts.endpoint.port = 0;
    Server server(std::move(opts));
    ASSERT_TRUE(server.start(&error)) << error;
    Client c = connect(server);
    for (const Request& req :
         {Request{HelloRequest{"legacy", *cfg, std::nullopt}},
          Request{SetBaselineRequest{"legacy", mesh(up), std::nullopt}},
          Request{ObserveRequest{"legacy", mesh(up), std::nullopt, 1}},
          Request{ObserveRequest{"legacy", mesh(up), std::nullopt, 2}},
          Request{ObserveBatchRequest{
              "legacy",
              "agent-1",
              {ObserveItem{1, mesh(up), std::nullopt, std::nullopt}},
              std::nullopt}},
          Request{ObserveRequest{"legacy", mesh(down), std::nullopt, 3}},
          Request{QueryRequest{"legacy", std::nullopt}}}) {
      const auto rsp = c.call(req, &error);
      ASSERT_TRUE(rsp.has_value()) << error;
      ASSERT_EQ(std::get_if<ErrorResponse>(&*rsp), nullptr)
          << serialize(*rsp);
      want_last = std::exchange(want_query, serialize(*rsp));
    }
    server.stop();
  }
  ASSERT_NE(want_last.find("\"diagnosis\""), std::string::npos) << want_last;

  Server server(durable_options());
  ASSERT_TRUE(server.start(&error)) << error;
  Client c = connect(server);
  const auto query = c.call(Request{QueryRequest{"legacy", std::nullopt}},
                            &error);
  ASSERT_TRUE(query.has_value()) << error;
  EXPECT_EQ(serialize(*query), want_query);
  EXPECT_TRUE(session_files("legacy", ".quarantined").empty());
  // The client retries the last observe the old server applied: it is
  // deduplicated and answered as the round was.
  const auto retry = c.call(
      Request{ObserveRequest{"legacy", mesh(down), std::nullopt, 3}}, &error);
  ASSERT_TRUE(retry.has_value()) << error;
  EXPECT_EQ(serialize(*retry), want_last);
  const auto stats = Json::parse(server.stats_json());
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->find("dedup_hits")->as_int(), 1);
  server.stop();
}

TEST_F(DurabilityTest, FsyncAlwaysServesAndRecoversIdentically) {
  const probe::Mesh mesh = healthy_mesh();
  std::string error;
  Server::Options opts = durable_options();
  opts.fsync = FsyncPolicy::kAlways;
  {
    Server server(std::move(opts));
    ASSERT_TRUE(server.start(&error)) << error;
    Client c = connect(server);
    HelloResponse hello;
    SetBaselineResponse base;
    ASSERT_TRUE(expect_response(
        c.call(Request{HelloRequest{"s", SessionConfig{}, std::nullopt}},
               &error),
        &hello, &error))
        << error;
    ASSERT_TRUE(expect_response(
        c.call(Request{SetBaselineRequest{"s", mesh, std::nullopt}}, &error),
        &base, &error))
        << error;
    ObserveResponse obs;
    ASSERT_TRUE(expect_response(
        c.call(Request{ObserveRequest{"s", mesh, std::nullopt}}, &error),
        &obs, &error))
        << error;
    EXPECT_EQ(obs.round, 1u);
    server.stop();
  }
  Server::Options opts2 = durable_options();
  opts2.fsync = FsyncPolicy::kAlways;
  Server server(std::move(opts2));
  ASSERT_TRUE(server.start(&error)) << error;
  Client c = connect(server);
  ObserveResponse obs;
  ASSERT_TRUE(expect_response(
      c.call(Request{ObserveRequest{"s", mesh, std::nullopt}}, &error), &obs,
      &error))
      << error;
  EXPECT_EQ(obs.round, 2u);
  server.stop();
}

}  // namespace
}  // namespace netd::svc
