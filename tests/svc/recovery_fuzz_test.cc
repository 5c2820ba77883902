// Seeded content fuzz of session recovery: the parsers that read journal
// and SNAPSHOT bytes, fed content that is CRC-valid but hostile.
//
// A durable server first writes a template state directory: a session
// ("fuzz") with a SNAPSHOT and a journal tail that holds every record
// type, and an untouched sibling. Each seed copies the template, applies
// one structured mutation — drop or retype a field, change a number,
// resize an array (a mesh's paths among them), or reorder or duplicate
// records — to one journal record or to the SNAPSHOT, re-frames the
// records with valid CRCs, and starts a server over the copy. Recovery
// must either rebuild the session so that it serves hello, query and a
// baseline-sized observe, or quarantine it with every file renamed and
// every byte kept; the sibling always recovers. The verdict `netdiag
// wal` renders (session_damage), taken before the server starts, names
// damage exactly when recovery quarantines.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "svc/client.h"
#include "svc/journal.h"
#include "svc/protocol.h"
#include "svc/server.h"
#include "util/atomic_file.h"
#include "util/record_log.h"
#include "util/rng.h"

namespace netd::svc {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kSeeds = 500;
constexpr std::size_t kPairs = 64;

/// `pairs` probe paths from 8 sensors through one core router; the first
/// `failed` of them are cut after their first router.
probe::Mesh mesh_of(std::size_t pairs, std::size_t failed) {
  probe::Mesh mesh;
  for (std::size_t k = 0; k < pairs; ++k) {
    probe::TracePath p;
    p.src = k % 8;
    p.dst = 8 + k;
    p.ok = k >= failed;
    const int as = static_cast<int>(k % 4);
    const auto r = static_cast<std::uint32_t>(k % 8);
    p.hops = {{"s" + std::to_string(p.src), graph::NodeKind::kSensor, 10 + as,
               topo::RouterId{}},
              {"r" + std::to_string(r), graph::NodeKind::kRouter, as,
               topo::RouterId{r}},
              {"core", graph::NodeKind::kRouter, 9, topo::RouterId{100}},
              {"d" + std::to_string(k), graph::NodeKind::kSensor, 20,
               topo::RouterId{}}};
    p.links = {topo::LinkId{r}, topo::LinkId{8 + r},
               topo::LinkId{16 + static_cast<std::uint32_t>(k)}};
    if (!p.ok) {
      p.hops.resize(2);
      p.links.resize(1);
    }
    mesh.paths.push_back(std::move(p));
  }
  return mesh;
}

core::ControlPlaneObs control_plane() {
  core::ControlPlaneObs cp;
  cp.igp_down_keys = {"r0|core"};
  cp.withdrawals.push_back({"r0>core", 20});
  return cp;
}

/// `j` with one value of another type put in its place.
Json retyped(const Json& j, util::Rng& rng) {
  std::vector<Json> others;
  if (!j.is_null()) others.push_back(Json::null());
  if (!j.is_bool()) others.push_back(Json::boolean(true));
  if (!j.is_number()) others.push_back(Json::uinteger(1));
  if (!j.is_string()) others.push_back(Json::string("x"));
  if (!j.is_array()) others.push_back(Json::array());
  if (!j.is_object()) others.push_back(Json::object());
  return rng.pick(others);
}

/// One structured edit inside `j`: walks down a random path, stopping at
/// each level with probability 1/2 (always at a leaf), and edits the
/// node it stopped at — drops one member of an object, resizes an array
/// (truncating it, or growing it with copies of its own elements),
/// changes a number, swaps a string for another, or retypes the value.
Json mutated(const Json& j, util::Rng& rng) {
  const std::size_t n =
      j.is_object() ? j.members().size() : j.is_array() ? j.size() : 0;
  if (n > 0 && rng.bernoulli(0.5)) {
    const std::size_t pick = rng.uniform(0, static_cast<std::uint32_t>(n - 1));
    Json out = j.is_object() ? Json::object() : Json::array();
    for (std::size_t i = 0; i < n; ++i) {
      if (j.is_object()) {
        const auto& [key, value] = j.members()[i];
        out.set(key, i == pick ? mutated(value, rng) : value);
      } else {
        out.push_back(i == pick ? mutated(j[i], rng) : j[i]);
      }
    }
    return out;
  }
  if (!rng.bernoulli(0.75)) return retyped(j, rng);
  if (j.is_object() && n > 0) {
    const std::size_t drop = rng.uniform(0, static_cast<std::uint32_t>(n - 1));
    Json out = Json::object();
    for (std::size_t i = 0; i < n; ++i) {
      if (i != drop) out.set(j.members()[i].first, j.members()[i].second);
    }
    return out;
  }
  if (j.is_array()) {
    const std::size_t size =
        rng.uniform(0, static_cast<std::uint32_t>(2 * n + 1));
    Json out = Json::array();
    for (std::size_t i = 0; i < size && n > 0; ++i) out.push_back(j[i % n]);
    return out;
  }
  if (j.is_number()) {
    if (const auto v = j.as_uint(); v && rng.bernoulli(0.25)) {
      return Json::uinteger(*v + 1);
    }
    static const std::vector<std::string> kLexemes = {
        "0",  "1",  "2",          "3",          "63",
        "64", "65", "4294967295", "4294967296", "18446744073709551615",
        "18446744073709551616",   "-1",         "-0",
        "1.5",                    "1e3"};
    return Json::number_from_lexeme(rng.pick(kLexemes));
  }
  if (j.is_string()) {
    static const std::vector<std::string> kStrings = {
        "",      "x",   "obs", "bobs", "baseline", "hello",   "s",
        "r",     "u",   "l",   "core", "agent-1",  "nd-edge", "tomo",
        "none",  "per-prefix"};
    return Json::string(rng.pick(kStrings));
  }
  if (j.is_bool()) return Json::boolean(!j.as_bool());
  return retyped(j, rng);
}

/// Paths in the mesh under `key` of `doc`; 0 when there is none.
std::size_t mesh_pairs(const Json& doc, const char* key) {
  const Json* mesh = doc.find(key);
  const Json* paths = mesh != nullptr ? mesh->find("paths") : nullptr;
  return paths != nullptr && paths->is_array() ? paths->size() : 0;
}

class RecoveryFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/netd_recovery_fuzz_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    root_ = tmpl;
    write_template();
  }
  void TearDown() override { fs::remove_all(root_); }

  Server::Options options(const std::string& state_dir) const {
    Server::Options opts;
    opts.endpoint.port = 0;
    opts.num_threads = 1;
    opts.state_dir = state_dir;
    opts.snapshot_every = 8;  // the template gets a SNAPSHOT and a tail
    opts.drain_timeout_ms = 0;
    return opts;
  }

  static std::optional<Response> call(Client& c, Request req) {
    std::string error;
    auto rsp = c.call(req, &error);
    EXPECT_TRUE(rsp.has_value()) << error;
    return rsp;
  }

  /// The template state dir: "fuzz" is snapshotted after 8 records and
  /// keeps a tail with a sequenced and an unsequenced obs, bobs from an
  /// agent, a cp, a second baseline and a fired diagnosis.
  void write_template() {
    config_.alarm_threshold = 2;
    const probe::Mesh up = mesh_of(kPairs, 0);
    const probe::Mesh down = mesh_of(kPairs, 4);
    const auto observe = [](const probe::Mesh& m, std::uint64_t seq,
                            bool cp) {
      return Request{ObserveRequest{
          "fuzz", m, cp ? std::optional(control_plane()) : std::nullopt,
          seq == 0 ? std::nullopt : std::optional(seq)}};
    };
    const auto batch = [](const probe::Mesh& m, std::uint64_t seq) {
      return Request{ObserveBatchRequest{
          "fuzz",
          "agent-1",
          {ObserveItem{seq, m, std::nullopt, std::nullopt}},
          std::nullopt}};
    };
    Server server(options(root_ + "/template"));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    auto c = Client::connect(server.endpoint(), &error);
    ASSERT_TRUE(c.has_value()) << error;
    for (const Request& req :
         {Request{HelloRequest{"fuzz", config_, std::nullopt}},
          Request{SetBaselineRequest{"fuzz", up, std::nullopt}},
          observe(up, 0, false),
          observe(down, 1, true), batch(up, 1), batch(down, 2),
          observe(down, 2, false), observe(up, 3, false),
          // SNAPSHOT at LSN 8; the tail follows.
          batch(down, 3), observe(down, 4, true),
          Request{SetBaselineRequest{"fuzz", up, std::nullopt}},
          observe(down, 0, false),
          batch(down, 1), observe(up, 5, false),
          Request{HelloRequest{"sibling", config_, std::nullopt}},
          Request{SetBaselineRequest{"sibling", up, std::nullopt}},
          Request{ObserveRequest{"sibling", down, std::nullopt}},
          Request{ObserveRequest{"sibling", down, std::nullopt}}}) {
      const auto rsp = call(*c, req);
      ASSERT_TRUE(rsp.has_value());
      ASSERT_EQ(std::get_if<ErrorResponse>(&*rsp), nullptr) << serialize(*rsp);
    }
    const auto q = call(*c, Request{QueryRequest{"sibling", std::nullopt}});
    ASSERT_TRUE(q.has_value());
    ASSERT_NE(serialize(*q).find("\"diagnosis\""), std::string::npos);
    sibling_query_ = serialize(*q);
    c->close();
    server.stop();
    ASSERT_TRUE(fs::exists(root_ + "/template/sessions/fuzz/SNAPSHOT"));
  }

  /// Copies the template to `dir` and applies seed's mutation to "fuzz".
  /// Returns the pair count of the baseline recovery must end on.
  std::size_t write_mutant(const std::string& dir, util::Rng& rng) {
    fs::remove_all(dir);
    fs::copy(root_ + "/template", dir, fs::copy_options::recursive);
    const std::string sdir = dir + "/sessions/fuzz";
    std::string error;
    auto snapshot = Json::parse(*util::read_file(sdir + "/SNAPSHOT", &error));
    std::vector<std::string> segments;
    for (const auto& e : fs::directory_iterator(sdir)) {
      if (e.path().extension() == ".ndj") segments.push_back(e.path().string());
    }
    std::sort(segments.begin(), segments.end());
    std::vector<Json> records;
    std::uint64_t first_lsn = 0;
    for (const auto& seg : segments) {
      (void)util::record_log::scan(
          *util::read_file(seg, &error),
          [&](std::uint64_t lsn, std::string_view payload) {
            if (first_lsn == 0) first_lsn = lsn;
            records.push_back(*Json::parse(payload));
            return true;
          });
      fs::remove(seg);
    }
    EXPECT_GE(records.size(), 2u);

    const auto n = static_cast<std::uint32_t>(records.size());
    const std::uint32_t op = rng.uniform(0, 9);
    if (op == 0) {  // reorder
      const std::uint32_t a = rng.uniform(0, n - 1);
      std::swap(records[a], records[rng.uniform(0, n - 1)]);
    } else if (op == 1) {  // duplicate
      const Json copy = records[rng.uniform(0, n - 1)];
      records.insert(records.begin() + rng.uniform(0, n), copy);
    } else {
      const std::uint32_t target = rng.uniform(0, n);  // n: the SNAPSHOT
      Json& doc = target == n ? *snapshot : records[target];
      doc = mutated(doc, rng);
    }

    std::string bytes;
    std::uint64_t lsn = first_lsn;
    for (const Json& rec : records) {
      bytes += util::record_log::encode_record(lsn++, rec.dump());
    }
    char name[64];
    std::snprintf(name, sizeof(name), "/wal-%020llu.ndj",
                  static_cast<unsigned long long>(first_lsn));
    EXPECT_TRUE(util::atomic_write_file(sdir + name, bytes, &error)) << error;
    EXPECT_TRUE(util::atomic_write_file(sdir + "/SNAPSHOT",
                                        snapshot->dump() + "\n", &error))
        << error;

    // The baseline a successful recovery ends on: the snapshot's, unless a
    // baseline record replaces it.
    std::size_t pairs = mesh_pairs(*snapshot, "baseline");
    for (const Json& rec : records) {
      const Json* t = rec.find("t");
      if (t != nullptr && t->is_string() && t->as_string() == "baseline") {
        pairs = mesh_pairs(rec, "mesh");
      }
    }
    return pairs;
  }

  /// The verdict `netdiag wal` renders on session directory `sdir`: why
  /// recovery would quarantine it, or "".
  static std::string verdict(const std::string& sdir) {
    Inspection insp;
    std::string error;
    EXPECT_TRUE(inspect_session_dir(sdir, &insp, &error)) << error;
    std::map<std::string, std::uint64_t> watermarks;
    return session_damage(insp, &watermarks);
  }

  /// Starts a server over the mutant; false once a check failed.
  bool check_mutant(const std::string& dir, std::size_t pairs,
                    bool* quarantined) {
    const std::string sdir = dir + "/sessions/fuzz";
    std::vector<std::pair<std::string, std::uintmax_t>> files;
    for (const auto& e : fs::directory_iterator(sdir)) {
      files.emplace_back(e.path().string(), fs::file_size(e.path()));
    }
    Server server(options(dir));
    std::string error;
    if (!server.start(&error)) {
      ADD_FAILURE() << "start: " << error;
      return false;
    }
    auto c = Client::connect(server.endpoint(), &error);
    if (!c.has_value()) {
      ADD_FAILURE() << error;
      return false;
    }
    const auto sibling =
        call(*c, Request{QueryRequest{"sibling", std::nullopt}});
    EXPECT_TRUE(sibling.has_value() && serialize(*sibling) == sibling_query_)
        << (sibling ? serialize(*sibling) : "no response");

    const auto query = call(*c, Request{QueryRequest{"fuzz", std::nullopt}});
    if (!query.has_value()) return false;
    const auto* err = std::get_if<ErrorResponse>(&*query);
    *quarantined = err != nullptr;
    if (*quarantined) {
      EXPECT_EQ(err->code, kErrUnknownSession) << err->message;
      for (const auto& [path, size] : files) {
        EXPECT_FALSE(fs::exists(path)) << path;
        EXPECT_TRUE(fs::exists(path + ".quarantined") &&
                    fs::file_size(path + ".quarantined") == size)
            << path;
      }
    } else {
      EXPECT_NE(std::get_if<QueryResponse>(&*query), nullptr);
      // A mutated config recovers as a different, valid one.
      const auto hello =
          call(*c, Request{HelloRequest{"fuzz", config_, std::nullopt}});
      if (!hello.has_value()) return false;
      const auto* herr = std::get_if<ErrorResponse>(&*hello);
      EXPECT_TRUE(herr == nullptr ||
                  herr->message.find("different config") != std::string::npos)
          << serialize(*hello);
      // Two rounds with a failed pair: the second reaches the threshold
      // of the template's config, so the recovered baseline is diagnosed.
      const Request observe =
          ObserveRequest{"fuzz", mesh_of(pairs, 1), std::nullopt};
      for (int round = 0; round < 2; ++round) {
        const auto obs = call(*c, observe);
        if (!obs.has_value()) return false;
        const auto* oerr = std::get_if<ErrorResponse>(&*obs);
        EXPECT_TRUE(oerr == nullptr ||
                    (pairs == 0 && oerr->code == kErrNoBaseline))
            << pairs << " pairs: " << serialize(*obs);
      }
    }
    c->close();
    server.stop();
    return !::testing::Test::HasFailure();
  }

  std::string root_;
  SessionConfig config_;
  std::string sibling_query_;
};

TEST_F(RecoveryFuzz, MutatedSessionRecoversOrIsQuarantinedWhole) {
  std::size_t quarantined = 0;
  for (std::size_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    util::Rng rng(seed);
    const std::string dir = root_ + "/mutant";
    const std::size_t pairs = write_mutant(dir, rng);
    const std::string damage = verdict(dir + "/sessions/fuzz");
    bool q = false;
    if (!check_mutant(dir, pairs, &q)) break;  // first failing seed only
    ASSERT_EQ(!damage.empty(), q) << damage;
    quarantined += q ? 1 : 0;
  }
  std::cout << "[ recovery fuzz ] " << kSeeds << " seeds: "
            << kSeeds - quarantined << " recovered, " << quarantined
            << " quarantined\n";
}

}  // namespace
}  // namespace netd::svc
