#include "svc/trace.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exp/runner.h"
#include "svc/journal.h"

namespace netd::svc {
namespace {

/// A real (small) scenario's trace, produced by the exp runner. Shared
/// across tests — recording is the expensive part.
const std::string& scenario_trace() {
  static const std::string trace = [] {
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
    const auto episodes = runner.record_trace(os, scfg, &error);
    EXPECT_TRUE(episodes.has_value()) << error;
    EXPECT_GT(*episodes, 0u);
    return os.str();
  }();
  return trace;
}

TEST(Trace, RecorderWritesStructurallyValidJsonl) {
  std::istringstream is(scenario_trace());
  std::string error;
  const auto trace = read_trace(is, &error);
  ASSERT_TRUE(trace.has_value()) << error;
  ASSERT_FALSE(trace->empty());
  EXPECT_EQ(trace->front().type, TraceRecord::Type::kConfig);
  EXPECT_EQ(trace->front().config.alarm_threshold, 2u);
  std::size_t baselines = 0, rounds = 0, diagnoses = 0;
  for (const auto& rec : *trace) {
    switch (rec.type) {
      case TraceRecord::Type::kConfig: break;
      case TraceRecord::Type::kBaseline: ++baselines; break;
      case TraceRecord::Type::kRound: ++rounds; break;
      case TraceRecord::Type::kDiagnosis:
        ++diagnoses;
        EXPECT_FALSE(rec.diagnosis.empty());
        break;
    }
  }
  EXPECT_GT(baselines, 0u);
  // Each episode feeds exactly alarm_threshold rounds and must diagnose.
  EXPECT_EQ(rounds, 2 * baselines);
  EXPECT_EQ(diagnoses, baselines);
}

TEST(Trace, InProcessReplayReproducesEveryDiagnosis) {
  std::istringstream is(scenario_trace());
  std::string error;
  const auto trace = read_trace(is, &error);
  ASSERT_TRUE(trace.has_value()) << error;
  const ReplayResult result = replay_in_process(*trace);
  EXPECT_TRUE(result.ok()) << result.mismatches.front();
  EXPECT_GT(result.baselines, 0u);
  EXPECT_EQ(result.rounds, 2 * result.baselines);
  EXPECT_EQ(result.diagnoses, result.baselines);
}

TEST(Trace, ReplayFlagsACorruptedDiagnosis) {
  std::istringstream is(scenario_trace());
  std::string error;
  auto trace = read_trace(is, &error);
  ASSERT_TRUE(trace.has_value()) << error;
  for (auto& rec : *trace) {
    if (rec.type == TraceRecord::Type::kDiagnosis) {
      rec.diagnosis = R"({"links":[],"ases":[]})";  // not what the run saw
      break;
    }
  }
  const ReplayResult result = replay_in_process(*trace);
  EXPECT_FALSE(result.ok());
}

TEST(Trace, RejectsStructurallyInvalidStreams) {
  const std::string config =
      R"({"v":1,"type":"config","config":)"
      R"({"threshold":1,"algo":"nd-bgpigp","granularity":"per-neighbor"}})";
  const std::string mesh = R"("mesh":{"paths":[]})";
  // Two unreachable pairs, (0,1) then (1,0), and rounds that do not fit.
  const std::string p01 =
      R"({"src":0,"dst":1,"ok":false,"hops":[],"links":[]})";
  const std::string p10 =
      R"({"src":1,"dst":0,"ok":false,"hops":[],"links":[]})";
  auto episode = [&](const std::string& round_paths) {
    return config + "\n" + R"({"v":1,"type":"baseline","mesh":{"paths":[)" +
           p01 + "," + p10 + "]}}\n" +
           R"({"v":1,"type":"round","mesh":{"paths":[)" + round_paths +
           "]}}\n";
  };
  struct Case {
    std::string text;
    std::string why;
  };
  const std::vector<Case> cases = {
      {"", "empty trace"},
      {"{not json}\n", "malformed line"},
      {R"({"v":1,"type":"baseline",)" + mesh + "}\n", "no config first"},
      {config + "\n" + R"({"v":1,"type":"round",)" + mesh + "}\n",
       "round before baseline"},
      {config + "\n" + config + "\n", "config repeated"},
      {config + "\n" + R"({"v":1,"type":"wat"})" + "\n", "unknown type"},
      {R"({"v":9,"type":"config","config":{}})" + std::string("\n"),
       "unsupported version"},
      {episode(p01), "round narrower than its baseline"},
      {episode(p10 + "," + p01), "round pairs out of the baseline's order"},
      // The version is exactly 1, and AS numbers are ints, not whatever
      // a cast of a fraction or a 64-bit value leaves.
      {R"({"v":1.5,"type":"config","config":)"
       R"({"threshold":1,"algo":"nd-bgpigp","granularity":"per-neighbor"}})"
       "\n",
       "fractional version"},
      {config + "\n" + R"({"v":1e0,"type":"baseline",)" + mesh + "}\n",
       "exponent version"},
      {config + "\n" + R"({"v":1,"type":"baseline","mesh":{"paths":[)" +
           R"({"src":0,"dst":1,"ok":true,"hops":[["s0","s",4294967300,-1]],)" +
           R"("links":[]}]}})" + "\n",
       "hop asn past 32 bits"},
      {config + "\n" + R"({"v":1,"type":"baseline","mesh":{"paths":[)" +
           R"({"src":0,"dst":1,"ok":true,"hops":[["s0","s",4.7,-1]],)" +
           R"("links":[]}]}})" + "\n",
       "fractional hop asn"},
      {episode(p01 + "," + p10) +
           R"({"v":1,"type":"round","mesh":{"paths":[)" + p01 + "," + p10 +
           R"(]},"cp":{"igp":[],"wd":[["AS1>AS2",4294967301]]}})" + "\n",
       "withdrawal dest_asn past 32 bits"},
  };
  for (const auto& c : cases) {
    std::istringstream is(c.text);
    std::string error;
    EXPECT_FALSE(read_trace(is, &error).has_value()) << c.why;
    EXPECT_FALSE(error.empty()) << c.why;
  }
  std::istringstream swapped(episode(p10 + "," + p01));
  std::string error;
  ASSERT_FALSE(read_trace(swapped, &error).has_value());
  EXPECT_EQ(error,
            "trace line 3: mesh pair 0 is (1,0) but the baseline's pair 0 is "
            "(0,1)");
  std::istringstream aligned(episode(p01 + "," + p10));
  EXPECT_TRUE(read_trace(aligned, &error).has_value()) << error;

  // The same rules over a session journal's records, plus the field rules
  // of the requests those records come from.
  const std::string hello =
      R"({"t":"hello","config":)"
      R"({"threshold":1,"algo":"nd-bgpigp","granularity":"per-neighbor"}})";
  const std::string base =
      R"({"t":"baseline","mesh":{"paths":[)" + p01 + "," + p10 + "]}}";
  auto obs = [](const std::string& head, const std::string& paths) {
    return R"({"t":)" + head + R"(,"mesh":{"paths":[)" + paths + "]}}";
  };
  const std::string pairs = p01 + "," + p10;
  const std::vector<std::pair<std::vector<std::string>, std::string>>
      journals = {
          {{}, "names the session config"},
          {{base}, "config record must come first"},
          {{hello, hello}, "config must be the first record"},
          {{hello, obs(R"("obs")", pairs)}, "round before baseline"},
          {{hello, base, obs(R"("bobs","src":"a","seq":1)", p01)},
           "mesh covers 1 pairs but the baseline covers 2"},
          {{hello, base, obs(R"("obs")", p10 + "," + p01)},
           "mesh pair 0 is (1,0) but the baseline's pair 0 is (0,1)"},
          {{hello, base, obs(R"("bobs","src":"","seq":1)", pairs)},
           "src must not be empty"},
          {{hello, base, obs(R"("bobs","seq":1)", pairs)},
           "missing src"},
          {{hello, base, obs(R"("bobs","src":"a","seq":0)", pairs)},
           "seq must be >= 1"},
          {{hello, base, obs(R"("bobs","src":"a")", pairs)},
           "seq must be >= 1"},
          {{hello, base, obs(R"("obs","seq":0)", pairs)}, "seq must be >= 1"},
          {{hello, base, obs(R"("round")", pairs)}, "unknown record type"},
      };
  const auto judge = [](const std::vector<std::string>& records,
                        std::map<std::string, std::uint64_t>* acks) {
    SessionReader reader(std::nullopt);
    for (std::size_t i = 0; i < records.size(); ++i) {
      (void)reader.next(i + 1, records[i]);
    }
    if (acks != nullptr) *acks = reader.rules.watermarks;
    return reader.damage();
  };
  for (const auto& [records, why] : journals) {
    EXPECT_NE(judge(records, nullptr).find(why), std::string::npos) << why;
  }
  std::map<std::string, std::uint64_t> acks;
  EXPECT_EQ(judge({hello, base, obs(R"("obs","seq":2)", pairs),
                   obs(R"("bobs","src":"a","seq":1)", pairs)},
                  &acks),
            "");
  EXPECT_EQ(acks, (std::map<std::string, std::uint64_t>{{"", 2}, {"a", 1}}));
  EXPECT_EQ(judge({hello, base, obs(R"("obs","seq":2)", pairs), base}, &acks),
            "");
  EXPECT_TRUE(acks.empty());
}

TEST(Trace, DiagnosisRoundMustMatchStreamPosition) {
  std::string text = scenario_trace();
  // Tamper with the first diagnosis's round field.
  const auto pos = text.find(R"("type":"diagnosis","round":)");
  ASSERT_NE(pos, std::string::npos);
  const auto digit = pos + std::string(R"("type":"diagnosis","round":)").size();
  text[digit] = '9';
  std::istringstream is(text);
  std::string error;
  EXPECT_FALSE(read_trace(is, &error).has_value());
  EXPECT_NE(error.find("round"), std::string::npos) << error;
}

TEST(Trace, RecorderCountsRoundsPerEpisode) {
  std::ostringstream os;
  SessionConfig cfg;
  TraceRecorder rec(os, cfg);
  probe::Mesh empty;
  rec.baseline(empty);
  rec.round(empty, nullptr);
  rec.round(empty, nullptr);
  EXPECT_EQ(rec.rounds(), 2u);
  rec.baseline(empty);  // new episode resets the counter
  EXPECT_EQ(rec.rounds(), 0u);
}

}  // namespace
}  // namespace netd::svc
