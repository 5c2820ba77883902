// Crash-safe campaign contract: a campaign interrupted after any
// placement and resumed from its checkpoint produces byte-identical
// results (score mode: CSV rows; record mode: trace bytes) to an
// uninterrupted run, for any thread count — and the per-trial watchdog
// quarantines stuck trials without aborting the campaign, with
// replay_placement() recovering their results afterwards.
#include "exp/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "util/atomic_file.h"

namespace netd::exp {
namespace {

const std::vector<Algo> kAlgos = {Algo::kTomo, Algo::kNdBgpIgp};

ScenarioConfig small_cfg() {
  ScenarioConfig cfg;
  cfg.num_placements = 4;
  cfg.trials_per_placement = 3;
  cfg.seed = 2026;
  return cfg;
}

std::string csv_of(const CampaignResult& r, const std::vector<Algo>& algos) {
  std::ostringstream os;
  write_csv(os, r.trials, algos);
  return os.str();
}

/// Runs the campaign one placement at a time, constructing a fresh Runner
/// per chunk — each iteration simulates a process that died and restarted
/// from the checkpoint.
CampaignResult run_chunked(const ScenarioConfig& cfg,
                           const std::vector<Algo>& algos,
                           const std::string& ck_path) {
  CampaignOptions opts;
  opts.checkpoint_path = ck_path;
  opts.resume = true;
  opts.max_new_placements = 1;
  for (int iter = 0; iter < 64; ++iter) {
    Runner runner(cfg);
    std::string error;
    auto r = runner.run_campaign(algos, opts, &error);
    EXPECT_TRUE(r.has_value()) << error;
    if (!r) break;
    if (r->complete()) return *r;
  }
  ADD_FAILURE() << "campaign never completed";
  return {};
}

TEST(CheckpointResume, ChunkedResumeMatchesStraightRunAcrossThreadCounts) {
  const ScenarioConfig base = small_cfg();

  ScenarioConfig straight_cfg = base;
  straight_cfg.num_threads = 1;
  Runner straight(straight_cfg);
  const auto ref = straight.run_campaign(kAlgos, {});
  ASSERT_TRUE(ref.has_value());
  ASSERT_TRUE(ref->complete());
  ASSERT_FALSE(ref->trials.empty());
  const std::string ref_csv = csv_of(*ref, kAlgos);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ScenarioConfig cfg = base;
    cfg.num_threads = threads;
    // run() returns run_campaign(algos, {})'s results, minus positions.
    Runner plain(cfg);
    const auto results = plain.run(kAlgos);
    ASSERT_EQ(results.size(), ref->trials.size());
    CampaignResult projected = *ref;
    for (std::size_t i = 0; i < results.size(); ++i) {
      projected.trials[i].result = results[i];
    }
    EXPECT_EQ(csv_of(projected, kAlgos), ref_csv) << "run, threads=" << threads;

    const std::string ck_path = ::testing::TempDir() +
                                "/netd_resume_ck_t" +
                                std::to_string(threads) + ".json";
    std::remove(ck_path.c_str());
    const auto chunked = run_chunked(cfg, kAlgos, ck_path);
    EXPECT_EQ(csv_of(chunked, kAlgos), ref_csv) << "threads=" << threads;
    EXPECT_EQ(chunked.resumed_placements, base.num_placements - 1);
    EXPECT_TRUE(chunked.quarantined.empty());
    std::remove(ck_path.c_str());
  }

  // After a first chunk, a chunk budget past the campaign's end (here the
  // largest one) runs exactly the placements that are left.
  ScenarioConfig cfg = base;
  cfg.num_threads = 4;
  const std::string ck_path = ::testing::TempDir() + "/netd_resume_rest.json";
  std::remove(ck_path.c_str());
  CampaignOptions opts;
  opts.checkpoint_path = ck_path;
  opts.resume = true;
  std::optional<CampaignResult> rest;
  for (const std::size_t chunk :
       {std::size_t{1}, std::numeric_limits<std::size_t>::max()}) {
    opts.max_new_placements = chunk;
    Runner runner(cfg);
    rest = runner.run_campaign(kAlgos, opts);
    ASSERT_TRUE(rest.has_value());
  }
  EXPECT_TRUE(rest->complete());
  EXPECT_EQ(csv_of(*rest, kAlgos), ref_csv);
  std::remove(ck_path.c_str());
}

TEST(CheckpointResume, RecordModeResumeIsByteIdenticalDespiteTornTail) {
  ScenarioConfig cfg = small_cfg();
  svc::SessionConfig sc;
  sc.alarm_threshold = 2;

  const std::string dir = ::testing::TempDir();
  const std::string trace_a = dir + "/netd_resume_a.jsonl";
  const std::string trace_b = dir + "/netd_resume_b.jsonl";
  const std::string ck_b = dir + "/netd_resume_b.ck.json";
  std::remove(trace_a.c_str());
  std::remove(trace_b.c_str());
  std::remove(ck_b.c_str());

  ScenarioConfig straight_cfg = cfg;
  straight_cfg.num_threads = 1;
  Runner straight(straight_cfg);
  std::string error;
  const auto ref = straight.record_campaign(trace_a, sc, {}, &error);
  ASSERT_TRUE(ref.has_value()) << error;
  ASSERT_TRUE(ref->complete());

  ScenarioConfig chunk_cfg = cfg;
  chunk_cfg.num_threads = 4;
  CampaignOptions opts;
  opts.checkpoint_path = ck_b;
  opts.resume = true;
  opts.max_new_placements = 1;
  for (int iter = 0; iter < 64; ++iter) {
    Runner runner(chunk_cfg);
    auto r = runner.record_campaign(trace_b, sc, opts, &error);
    ASSERT_TRUE(r.has_value()) << error;
    if (r->complete()) break;
    // Simulate a crash mid-write: a partial line past the committed
    // offset. Resume must truncate it away.
    std::ofstream torn(trace_b, std::ios::app | std::ios::binary);
    torn << "{\"v\":1,\"type\":\"round\",\"mesh\":{\"partial";
  }

  const auto a = util::read_file(trace_a, &error);
  ASSERT_TRUE(a.has_value()) << error;
  const auto b = util::read_file(trace_b, &error);
  ASSERT_TRUE(b.has_value()) << error;
  EXPECT_FALSE(a->empty());
  EXPECT_EQ(*a, *b);

  // Every record entry point writes the same bytes at every thread count:
  // record_trace()'s stream, and record_campaign()'s file with and without
  // a checkpoint.
  const std::string trace_c = dir + "/netd_resume_c.jsonl";
  const std::string ck_c = dir + "/netd_resume_c.ck.json";
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ScenarioConfig tcfg = cfg;
    tcfg.num_threads = threads;
    std::ostringstream os;
    Runner streamed(tcfg);
    ASSERT_TRUE(streamed.record_trace(os, sc, &error).has_value()) << error;
    EXPECT_EQ(os.str(), *a) << "record_trace, threads=" << threads;
    for (const bool checkpointed : {false, true}) {
      std::remove(trace_c.c_str());
      std::remove(ck_c.c_str());
      CampaignOptions copts;
      if (checkpointed) copts.checkpoint_path = ck_c;
      Runner filed(tcfg);
      ASSERT_TRUE(filed.record_campaign(trace_c, sc, copts, &error).has_value())
          << error;
      const auto c = util::read_file(trace_c, &error);
      ASSERT_TRUE(c.has_value()) << error;
      EXPECT_EQ(*c, *a) << "record_campaign, threads=" << threads
                        << " checkpointed=" << checkpointed;
    }
  }

  std::remove(trace_a.c_str());
  std::remove(trace_b.c_str());
  std::remove(ck_b.c_str());
  std::remove(trace_c.c_str());
  std::remove(ck_c.c_str());
}

TEST(CheckpointResume, WatchdogQuarantinesEveryTrialWithoutAborting) {
  ScenarioConfig cfg = small_cfg();
  cfg.num_threads = 1;
  cfg.trial_deadline_ms = 1;
  // Fake monotonic clock: every observation jumps far past the deadline,
  // so the very first cooperative check in each trial quarantines it.
  auto tick = std::make_shared<std::uint64_t>(0);
  cfg.now_ms = [tick] { return *tick += 1000; };

  Runner runner(cfg);
  const auto r = runner.run_campaign(kAlgos, {});
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->complete());
  EXPECT_TRUE(r->trials.empty());
  EXPECT_EQ(r->quarantined.size(),
            cfg.num_placements * cfg.trials_per_placement);
  for (const auto& q : r->quarantined) {
    EXPECT_LT(q.placement, cfg.num_placements);
    EXPECT_LT(q.trial, cfg.trials_per_placement);
    EXPECT_NE(q.seed, 0u);
  }
}

TEST(CheckpointResume, ReplayPlacementRecoversDeadlineFreeResults) {
  const ScenarioConfig base = small_cfg();

  ScenarioConfig clean_cfg = base;
  clean_cfg.num_threads = 1;
  Runner clean(clean_cfg);
  const auto ref = clean.run_campaign(kAlgos, {});
  ASSERT_TRUE(ref.has_value());

  ScenarioConfig qcfg = base;
  qcfg.num_threads = 1;
  qcfg.trial_deadline_ms = 1;
  auto tick = std::make_shared<std::uint64_t>(0);
  qcfg.now_ms = [tick] { return *tick += 1000; };
  Runner quarantined_run(qcfg);
  const auto q = quarantined_run.run_campaign(kAlgos, {});
  ASSERT_TRUE(q.has_value());
  ASSERT_FALSE(q->quarantined.empty());

  // Replaying the quarantined placement with the watchdog off yields the
  // same rows the uninterrupted deadline-free campaign produced.
  Runner replayer(base);
  const std::size_t pl = q->quarantined.front().placement;
  const auto replayed = replayer.replay_placement(pl, kAlgos, false);
  std::vector<ScoredTrial> expected;
  for (const auto& t : ref->trials) {
    if (t.placement == pl) expected.push_back(t);
  }
  std::ostringstream got_csv, want_csv;
  write_csv(got_csv, replayed, kAlgos);
  write_csv(want_csv, expected, kAlgos);
  EXPECT_EQ(got_csv.str(), want_csv.str());
}

TEST(CheckpointResume, ResumeRejectsForeignCheckpoint) {
  const std::string ck_path =
      ::testing::TempDir() + "/netd_resume_foreign.ck.json";
  std::remove(ck_path.c_str());

  ScenarioConfig cfg = small_cfg();
  cfg.num_threads = 1;
  CampaignOptions opts;
  opts.checkpoint_path = ck_path;
  opts.resume = true;
  opts.max_new_placements = 1;
  Runner first(cfg);
  std::string error;
  ASSERT_TRUE(first.run_campaign(kAlgos, opts, &error).has_value()) << error;

  ScenarioConfig other = cfg;
  other.seed = 777;  // different campaign identity
  Runner second(other);
  error.clear();
  EXPECT_FALSE(second.run_campaign(kAlgos, opts, &error).has_value());
  EXPECT_FALSE(error.empty());

  std::remove(ck_path.c_str());
}

TEST(CheckpointResume, CodecRoundTripsByteIdentically) {
  ScenarioConfig cfg = small_cfg();
  cfg.mode = FailureMode::kMisconfigPlusLink;
  cfg.frac_blocked = 0.25;
  cfg.frac_lg = 0.75;
  cfg.operator_at_core = false;
  cfg.seed = 18446744073709551615ull;  // u64 range must survive the codec

  Checkpoint ck;
  ck.scenario = cfg;
  ck.algos = {Algo::kNdLg};
  ck.completed_placements = 1;
  ck.episodes = 2;
  std::vector<ScoredTrial> bucket;
  ScoredTrial st;
  st.placement = 0;
  st.trial = 2;
  st.result.diagnosability = 1.0 / 3.0;
  st.result.router_detected = true;
  core::LinkMetrics lm;
  lm.sensitivity = 0.1 + 0.2;  // 0.30000000000000004: needs 17 digits
  lm.specificity = 1.0;
  lm.hypothesis_size = 3;
  lm.num_probed = 41;
  st.result.link[Algo::kNdLg] = lm;
  core::AsMetrics am;
  am.sensitivity = 2.0 / 3.0;
  am.specificity = 0.5;
  am.hypothesis_size = 2;
  st.result.as_level[Algo::kNdLg] = am;
  bucket.push_back(st);
  ck.results.push_back(std::move(bucket));
  ck.quarantined.push_back({0, 1, 987654321987654321ull});

  const std::string dumped = ck.to_json().dump();
  std::string error;
  const auto parsed = svc::Json::parse(dumped, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const auto back = Checkpoint::from_json(*parsed, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->to_json().dump(), dumped);
  EXPECT_EQ(back->fingerprint(), ck.fingerprint());
  EXPECT_EQ(back->scenario.seed, cfg.seed);
  ASSERT_EQ(back->results.size(), 1u);
  ASSERT_EQ(back->results[0].size(), 1u);
  const auto& rt = back->results[0][0].result;
  EXPECT_EQ(rt.link.at(Algo::kNdLg).sensitivity, lm.sensitivity);
  EXPECT_EQ(rt.as_level.at(Algo::kNdLg).sensitivity, am.sensitivity);
  ASSERT_EQ(back->quarantined.size(), 1u);
  EXPECT_EQ(back->quarantined[0].seed, 987654321987654321ull);
}

TEST(CheckpointResume, FingerprintSeparatesModesAndAlgos) {
  Checkpoint score;
  score.scenario = small_cfg();
  score.algos = {Algo::kTomo};

  Checkpoint more_algos = score;
  more_algos.algos = {Algo::kTomo, Algo::kNdEdge};
  EXPECT_NE(score.fingerprint(), more_algos.fingerprint());

  Checkpoint record = score;
  record.algos.clear();
  record.recording = true;
  EXPECT_NE(score.fingerprint(), record.fingerprint());

  // Thread count and the watchdog deadline are replay knobs, not campaign
  // identity: changing them must not invalidate a checkpoint.
  Checkpoint tuned = score;
  tuned.scenario.num_threads = 8;
  tuned.scenario.trial_deadline_ms = 500;
  EXPECT_EQ(score.fingerprint(), tuned.fingerprint());
}

}  // namespace
}  // namespace netd::exp
