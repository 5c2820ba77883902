// The parallel runner's contract: sharding placements across worker
// threads must be invisible in the results. A run with num_threads=N is
// required to produce byte-identical TrialResult sequences (and identical
// for_each_episode callback sequences, in the same order) as num_threads=1
// for the same seed, across failure modes and all four algorithms.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "exp/runner.h"

namespace netd::exp {
namespace {

const std::vector<Algo> kAllAlgos = {Algo::kTomo, Algo::kNdEdge,
                                     Algo::kNdBgpIgp, Algo::kNdLg};

/// Exact text form of a trial sequence; doubles are printed with max
/// precision so any bit drift shows up.
std::string signature(const std::vector<TrialResult>& rs) {
  std::ostringstream os;
  os.precision(17);
  for (const auto& r : rs) {
    os << "d=" << r.diagnosability << " rd=" << r.router_detected;
    for (const auto& [algo, m] : r.link) {
      os << " L" << to_string(algo) << "=" << m.sensitivity << "/"
         << m.specificity << "/" << m.hypothesis_size << "/" << m.num_probed;
    }
    for (const auto& [algo, m] : r.as_level) {
      os << " A" << to_string(algo) << "=" << m.sensitivity << "/"
         << m.specificity << "/" << m.hypothesis_size;
    }
    os << "\n";
  }
  return os.str();
}

ScenarioConfig base_cfg(FailureMode mode) {
  ScenarioConfig cfg;
  cfg.num_placements = 3;
  cfg.trials_per_placement = 4;
  cfg.seed = 2026;
  cfg.mode = mode;
  return cfg;
}

std::string run_with_threads(ScenarioConfig cfg, std::size_t threads) {
  cfg.num_threads = threads;
  Runner runner(cfg);
  return signature(runner.run(kAllAlgos));
}

TEST(ParallelDeterminism, LinkFailuresMatchSerial) {
  ScenarioConfig cfg = base_cfg(FailureMode::kLinks);
  cfg.num_link_failures = 2;
  cfg.frac_blocked = 0.25;  // exercise UHs + the LG path under sharding
  const std::string serial = run_with_threads(cfg, 1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, run_with_threads(cfg, 4));
}

TEST(ParallelDeterminism, MisconfigMatchesSerial) {
  const ScenarioConfig cfg = base_cfg(FailureMode::kMisconfig);
  const std::string serial = run_with_threads(cfg, 1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, run_with_threads(cfg, 4));
}

TEST(ParallelDeterminism, ThreadCountOverNumPlacementsClamps) {
  ScenarioConfig cfg = base_cfg(FailureMode::kLinks);
  const std::string serial = run_with_threads(cfg, 1);
  EXPECT_EQ(serial, run_with_threads(cfg, 64));
}

/// for_each_episode must run every callback on the calling thread, in
/// exactly the serial episode order.
TEST(ParallelDeterminism, EpisodeCallbacksReplayInPlacementOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  auto episodes_sig = [&](std::size_t threads) {
    ScenarioConfig cfg;
    cfg.num_placements = 3;
    cfg.trials_per_placement = 3;
    cfg.seed = 77;
    cfg.frac_blocked = 0.3;
    cfg.num_threads = threads;
    Runner runner(cfg);
    std::string sig;
    runner.for_each_episode([&](const EpisodeContext& ep) {
      EXPECT_EQ(std::this_thread::get_id(), caller) << "threads=" << threads;
      sig += "[";
      for (const auto& l : ep.failed_links) sig += l + ";";
      for (int a : ep.failed_ases) sig += std::to_string(a) + ",";
      sig += ep.lg != nullptr ? "lg" : "nolg";
      std::size_t broken = 0;
      for (std::size_t k = 0; k < ep.before.paths.size(); ++k) {
        broken += ep.before.paths[k].ok && !ep.after.paths[k].ok;
      }
      sig += ":" + std::to_string(broken) + "]";
    });
    return sig;
  };
  const std::string serial = episodes_sig(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, episodes_sig(3));
}

}  // namespace
}  // namespace netd::exp
