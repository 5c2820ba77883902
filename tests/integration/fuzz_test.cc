// Randomized robustness suites: synthetic meshes, malformed inputs, and
// ECMP-rich substrates, swept over seeds.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "core/algorithms.h"
#include "exp/checkpoint.h"
#include "exp/runner.h"
#include "util/atomic_file.h"
#include "probe/prober.h"
#include "sim/network.h"
#include "topo/io.h"
#include "topo/random_internet.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/rng.h"

namespace netd {
namespace {

// ---------------------------------------------------------------------------
// Solver invariants on fully random synthetic meshes.
// ---------------------------------------------------------------------------

class SolverFuzz : public ::testing::TestWithParam<std::uint64_t> {};

/// Builds a random mesh over a small synthetic router pool; roughly half
/// the pairs fail at T+, a quarter reroute, the rest keep their path.
std::pair<probe::Mesh, probe::Mesh> random_meshes(util::Rng& rng) {
  const std::size_t sensors = 4 + rng.uniform(0, 3);
  const std::size_t routers = 6 + rng.uniform(0, 8);
  auto hop = [&](std::size_t r) {
    probe::Hop h;
    h.label = "r" + std::to_string(r);
    h.kind = graph::NodeKind::kRouter;
    h.asn = static_cast<int>(1 + r % 4);
    return h;
  };
  auto sensor_hop = [&](std::size_t s) {
    probe::Hop h;
    h.label = "s" + std::to_string(s);
    h.kind = graph::NodeKind::kSensor;
    h.asn = static_cast<int>(10 + s);
    return h;
  };
  auto random_path = [&](std::size_t i, std::size_t j) {
    probe::TracePath p;
    p.src = i;
    p.dst = j;
    p.ok = true;
    p.hops.push_back(sensor_hop(i));
    const std::size_t len = 2 + rng.uniform(0, 4);
    std::size_t prev = routers;  // sentinel
    for (std::size_t k = 0; k < len; ++k) {
      std::size_t r = rng.uniform(0, static_cast<std::uint32_t>(routers - 1));
      if (r == prev) r = (r + 1) % routers;
      p.hops.push_back(hop(r));
      prev = r;
    }
    p.hops.push_back(sensor_hop(j));
    return p;
  };

  probe::Mesh before, after;
  for (std::size_t i = 0; i < sensors; ++i) {
    for (std::size_t j = 0; j < sensors; ++j) {
      if (i == j) continue;
      auto b = random_path(i, j);
      before.paths.push_back(b);
      const double roll = rng.uniform01();
      if (roll < 0.4) {
        probe::TracePath failed;
        failed.src = i;
        failed.dst = j;
        failed.ok = false;
        failed.hops = {b.hops.front()};
        after.paths.push_back(std::move(failed));
      } else if (roll < 0.65) {
        after.paths.push_back(random_path(i, j));  // rerouted
      } else {
        after.paths.push_back(std::move(b));  // unchanged
      }
    }
  }
  return {std::move(before), std::move(after)};
}

TEST_P(SolverFuzz, InvariantsHoldOnRandomMeshes) {
  util::Rng rng(GetParam());
  for (int iter = 0; iter < 20; ++iter) {
    const auto [before, after] = random_meshes(rng);
    for (const auto mode :
         {core::LogicalMode::kNone, core::LogicalMode::kPerNeighbor,
          core::LogicalMode::kPerPrefix}) {
      const auto dg = core::build_diagnosis_graph(before, after, mode);
      for (const bool reroutes : {false, true}) {
        core::SolverOptions opt;
        opt.use_reroutes = reroutes;
        const auto res = core::solve(dg, opt);
        // Hypothesis keys are probed keys; ranked matches links.
        std::set<std::string> ranked_keys;
        for (const auto& r : res.ranked) {
          ranked_keys.insert(r.phys_key);
          EXPECT_GT(r.score, 0.0);
        }
        EXPECT_EQ(ranked_keys, res.links);
        for (const auto& k : res.links) {
          EXPECT_TRUE(dg.probed_keys.count(k));
        }
        // Every hypothesis edge is admissible: not on a working path
        // under the option's semantics.
        std::set<std::uint32_t> working;
        for (const auto& p : dg.paths) {
          if (!p.ok_after) continue;
          for (auto e : reroutes ? p.after : p.before) working.insert(e.value());
        }
        for (auto e : res.hypothesis_edges) {
          EXPECT_FALSE(working.count(e.value()));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverFuzz,
                         ::testing::Values(100, 200, 300, 400));

// ---------------------------------------------------------------------------
// Malformed input never crashes parsers.
// ---------------------------------------------------------------------------

TEST(ParserFuzz, TopoReaderSurvivesGarbage) {
  util::Rng rng(42);
  const std::vector<std::string> tokens = {
      "as",    "intra", "inter",   "core", "tier2", "stub",  "peer",
      "provider", "customer", "-1", "0",  "1",     "99999", "x",
      "netd-topology", "v1", "v2", "end", "", "#"};
  for (int iter = 0; iter < 200; ++iter) {
    std::string doc;
    const double header = rng.uniform01();
    if (header < 0.35) {
      doc = "netd-topology v1\n";
    } else if (header < 0.7) {
      doc = "netd-topology v2\n";
    }
    const std::size_t lines = rng.uniform(0, 8);
    for (std::size_t l = 0; l < lines; ++l) {
      const std::size_t words = rng.uniform(0, 5);
      for (std::size_t w = 0; w < words; ++w) {
        doc += rng.pick(tokens) + " ";
      }
      doc += "\n";
    }
    std::stringstream ss(doc);
    std::string error;
    const auto result = topo::read_text(ss, &error);
    if (!result) {
      EXPECT_FALSE(error.empty());
    }
  }
}

TEST(ParserFuzz, JsonDeepNestingNeverCrashes) {
  // Sweep container nesting around the public depth bound, mixing arrays
  // and objects: at or under util::Json::kMaxParseDepth the document
  // parses, beyond it the parser reports "nesting too deep" — never a
  // stack overflow. (The CI sanitizer job runs this under ASan+UBSan.)
  util::Rng rng(44);
  for (std::size_t depth = util::Json::kMaxParseDepth - 4;
       depth <= util::Json::kMaxParseDepth + 8; ++depth) {
    std::string open, close;
    for (std::size_t i = 0; i < depth; ++i) {
      if (rng.bernoulli(0.5)) {
        open += "[";
        close.insert(0, "]");
      } else {
        open += "{\"k\":";
        close.insert(0, "}");
      }
    }
    std::string error;
    const auto j = util::Json::parse(open + "0" + close, &error);
    if (depth <= util::Json::kMaxParseDepth) {
      EXPECT_TRUE(j.has_value()) << "depth " << depth << ": " << error;
    } else {
      EXPECT_FALSE(j.has_value()) << "depth " << depth;
      EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
    }
  }
}

TEST(ParserFuzz, TruncatedCheckpointNeverCrashes) {
  // A crash can leave a torn checkpoint only if the atomic-rename protocol
  // is bypassed (e.g. a partial copy off a dying disk); Checkpoint::load
  // must reject every proper prefix of a valid document with a structured
  // error, never crash or return a half-built checkpoint.
  exp::ScenarioConfig cfg;
  cfg.num_placements = 2;
  cfg.trials_per_placement = 2;
  exp::Checkpoint ck;
  ck.scenario = cfg;
  ck.algos = {exp::Algo::kTomo, exp::Algo::kNdBgpIgp};
  ck.completed_placements = 2;
  ck.episodes = 3;
  for (std::size_t pl = 0; pl < 2; ++pl) {
    std::vector<exp::ScoredTrial> bucket;
    exp::ScoredTrial st;
    st.placement = pl;
    st.trial = 0;
    st.result.diagnosability = 0.5 + 0.25 * static_cast<double>(pl);
    core::LinkMetrics lm;
    lm.sensitivity = 1.0 / 3.0;
    lm.specificity = 0.9999999999999999;
    lm.hypothesis_size = 2;
    lm.num_probed = 17;
    st.result.link[exp::Algo::kTomo] = lm;
    core::AsMetrics am;
    am.sensitivity = 1.0;
    am.specificity = 0.125;
    am.hypothesis_size = 1;
    st.result.as_level[exp::Algo::kNdBgpIgp] = am;
    bucket.push_back(std::move(st));
    ck.results.push_back(std::move(bucket));
  }
  ck.quarantined.push_back({1, 1, 123456789ull});

  // Every proper prefix of the JSON body is malformed (the top-level
  // object is unterminated), so load must reject each one with an error.
  const std::string doc = ck.to_json().dump();
  const std::string path =
      ::testing::TempDir() + "/netd_fuzz_truncated_checkpoint.json";
  std::size_t rejected = 0;
  for (std::size_t len = 0; len < doc.size(); ++len) {
    std::string error;
    ASSERT_TRUE(util::atomic_write_file(path, doc.substr(0, len), &error))
        << error;
    error.clear();
    const auto loaded = exp::Checkpoint::load(path, &error);
    EXPECT_FALSE(loaded.has_value()) << "prefix of " << len << " bytes";
    EXPECT_FALSE(error.empty()) << "prefix of " << len << " bytes";
    ++rejected;
  }
  EXPECT_EQ(rejected, doc.size());
  // The untruncated document round-trips.
  std::string error;
  ASSERT_TRUE(util::atomic_write_file(path, doc + "\n", &error)) << error;
  const auto loaded = exp::Checkpoint::load(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->to_json().dump(), doc);
  std::remove(path.c_str());
}

TEST(ParserFuzz, FlagsSurviveGarbage) {
  util::Rng rng(43);
  const std::vector<std::string> tokens = {"--",     "--x",  "--x=1", "-y",
                                           "--=",    "7",    "--n",   "abc",
                                           "--d=1.5", "--b=", "="};
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<std::string> args = {"prog"};
    const std::size_t n = rng.uniform(0, 6);
    for (std::size_t i = 0; i < n; ++i) args.push_back(rng.pick(tokens));
    std::vector<const char*> argv;
    argv.reserve(args.size());
    for (const auto& a : args) argv.push_back(a.c_str());
    auto flags =
        util::Flags::parse(static_cast<int>(argv.size()), argv.data());
    (void)flags.get("x", "");
    (void)flags.get_int("n", 0);
    (void)flags.get_double("d", 0.0);
    (void)flags.get_bool("b");
  }
}

// ---------------------------------------------------------------------------
// ECMP-rich random substrate end-to-end.
// ---------------------------------------------------------------------------

class RandomSubstrate : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomSubstrate, DiagnosisPipelineHoldsUnderEcmp) {
  topo::RandomInternetParams p;
  p.num_tier1 = 3;
  p.num_tier2 = 10;
  p.num_stubs = 50;
  p.seed = GetParam();
  sim::Network net(topo::random_internet(p));
  net.converge();
  util::Rng rng(GetParam() * 13 + 1);
  const auto sensors = probe::place_sensors(
      net.topology(), probe::PlacementKind::kRandomStub, 8, rng);
  probe::Prober prober(net, sensors);
  const auto before = prober.measure();
  for (const auto& path : before.paths) ASSERT_TRUE(path.ok);

  // Paris enumeration covers the single-path measurement.
  const auto paris = prober.measure_paris();
  for (std::size_t k = 0; k < before.paths.size(); ++k) {
    bool found = false;
    for (const auto& alt : paris.pairs[k].alternatives) {
      found = found || alt.hops.size() == before.paths[k].hops.size();
    }
    EXPECT_TRUE(found);
  }

  const auto snap = net.snapshot();
  const auto pool = before.probed_links();
  for (int t = 0; t < 5; ++t) {
    const auto victims = rng.sample(pool, 2);
    for (auto l : victims) net.fail_link(l);
    net.reconverge();
    const auto after = prober.measure();
    bool invoked = false;
    for (std::size_t k = 0; k < before.paths.size(); ++k) {
      invoked = invoked || (before.paths[k].ok && !after.paths[k].ok);
    }
    if (invoked) {
      const auto dg =
          core::build_diagnosis_graph(before, after, true, &paris);
      core::SolverOptions opt;
      opt.use_reroutes = true;
      const auto res = core::solve(dg, opt);
      for (const auto& k : res.links) EXPECT_TRUE(dg.probed_keys.count(k));
      const auto m = core::link_metrics(
          res.links,
          {exp::link_key(net.topology(), victims[0]),
           exp::link_key(net.topology(), victims[1])},
          dg.probed_keys);
      EXPECT_GE(m.sensitivity, 0.0);
      EXPECT_LE(m.specificity, 1.0);
    }
    net.restore(snap);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSubstrate, ::testing::Values(7, 8, 9));

}  // namespace
}  // namespace netd
