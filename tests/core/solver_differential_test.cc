// Differential pin for the bitset/CSR solver kernel: solve() must stay
// byte-identical to solve_reference() — same hypothesis edges in the same
// order, same links/ases, same ranked keys, scores, and rounds — on
// randomized episodes across every algorithm preset. The reference is the
// string-keyed, list-rescanning scorer the solver had before the kernel
// rewrite, so any drift in tie-breaking, scoring, clustering, or
// control-plane handling fails here with the exact divergence point.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "busiest_links.h"
#include "core/algorithms.h"
#include "exp/runner.h"
#include "lg/looking_glass.h"
#include "probe/prober.h"
#include "probe/sensors.h"
#include "probe/synthetic.h"
#include "sim/network.h"
#include "topo/generator.h"
#include "topo/random_internet.h"
#include "util/rng.h"

namespace netd::core {
namespace {

using testing::busiest_links;

void expect_identical(const Result& fast, const Result& ref,
                      const std::string& ctx) {
  ASSERT_EQ(fast.hypothesis_edges.size(), ref.hypothesis_edges.size()) << ctx;
  for (std::size_t i = 0; i < fast.hypothesis_edges.size(); ++i) {
    ASSERT_EQ(fast.hypothesis_edges[i].value(), ref.hypothesis_edges[i].value())
        << ctx << " hypothesis position " << i;
  }
  EXPECT_EQ(fast.links, ref.links) << ctx;
  EXPECT_EQ(fast.ases, ref.ases) << ctx;
  EXPECT_EQ(fast.unknown_as_links, ref.unknown_as_links) << ctx;
  EXPECT_EQ(fast.unexplained_failure_sets, ref.unexplained_failure_sets)
      << ctx;
  ASSERT_EQ(fast.ranked.size(), ref.ranked.size()) << ctx;
  for (std::size_t i = 0; i < fast.ranked.size(); ++i) {
    ASSERT_EQ(fast.ranked[i].phys_key, ref.ranked[i].phys_key)
        << ctx << " rank " << i;
    ASSERT_EQ(fast.ranked[i].score, ref.ranked[i].score) << ctx << " rank "
                                                         << i;
    ASSERT_EQ(fast.ranked[i].round, ref.ranked[i].round) << ctx << " rank "
                                                         << i;
  }
}

struct Preset {
  const char* name;
  SolverOptions opt;
  bool needs_cp;
};

std::vector<Preset> all_presets() {
  return {{"tomo", tomo_options(), false},
          {"nd_edge", nd_edge_options(), false},
          {"nd_bgpigp", nd_bgpigp_options(), true},
          {"nd_lg", nd_lg_options(), true}};
}

/// Ground-truth control-plane feed for a synthetic-prober episode: IGP
/// down events for failed intradomain links, withdrawals (both session
/// directions) toward every unreachable destination AS for failed
/// interdomain links.
ControlPlaneObs ground_truth_cp(const topo::Topology& topo,
                                const DiagnosisGraph& dg,
                                const std::vector<topo::LinkId>& broken) {
  ControlPlaneObs cp;
  std::set<int> dead_asns;
  for (const auto& p : dg.paths) {
    if (!p.ok_after && p.dest_asn >= 0) dead_asns.insert(p.dest_asn);
  }
  for (topo::LinkId l : broken) {
    const auto& lk = topo.link(l);
    const std::string na = topo.router(lk.a).name;
    const std::string nb = topo.router(lk.b).name;
    if (!lk.interdomain) {
      cp.igp_down_keys.push_back(undirected_key(na, nb));
    } else {
      for (int asn : dead_asns) {
        cp.withdrawals.push_back({na + ">" + nb, asn});
        cp.withdrawals.push_back({nb + ">" + na, asn});
      }
    }
  }
  return cp;
}

/// Run every preset on one synthetic-prober episode and compare the two
/// scorers — both on a shared prebuilt Demands instance (the bench's
/// measurement setup) and through the internally-building entry point.
void differential_episode(std::size_t ases, std::size_t n_sensors,
                          std::size_t n_failures, std::uint64_t seed,
                          bool check_wrapper) {
  topo::RandomInternetParams params;
  params.num_tier1 = 4;
  params.num_tier2 = std::min<std::size_t>(60, 10 + ases / 50);
  params.num_stubs = ases > params.num_tier1 + params.num_tier2
                         ? ases - params.num_tier1 - params.num_tier2
                         : 1;
  params.seed = seed;
  topo::Topology topo = topo::random_internet(params);
  util::Rng rng(seed * 77 + 1);
  auto sensors = probe::place_sensors(topo, probe::PlacementKind::kRandomStub,
                                      n_sensors, rng);
  probe::SyntheticProber prober(topo, std::move(sensors));
  const probe::Mesh before = prober.measure();
  const auto broken = busiest_links(before, topo.num_links(), n_failures);
  ASSERT_FALSE(broken.empty());
  for (topo::LinkId l : broken) topo.set_link_up(l, false);
  const probe::Mesh after = prober.measure();

  const DiagnosisGraph dg =
      build_diagnosis_graph(before, after, /*logical_links=*/true);
  const ControlPlaneObs cp = ground_truth_cp(topo, dg, broken);
  const UhTagMap no_tags;

  for (const auto& pr : all_presets()) {
    const std::string ctx = "ases=" + std::to_string(ases) +
                            " seed=" + std::to_string(seed) + " preset=" +
                            pr.name;
    const ControlPlaneObs* cpp = pr.needs_cp ? &cp : nullptr;
    const Demands demands = build_demands(dg, pr.opt, cpp);
    const Result fast = solve(dg, pr.opt, demands, cpp, &no_tags);
    const Result ref = solve_reference(dg, pr.opt, demands, cpp, &no_tags);
    expect_identical(fast, ref, ctx);
    if (check_wrapper) {
      // The demand-building entry points must agree with the prebuilt
      // path (same Demands in, same Result out).
      expect_identical(solve(dg, pr.opt, cpp, &no_tags), fast,
                       ctx + " (wrapper)");
      expect_identical(solve_reference(dg, pr.opt, cpp, &no_tags), ref,
                       ctx + " (ref wrapper)");
    }
  }
}

TEST(SolverDifferential, SyntheticInternetSeedMatrix) {
  for (std::uint64_t seed : {3u, 17u, 92u}) {
    differential_episode(/*ases=*/400, /*n_sensors=*/24, /*n_failures=*/24,
                         seed, /*check_wrapper=*/true);
  }
}

TEST(SolverDifferential, TenThousandAsSmoke) {
  // One Internet-scale instance inside the CI budget: the sensor count is
  // kept small so mesh construction, not the solvers, stays the bound.
  differential_episode(/*ases=*/10000, /*n_sensors=*/48, /*n_failures=*/64,
                       /*seed=*/42, /*check_wrapper=*/false);
}

/// BGP-simulator episode with looking-glass-resolved UH tags — the
/// cluster-augmentation path the synthetic prober cannot reach (its hops
/// are all identified). Mirrors the regression pin's episode shape.
TEST(SolverDifferential, SimEpisodeWithUhClusters) {
  for (std::uint64_t seed : {101u, 404u}) {
    topo::GeneratorParams params;
    sim::Network net(topo::generate(params));
    net.converge();
    const auto& topo = net.topology();
    net.set_operator_as(topo::AsId{0});

    util::Rng rng(seed);
    const auto sensors =
        probe::place_sensors(topo, probe::PlacementKind::kRandomStub, 8, rng);
    std::set<std::uint32_t> sensor_ases;
    for (const auto& s : sensors) sensor_ases.insert(s.as.value());
    const lg::LgTable lg_table(net);

    probe::Prober ground(net, sensors);
    const probe::Mesh gmesh = ground.measure();
    std::vector<std::uint32_t> blockable;
    for (int asn : gmesh.covered_ases(topo)) {
      const auto v = static_cast<std::uint32_t>(asn);
      if (sensor_ases.count(v) == 0 && v != 0) blockable.push_back(v);
    }
    std::set<std::uint32_t> blocked;
    for (std::uint32_t v : rng.sample(blockable, blockable.size() / 4)) {
      blocked.insert(v);
    }

    probe::Prober prober(net, sensors, blocked);
    const probe::Mesh before = prober.measure();
    const auto victims = rng.sample(gmesh.probed_links(), 2);
    net.start_recording();
    for (topo::LinkId l : victims) net.fail_link(l);
    net.reconverge();
    const probe::Mesh after = prober.measure();
    const ControlPlaneObs cp = exp::collect_control_plane(net);

    std::set<std::uint32_t> avail;
    for (const auto& as : topo.ases()) {
      if (rng.bernoulli(0.7)) avail.insert(as.id.value());
    }
    const lg::LookingGlassService lg_svc(lg_table, std::move(avail),
                                         topo::AsId{0});

    const DiagnosisGraph dg =
        build_diagnosis_graph(before, after, /*logical_links=*/true);
    const UhTagMap tags =
        resolve_uh_tags(before, dg, lg_svc, topo::AsId{0});

    for (const auto& pr : all_presets()) {
      const std::string ctx =
          "sim seed=" + std::to_string(seed) + " preset=" + pr.name;
      const ControlPlaneObs* cpp = pr.needs_cp ? &cp : nullptr;
      const Demands demands = build_demands(dg, pr.opt, cpp);
      expect_identical(solve(dg, pr.opt, demands, cpp, &tags),
                       solve_reference(dg, pr.opt, demands, cpp, &tags), ctx);
    }
  }
}

}  // namespace
}  // namespace netd::core
