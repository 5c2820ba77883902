// Differential pin for the id-space graph builder: build_diagnosis_graph
// must produce exactly the graph of the string-keyed builder it replaced —
// same nodes and edges in the same id order, same EdgeInfo, same interner
// key order, same paths and the same probed-key set E. The solver's
// tie-breaks and every golden depend on creation order, so any drift
// fails here with the first diverging id.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "busiest_links.h"
#include "core/diagnosis_graph.h"
#include "mesh_builder.h"
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

using graph::EdgeId;
using graph::NodeId;
using graph::NodeKind;

// ---------------------------------------------------------------------------
// Oracle: the string-keyed builder, interning every hop's labels and keys
// and inserting every hop's physical key into E.

std::vector<EdgeId> reference_intern_path(DiagnosisGraph& dg,
                                          const std::vector<probe::Hop>& hops,
                                          LogicalMode mode, int path_index) {
  std::vector<EdgeId> out;

  auto intern_hop = [&](const probe::Hop& h) {
    return dg.g.intern_node(h.label, h.kind, h.asn);
  };

  auto add_edge = [&](NodeId a, NodeId b, const probe::Hop& u,
                      const probe::Hop& v, bool logical) {
    const EdgeId e = dg.g.intern_edge(a, b);
    if (e.value() == dg.edges.size()) {
      EdgeInfo info;
      info.phys_key = undirected_key(u.label, v.label);
      info.directed_key = u.label + ">" + v.label;
      info.phys_id = dg.phys_keys.intern(info.phys_key);
      info.dir_id = dg.directed_keys.intern(info.directed_key);
      info.unidentified = u.kind == NodeKind::kUnidentified ||
                          v.kind == NodeKind::kUnidentified;
      info.logical = logical;
      info.asn_src = u.asn;
      info.asn_dst = v.asn;
      info.before_path = info.unidentified ? path_index : -1;
      dg.edges.push_back(std::move(info));
    }
    dg.probed_keys.insert(dg.edges[e.value()].phys_key);
    out.push_back(e);
  };

  for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
    const probe::Hop& u = hops[i];
    const probe::Hop& v = hops[i + 1];
    const NodeId nu = intern_hop(u);
    const NodeId nv = intern_hop(v);

    const bool interdomain = u.asn != -1 && v.asn != -1 && u.asn != v.asn;
    if (mode != LogicalMode::kNone && interdomain) {
      probe::Hop mid;
      if (mode == LogicalMode::kPerNeighbor) {
        int next_asn = v.asn;
        for (std::size_t k = i + 2; k < hops.size(); ++k) {
          if (hops[k].asn != -1 && hops[k].asn != v.asn) {
            next_asn = hops[k].asn;
            break;
          }
        }
        mid.label = v.label + "(AS" + std::to_string(next_asn) + ")";
      } else {
        mid.label = v.label + "(pfx" + std::to_string(hops.back().asn) + ")";
      }
      mid.kind = NodeKind::kLogical;
      mid.asn = v.asn;
      const NodeId nm = dg.g.intern_node(mid.label, mid.kind, mid.asn);
      auto add_logical = [&](NodeId a, NodeId b) {
        const EdgeId e = dg.g.intern_edge(a, b);
        if (e.value() == dg.edges.size()) {
          EdgeInfo info;
          info.phys_key = undirected_key(u.label, v.label);
          info.directed_key = u.label + ">" + v.label;
          info.phys_id = dg.phys_keys.intern(info.phys_key);
          info.dir_id = dg.directed_keys.intern(info.directed_key);
          info.logical = true;
          info.asn_src = u.asn;
          info.asn_dst = v.asn;
          dg.edges.push_back(std::move(info));
        }
        dg.probed_keys.insert(dg.edges[e.value()].phys_key);
        out.push_back(e);
      };
      add_logical(nu, nm);
      add_logical(nm, nv);
    } else {
      add_edge(nu, nv, u, v, /*logical=*/false);
    }
  }
  return out;
}

DiagnosisGraph reference_build(const probe::Mesh& before,
                               const probe::Mesh& after, LogicalMode mode,
                               const probe::ParisMesh* paris_before) {
  DiagnosisGraph dg;
  for (std::size_t k = 0; k < before.paths.size(); ++k) {
    const probe::TracePath& pb = before.paths[k];
    const probe::TracePath& pa = after.paths[k];
    if (!pb.ok) continue;
    PathObs obs;
    obs.src = pb.src;
    obs.dst = pb.dst;
    obs.dest_asn = pb.hops.back().asn;
    const int path_index = static_cast<int>(dg.paths.size());
    obs.before = reference_intern_path(dg, pb.hops, mode, path_index);
    obs.ok_after = pa.ok;
    if (pa.ok) {
      obs.after = reference_intern_path(dg, pa.hops, mode, path_index);
      obs.rerouted = obs.after != obs.before;
      if (obs.rerouted && paris_before != nullptr &&
          probe::is_load_balanced_change(paris_before->pairs[k], pa)) {
        obs.rerouted = false;
      }
    }
    dg.paths.push_back(std::move(obs));
  }
  return dg;
}

// ---------------------------------------------------------------------------

const char* mode_name(LogicalMode m) {
  switch (m) {
    case LogicalMode::kNone:
      return "none";
    case LogicalMode::kPerNeighbor:
      return "per-neighbor";
    case LogicalMode::kPerPrefix:
      return "per-prefix";
  }
  return "?";
}

constexpr LogicalMode kModes[] = {LogicalMode::kNone,
                                  LogicalMode::kPerNeighbor,
                                  LogicalMode::kPerPrefix};

std::vector<std::uint32_t> edge_ids(const std::vector<EdgeId>& v) {
  std::vector<std::uint32_t> out;
  for (EdgeId e : v) out.push_back(e.value());
  return out;
}

void expect_same_interner(const KeyInterner& got, const KeyInterner& want,
                          const std::string& ctx) {
  ASSERT_EQ(got.size(), want.size()) << ctx;
  for (std::uint32_t id = 0; id < want.size(); ++id) {
    ASSERT_EQ(got.key(id), want.key(id)) << ctx << " id " << id;
  }
}

void expect_same_graph(const DiagnosisGraph& got, const DiagnosisGraph& want,
                       const std::string& ctx) {
  ASSERT_EQ(got.g.num_nodes(), want.g.num_nodes()) << ctx;
  for (std::uint32_t i = 0; i < want.g.num_nodes(); ++i) {
    const graph::Node& a = got.g.node(NodeId{i});
    const graph::Node& b = want.g.node(NodeId{i});
    ASSERT_EQ(a.label, b.label) << ctx << " node " << i;
    ASSERT_EQ(a.kind, b.kind) << ctx << " node " << i;
    ASSERT_EQ(a.asn, b.asn) << ctx << " node " << i;
  }
  ASSERT_EQ(got.g.num_edges(), want.g.num_edges()) << ctx;
  ASSERT_EQ(got.edges.size(), want.edges.size()) << ctx;
  for (std::uint32_t i = 0; i < want.g.num_edges(); ++i) {
    const std::string at = ctx + " edge " + std::to_string(i);
    ASSERT_EQ(got.g.edge(EdgeId{i}).src, want.g.edge(EdgeId{i}).src) << at;
    ASSERT_EQ(got.g.edge(EdgeId{i}).dst, want.g.edge(EdgeId{i}).dst) << at;
    const EdgeInfo& a = got.edges[i];
    const EdgeInfo& b = want.edges[i];
    ASSERT_EQ(a.phys_key, b.phys_key) << at;
    ASSERT_EQ(a.directed_key, b.directed_key) << at;
    ASSERT_EQ(a.phys_id, b.phys_id) << at;
    ASSERT_EQ(a.dir_id, b.dir_id) << at;
    ASSERT_EQ(a.unidentified, b.unidentified) << at;
    ASSERT_EQ(a.logical, b.logical) << at;
    ASSERT_EQ(a.asn_src, b.asn_src) << at;
    ASSERT_EQ(a.asn_dst, b.asn_dst) << at;
    ASSERT_EQ(a.before_path, b.before_path) << at;
  }
  expect_same_interner(got.phys_keys, want.phys_keys, ctx + " phys_keys");
  expect_same_interner(got.directed_keys, want.directed_keys,
                       ctx + " directed_keys");
  ASSERT_EQ(got.paths.size(), want.paths.size()) << ctx;
  for (std::size_t i = 0; i < want.paths.size(); ++i) {
    const std::string at = ctx + " path " + std::to_string(i);
    const PathObs& a = got.paths[i];
    const PathObs& b = want.paths[i];
    ASSERT_EQ(a.src, b.src) << at;
    ASSERT_EQ(a.dst, b.dst) << at;
    ASSERT_EQ(a.dest_asn, b.dest_asn) << at;
    ASSERT_EQ(a.ok_after, b.ok_after) << at;
    ASSERT_EQ(a.rerouted, b.rerouted) << at;
    ASSERT_EQ(edge_ids(a.before), edge_ids(b.before)) << at;
    ASSERT_EQ(edge_ids(a.after), edge_ids(b.after)) << at;
  }
  EXPECT_EQ(got.probed_keys, want.probed_keys) << ctx;
}

/// Builds with both builders under every logical mode and compares.
void expect_builders_agree(const probe::Mesh& before, const probe::Mesh& after,
                           const probe::ParisMesh* paris,
                           const std::string& ctx) {
  for (LogicalMode mode : kModes) {
    const std::string at = ctx + " mode=" + mode_name(mode);
    expect_same_graph(build_diagnosis_graph(before, after, mode, paris),
                      reference_build(before, after, mode, paris), at);
  }
}

TEST(DiagnosisGraphDifferential, RandomInternetSeedMatrix) {
  for (std::uint64_t seed : {5u, 42u, 77u}) {
    // diagnose_1k's shape: bench_scale's parameters at 1000 ASes.
    topo::RandomInternetParams params;
    params.num_tier1 = 5;
    params.num_tier2 = 35;
    params.num_stubs = 960;
    params.tier1_routers = 10;
    params.tier2_routers = 4;
    params.seed = seed;
    topo::Topology topo = topo::random_internet(params);
    util::Rng rng(seed * 31 + 7);
    auto sensors = probe::place_sensors(topo, probe::PlacementKind::kRandomStub,
                                        44, rng);
    probe::SyntheticProber prober(topo, std::move(sensors));
    const probe::Mesh before = prober.measure();
    const auto broken = busiest_links(before, topo.num_links(), 128);
    ASSERT_EQ(broken.size(), 128u);
    for (topo::LinkId l : broken) topo.set_link_up(l, false);
    const probe::Mesh after = prober.measure();
    expect_builders_agree(before, after, nullptr,
                          "seed=" + std::to_string(seed));
  }
}

/// BGP-simulator episode: blocked ASes render UH hops (UH edges with a
/// before_path), and the Paris T− snapshot clears load-balanced changes.
TEST(DiagnosisGraphDifferential, SimEpisodeWithBlockedAsesAndParis) {
  for (std::uint64_t seed : {101u, 404u}) {
    sim::Network net(topo::generate(topo::GeneratorParams{}));
    net.converge();
    const auto& topo = net.topology();
    util::Rng rng(seed);
    const auto sensors =
        probe::place_sensors(topo, probe::PlacementKind::kRandomStub, 8, rng);
    std::set<std::uint32_t> sensor_ases;
    for (const auto& s : sensors) sensor_ases.insert(s.as.value());

    const probe::Mesh gmesh = probe::Prober(net, sensors).measure();
    std::vector<std::uint32_t> blockable;
    for (int asn : gmesh.covered_ases(topo)) {
      const auto v = static_cast<std::uint32_t>(asn);
      if (sensor_ases.count(v) == 0) blockable.push_back(v);
    }
    std::set<std::uint32_t> blocked;
    for (std::uint32_t v : rng.sample(blockable, blockable.size() / 4)) {
      blocked.insert(v);
    }

    probe::Prober prober(net, sensors, blocked);
    prober.set_flow(1);
    const probe::Mesh before = prober.measure();
    const probe::ParisMesh paris = prober.measure_paris();
    for (topo::LinkId l : rng.sample(gmesh.probed_links(), 2)) {
      net.fail_link(l);
    }
    net.reconverge();
    prober.set_flow(2);
    const probe::Mesh after = prober.measure();

    const DiagnosisGraph dg = build_diagnosis_graph(
        before, after, LogicalMode::kPerNeighbor, &paris);
    EXPECT_TRUE(std::any_of(dg.edges.begin(), dg.edges.end(),
                            [](const EdgeInfo& e) { return e.unidentified; }))
        << "seed " << seed << ": no UH edge";
    EXPECT_TRUE(std::any_of(dg.paths.begin(), dg.paths.end(),
                            [](const PathObs& p) {
                              return p.ok_after && p.after != p.before &&
                                     !p.rerouted;
                            }))
        << "seed " << seed << ": no change cleared as load balancing";
    expect_builders_agree(before, after, &paris,
                          "sim seed=" + std::to_string(seed));
  }
}

/// Hand-drawn corners the generators never produce: an ok one-hop path
/// (the wire decoder accepts it), a UH hop that carries an AS (a logical
/// half is never flagged UH), a link seen in both directions, and a
/// destination of unknown AS under per-prefix expansion.
TEST(DiagnosisGraphDifferential, HandDrawnCorners) {
  using core::testing::MeshBuilder;
  probe::Mesh before =
      MeshBuilder()
          .ok(0, 1, {"lone@4!s"})
          .ok(0, 2, {"s0@4!s", "r1@1", "x@2", "r3@3", "s2@6!s"})
          .ok(2, 0, {"s2@6!s", "r3@3", "x@2", "r1@1", "s0@4!s"})
          .ok(1, 2, {"s1@5!s", "r1@1", "uh", "r3@3", "s2"})
          .fail(1, 0, {"s1@5!s", "r1@1"})
          .build();
  // The UH hop x carries an AS, as a looking-glass-tagged wire hop may.
  for (auto& p : before.paths) {
    for (auto& h : p.hops) {
      if (h.label == "x") h.kind = NodeKind::kUnidentified;
    }
  }
  probe::Mesh after = before;
  after.paths[1].hops[2].label = "y";  // a reroute through another hop
  after.paths[3].ok = false;
  after.paths[3].hops.resize(2);
  expect_builders_agree(before, after, nullptr, "hand-drawn");

  const DiagnosisGraph dg =
      build_diagnosis_graph(before, after, LogicalMode::kNone);
  EXPECT_TRUE(dg.paths[0].before.empty());  // the one-hop path
  EXPECT_FALSE(dg.g.find_node("lone").has_value());
}

}  // namespace
}  // namespace netd::core
