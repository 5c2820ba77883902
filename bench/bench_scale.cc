// Internet-scale solver benchmark: graph construction, demand
// construction and solve wall time, per-round time, and peak RSS vs. AS
// count, plus the bitset-kernel speedup over the reference scorer on
// identical inputs.
//
// BGP convergence is infeasible at these sizes, so the measurement
// substrate is probe::SyntheticProber (BFS shortest paths); both scorers
// consume the exact same prebuilt Demands instance, making the speedup
// column an apples-to-apples comparison of the greedy kernels alone
// (demand construction is shared work, timed in its own column; the JSON
// record also carries the end-to-end ratio with demands included).
//
// Environment:
//   ND_SCALE_ASES      comma-separated AS counts  (default "165,2000,10000")
//   ND_SCALE_SENSORS   sensor count (0 = scale with AS count)  (default 0)
//   ND_SCALE_FAILURES  links failed per scenario  (default 128)
//   ND_SCALE_REPS      timing repetitions (min; 0 = scale-aware default)
//   ND_SCALE_PLACEMENT probe::PlacementKind index (default random-stub)
//   ND_PERF_JSON       append one JSON record per (scale, preset) there
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "core/algorithms.h"
#include "core/solver.h"
#include "obs/registry.h"
#include "probe/synthetic.h"
#include "topo/random_internet.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace netd;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak RSS of this process in MiB (Linux: ru_maxrss is in KiB).
double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::vector<std::size_t> scale_list() {
  const char* v = std::getenv("ND_SCALE_ASES");
  std::string s = (v != nullptr && *v != '\0') ? v : "165,2000,10000";
  std::vector<std::size_t> out;
  std::istringstream ss(s);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) out.push_back(std::strtoull(tok.c_str(), nullptr, 10));
  }
  return out;
}

topo::RandomInternetParams params_for(std::size_t ases) {
  topo::RandomInternetParams p;
  p.num_tier1 = 5;
  // Transit tier grows with the AS count but stays far below the stub
  // count (the tier-2 peering loop is quadratic in num_tier2).
  p.num_tier2 = std::min<std::size_t>(400, 25 + ases / 100);
  p.num_stubs = ases > p.num_tier1 + p.num_tier2
                    ? ases - p.num_tier1 - p.num_tier2
                    : 1;
  p.tier1_routers = 10;
  p.tier2_routers = 4;
  p.seed = 42;
  return p;
}

/// The most-traversed T− links, strided so the failures spread across the
/// mesh instead of clustering on one path. Deterministic.
std::vector<topo::LinkId> pick_failures(const probe::Mesh& before,
                                        std::size_t num_links,
                                        std::size_t count) {
  std::vector<std::uint32_t> uses(num_links, 0);
  for (const auto& p : before.paths) {
    if (!p.ok) continue;
    for (topo::LinkId l : p.links) ++uses[l.value()];
  }
  std::vector<std::uint32_t> order(num_links);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return uses[a] != uses[b] ? uses[a] > uses[b] : a < b;
  });
  std::vector<topo::LinkId> out;
  for (std::size_t i = 0; i * 3 < order.size() && out.size() < count; ++i) {
    if (uses[order[i * 3]] == 0) break;
    out.push_back(topo::LinkId{order[i * 3]});
  }
  return out;
}

struct PresetRun {
  const char* name;
  core::SolverOptions opt;
  bool needs_cp;
};

int max_round(const core::Result& r) {
  int m = 0;
  for (const auto& rl : r.ranked) m = std::max(m, rl.round);
  return m + 1;
}

void emit_record(const std::string& name, std::size_t ases,
                 std::size_t sensors, std::size_t edges,
                 std::size_t failure_sets, double graph_ms, double demands_ms,
                 double solve_ms, double ref_ms, int rounds, double rss_mib) {
  const char* path = std::getenv("ND_PERF_JSON");
  if (path == nullptr || *path == '\0') return;
  std::ofstream os(path, std::ios::app);
  if (!os) return;
  os << "{\"bench\":\"" << name << "\",\"ases\":" << ases
     << ",\"sensors\":" << sensors << ",\"edges\":" << edges
     << ",\"failure_sets\":" << failure_sets
     << ",\"graph_ms\":" << graph_ms << ",\"demands_ms\":" << demands_ms
     << ",\"wall_ms\":" << solve_ms
     << ",\"ref_ms\":" << ref_ms
     << ",\"speedup\":" << (solve_ms > 0.0 ? ref_ms / solve_ms : 0.0)
     << ",\"e2e_speedup\":"
     << (demands_ms + solve_ms > 0.0
             ? (demands_ms + ref_ms) / (demands_ms + solve_ms)
             : 0.0)
     << ",\"rounds\":" << rounds
     << ",\"ms_per_round\":" << (rounds > 0 ? solve_ms / rounds : 0.0)
     << ",\"rss_mib\":" << rss_mib << "}\n";
}

}  // namespace

int main() {
  bench::banner("Internet-scale solver: wall time / per-round time / RSS");
  const std::size_t max_sensors = bench::env_or("ND_SCALE_SENSORS", 0);
  const std::size_t num_failures = bench::env_or("ND_SCALE_FAILURES", 128);
  const std::size_t reps_env = bench::env_or("ND_SCALE_REPS", 0);

  util::Table table({"scale/preset", "edges", "fail_sets", "graph_ms",
                     "demands_ms", "solve_ms", "ref_ms", "speedup", "rounds",
                     "rss_mib"});

  for (std::size_t ases : scale_list()) {
    // Min-of-N needs more draws where a single solve is sub-millisecond,
    // or the regression gate flakes on scheduler noise at small scales.
    const std::size_t reps =
        reps_env != 0 ? reps_env : (ases <= 500 ? 15 : ases <= 5000 ? 7 : 3);
    const auto t_gen0 = now_ms();
    topo::Topology topo = topo::random_internet(params_for(ases));
    util::Rng rng(7);
    // ND_SCALE_SENSORS=0 (default) scales the sensor count with the AS
    // count (~300 at 10k ASes, where the solve cost is dominated by the
    // scorer rather than fixed setup); a nonzero value is taken verbatim.
    const std::size_t n_sensors =
        max_sensors != 0 ? max_sensors
                         : std::max<std::size_t>(8, 16 + ases / 35);
    // Random stub placement by default: the split/adjacent placements
    // concentrate sensors so heavily that BFS routes around every failure
    // and the solver sees zero failure sets at Internet scale.
    const auto placement = static_cast<probe::PlacementKind>(
        bench::env_or("ND_SCALE_PLACEMENT",
                      static_cast<std::size_t>(
                          probe::PlacementKind::kRandomStub)));
    auto sensors = probe::place_sensors(topo, placement, n_sensors, rng);
    probe::SyntheticProber prober(topo, std::move(sensors));
    const probe::Mesh before = prober.measure();

    // Fail the busiest links and re-measure (the prober's frozen adjacency
    // is untouched by up/down state; usability is read per measure call).
    const auto broken = pick_failures(before, topo.num_links(), num_failures);
    for (topo::LinkId l : broken) topo.set_link_up(l, false);
    const probe::Mesh after = prober.measure();
    const auto gen_ms = now_ms() - t_gen0;
    std::cout << "[scale] " << ases << " ASes: " << topo.num_routers()
              << " routers, " << topo.num_links() << " links, " << n_sensors
              << " sensors, " << broken.size() << " failures (setup "
              << gen_ms << " ms)\n";

    // Graph construction is shared by every preset: timed once per scale
    // (best of reps), each build destroyed outside the timed region.
    core::DiagnosisGraph dg;
    double graph_ms = 1e300;
    for (std::size_t r = 0; r < reps; ++r) {
      const auto tg = now_ms();
      core::DiagnosisGraph built =
          core::build_diagnosis_graph(before, after, /*logical_links=*/true);
      graph_ms = std::min(graph_ms, now_ms() - tg);
      dg = std::move(built);
    }
    const std::size_t failing_pairs = static_cast<std::size_t>(
        std::count_if(dg.paths.begin(), dg.paths.end(),
                      [](const core::PathObs& p) { return !p.ok_after; }));

    // Control-plane observations from ground truth: IGP down events for
    // failed intradomain links, withdrawals (both directions) for failed
    // interdomain links toward every unreachable destination AS.
    core::ControlPlaneObs cp;
    {
      // One withdrawal per (session direction, withdrawn prefix), as BGP
      // would send — the per-pair loop below would otherwise duplicate
      // them per failing sensor pair.
      std::set<int> dead_asns;
      for (const auto& p : dg.paths) {
        if (!p.ok_after && p.dest_asn >= 0) dead_asns.insert(p.dest_asn);
      }
      for (topo::LinkId l : broken) {
        const auto& lk = topo.link(l);
        const std::string na = topo.router(lk.a).name;
        const std::string nb = topo.router(lk.b).name;
        if (!lk.interdomain) {
          cp.igp_down_keys.push_back(core::undirected_key(na, nb));
        } else {
          for (int asn : dead_asns) {
            cp.withdrawals.push_back({na + ">" + nb, asn});
            cp.withdrawals.push_back({nb + ">" + na, asn});
          }
        }
      }
    }

    const std::vector<PresetRun> presets = {
        {"tomo", core::tomo_options(), false},
        {"nd_edge", core::nd_edge_options(), false},
        {"nd_bgpigp", core::nd_bgpigp_options(), true},
        {"nd_lg", core::nd_lg_options(), true},
    };
    const core::UhTagMap no_tags;

    for (const auto& pr : presets) {
      const core::ControlPlaneObs* cpp = pr.needs_cp ? &cp : nullptr;
      double solve_ms = 1e300, ref_ms = 1e300, demands_ms = 1e300;
      core::Result fast, ref;
      for (std::size_t r = 0; r < reps; ++r) {
        // Both scorers run on the same prebuilt instance, so the speedup
        // column compares the kernels alone; demand construction (shared,
        // timed separately) folds into the e2e ratio in the JSON record.
        const auto td = now_ms();
        const core::Demands demands = core::build_demands(dg, pr.opt, cpp);
        demands_ms = std::min(demands_ms, now_ms() - td);
        const auto t0 = now_ms();
        fast = core::solve(dg, pr.opt, demands, cpp, &no_tags);
        solve_ms = std::min(solve_ms, now_ms() - t0);
        const auto t1 = now_ms();
        ref = core::solve_reference(dg, pr.opt, demands, cpp, &no_tags);
        ref_ms = std::min(ref_ms, now_ms() - t1);
      }
      if (fast.links != ref.links || fast.ranked.size() != ref.ranked.size()) {
        std::cerr << "FATAL: solve() and solve_reference() disagree at "
                  << ases << " ASes, preset " << pr.name << "\n";
        return 1;
      }
      const int rounds = max_round(fast);
      const double rss = peak_rss_mib();
      const std::string name = "scale_" + std::to_string(ases) + "_" + pr.name;
      table.add_row(std::to_string(ases) + "/" + pr.name,
                    {static_cast<double>(dg.edges.size()),
                     static_cast<double>(failing_pairs), graph_ms, demands_ms,
                     solve_ms, ref_ms, solve_ms > 0 ? ref_ms / solve_ms : 0.0,
                     static_cast<double>(rounds), rss});
      emit_record(name, ases, n_sensors, dg.edges.size(), failing_pairs,
                  graph_ms, demands_ms, solve_ms, ref_ms, rounds, rss);
    }
  }
  bench::emit_table("Internet-scale solver cost", table);
  // ND_SCALE_METRICS=1: dump the solver instruments (group/word counts,
  // cache hit rates) for kernel-shape debugging.
  if (bench::env_or("ND_SCALE_METRICS", 0) != 0) {
    std::cout << obs::render_prometheus(obs::Registry::global().collect());
  }
  return 0;
}
