#include "exp/runner.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <fstream>
#include <future>
#include <map>
#include <optional>

#include "core/diagnosability.h"
#include "exp/checkpoint.h"
#include "lg/looking_glass.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "plan/planner.h"
#include "svc/trace.h"
#include "util/atomic_file.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace netd::exp {

using probe::Mesh;
using probe::Prober;
using probe::Sensor;
using topo::AsId;
using topo::LinkId;
using topo::PrefixId;
using topo::RouterId;

const char* to_string(Algo a) {
  switch (a) {
    case Algo::kTomo: return "Tomo";
    case Algo::kNdEdge: return "ND-edge";
    case Algo::kNdBgpIgp: return "ND-bgpigp";
    case Algo::kNdLg: return "ND-LG";
  }
  return "?";
}

std::optional<Algo> algo_from_string(std::string_view s) {
  if (s == "Tomo") return Algo::kTomo;
  if (s == "ND-edge") return Algo::kNdEdge;
  if (s == "ND-bgpigp") return Algo::kNdBgpIgp;
  if (s == "ND-LG") return Algo::kNdLg;
  return std::nullopt;
}

const char* to_string(PlacementStrategy s) {
  switch (s) {
    case PlacementStrategy::kRandom: return "random";
    case PlacementStrategy::kPlanned: return "planned";
  }
  return "?";
}

std::optional<PlacementStrategy> placement_strategy_from_string(
    std::string_view s) {
  if (s == "random") return PlacementStrategy::kRandom;
  if (s == "planned") return PlacementStrategy::kPlanned;
  return std::nullopt;
}

std::string link_key(const topo::Topology& topo, LinkId l) {
  const auto& link = topo.link(l);
  return core::undirected_key(topo.router(link.a).name,
                              topo.router(link.b).name);
}

core::ControlPlaneObs collect_control_plane(const sim::Network& net) {
  core::ControlPlaneObs obs;
  const auto& topo = net.topology();
  for (LinkId l : net.igp_link_down_events()) {
    obs.igp_down_keys.push_back(link_key(topo, l));
  }
  for (const auto& m : net.bgp_messages()) {
    if (!m.withdraw) continue;
    obs.withdrawals.push_back(core::ControlPlaneObs::Withdrawal{
        topo.router(m.at).name + ">" + topo.router(m.from).name,
        static_cast<int>(m.prefix.value())});
  }
  return obs;
}

namespace {

/// An export-filter misconfiguration candidate (paper §3.1 / §4): router
/// `exporter` stops announcing, over `link`, every route it reaches via
/// its out-neighbor AS `next_as` — the paper's "y1 announces to x2 only
/// the route towards B, while it does not announce the route towards C".
/// BGP policies (and hence misconfigurations) act per neighbor, which is
/// also the granularity of ND-edge's logical links.
struct Misconfig {
  RouterId exporter;
  LinkId link;
  AsId next_as;
};

/// All (interdomain link, downstream exporter, next AS) combinations
/// present on the T− paths. The exporter is the far-side router: traffic
/// flowing q→r toward the destination rides the announcement r made to q,
/// and the cone is identified by the AS right after r's AS on the path.
std::vector<Misconfig> misconfig_candidates(const topo::Topology& topo,
                                            const Mesh& mesh) {
  std::vector<Misconfig> out;
  std::set<std::uint64_t> seen;
  for (const auto& p : mesh.paths) {
    if (!p.ok) continue;
    // Router sequence: hops minus the two sensor endpoints.
    std::vector<RouterId> routers;
    for (std::size_t i = 1; i + 1 < p.hops.size(); ++i) {
      routers.push_back(p.hops[i].router);
    }
    assert(routers.size() == p.links.size() + 1);
    for (std::size_t i = 0; i < p.links.size(); ++i) {
      const LinkId l = p.links[i];
      if (!topo.link(l).interdomain) continue;
      const RouterId exporter = routers[i + 1];
      const AsId exporter_as = topo.as_of_router(exporter);
      // Next AS beyond the exporter's AS on this path; the exporter's own
      // AS when the path terminates inside it.
      AsId next_as = exporter_as;
      for (std::size_t k = i + 2; k < routers.size(); ++k) {
        if (topo.as_of_router(routers[k]) != exporter_as) {
          next_as = topo.as_of_router(routers[k]);
          break;
        }
      }
      const std::uint64_t key =
          (static_cast<std::uint64_t>(exporter.value()) << 40) |
          (static_cast<std::uint64_t>(l.value()) << 16) |
          static_cast<std::uint64_t>(next_as.value());
      if (seen.insert(key).second) out.push_back({exporter, l, next_as});
    }
  }
  // A misconfiguration is a *partial* failure ("the link works for a
  // subset of paths but not for others", §1): keep candidates whose
  // session carries at least one other next-AS cone among the probed
  // paths, so working paths keep crossing the misconfigured link. Fall
  // back to all candidates when the mesh offers no partial one.
  std::map<std::uint64_t, int> cones_per_session;
  for (const auto& mc : out) {
    ++cones_per_session[(static_cast<std::uint64_t>(mc.exporter.value())
                         << 24) |
                        mc.link.value()];
  }
  std::vector<Misconfig> partial;
  for (const auto& mc : out) {
    if (cones_per_session[(static_cast<std::uint64_t>(mc.exporter.value())
                           << 24) |
                          mc.link.value()] >= 2) {
      partial.push_back(mc);
    }
  }
  return partial.empty() ? out : partial;
}

/// A single-prefix misconfiguration candidate: exporter stops announcing
/// exactly `prefix` over `link` (finer than any per-neighbor policy; see
/// FailureMode::kMisconfigPrefix).
struct PrefixMisconfig {
  RouterId exporter;
  LinkId link;
  PrefixId prefix;
};

std::vector<PrefixMisconfig> prefix_misconfig_candidates(
    const topo::Topology& topo, const Mesh& mesh) {
  std::vector<PrefixMisconfig> out;
  std::set<std::uint64_t> seen;
  for (const auto& p : mesh.paths) {
    if (!p.ok) continue;
    const int dest_asn = p.hops.back().asn;
    if (dest_asn < 0) continue;
    std::vector<RouterId> routers;
    for (std::size_t i = 1; i + 1 < p.hops.size(); ++i) {
      routers.push_back(p.hops[i].router);
    }
    for (std::size_t i = 0; i < p.links.size(); ++i) {
      const LinkId l = p.links[i];
      if (!topo.link(l).interdomain) continue;
      const RouterId exporter = routers[i + 1];
      const std::uint64_t key =
          (static_cast<std::uint64_t>(exporter.value()) << 40) |
          (static_cast<std::uint64_t>(l.value()) << 16) |
          static_cast<std::uint64_t>(dest_asn);
      if (seen.insert(key).second) {
        out.push_back({exporter, l,
                       PrefixId{static_cast<std::uint32_t>(dest_asn)}});
      }
    }
  }
  return out;
}

/// Transit routers appearing on the probed paths, excluding the sensors'
/// attachment routers (failing those kills the sensor itself).
std::vector<RouterId> router_candidates(const Mesh& mesh,
                                        const std::vector<Sensor>& sensors) {
  std::set<std::uint32_t> attach;
  for (const auto& s : sensors) attach.insert(s.attach.value());
  std::set<std::uint32_t> seen;
  for (const auto& p : mesh.paths) {
    if (!p.ok) continue;
    for (const auto& h : p.hops) {
      if (h.router.valid() && attach.count(h.router.value()) == 0) {
        seen.insert(h.router.value());
      }
    }
  }
  std::vector<RouterId> out;
  out.reserve(seen.size());
  for (std::uint32_t v : seen) out.push_back(RouterId{v});
  return out;
}

}  // namespace

void inject_cone_misconfig(sim::Network& net, RouterId exporter, LinkId link,
                           AsId next_as,
                           const std::vector<Sensor>& sensors) {
  const auto& topo = net.topology();
  const AsId exporter_as = topo.as_of_router(exporter);
  for (const auto& s : sensors) {
    const PrefixId p = topo.prefix_of(s.as);
    const auto route = net.bgp().best(exporter, p);
    if (!route) continue;
    const AsId via = route->as_path.empty() ? exporter_as : route->as_path[0];
    if (via == next_as) net.misconfigure_export(exporter, link, p);
  }
}

Runner::Runner(const ScenarioConfig& cfg)
    : cfg_(cfg), net_(topo::generate(cfg.topo_params)) {
  net_.converge();
}

Runner::Runner(topo::Topology topology, const ScenarioConfig& cfg)
    : cfg_(cfg), net_(std::move(topology)) {
  net_.converge();
}

namespace {

std::uint64_t steady_now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Campaign-runner instruments, resolved once per process.
struct RunnerInstruments {
  obs::Counter& trials = obs::Registry::global().counter(
      "netd_runner_trials_total", "Trials started across all placements");
  obs::Counter& attempts = obs::Registry::global().counter(
      "netd_runner_attempts_total", "Failure-injection attempts");
  obs::Counter& episodes = obs::Registry::global().counter(
      "netd_runner_episodes_total", "Diagnosable episodes produced");
  obs::Counter& quarantined = obs::Registry::global().counter(
      "netd_runner_quarantined_total", "Trials abandoned by the watchdog");
  obs::Gauge& watchdog_margin = obs::Registry::global().gauge(
      "netd_runner_watchdog_margin_ms",
      "Deadline headroom (ms) of the last watchdog-checked trial; negative "
      "means the trial blew its budget and was quarantined");

  static RunnerInstruments& get() {
    static RunnerInstruments i;
    return i;
  }
};

/// Draws one placement's sensors per the configured strategy. kRandom is
/// the direct draw; kPlanned draws a larger candidate pool from the same
/// RNG stream and deploys the plan::Planner-chosen num_sensors subset
/// (identifiability objective over ground-truth shortest paths). Either
/// way all randomness comes from `rng`, so placements stay pre-forked and
/// thread-count independent.
std::vector<Sensor> draw_sensors(const ScenarioConfig& cfg,
                                 const topo::Topology& topo, util::Rng& rng) {
  if (cfg.placement_strategy == PlacementStrategy::kRandom) {
    return probe::place_sensors(topo, cfg.placement, cfg.num_sensors, rng);
  }
  // The pool draw can ask for more sensors than the topology can host
  // (e.g. the default 4x oversample on a topology with few stub ASes);
  // clamp to capacity so small topologies degrade to planning over
  // whatever pool fits instead of failing the placement draw.
  const std::size_t pool_n = std::max(
      std::min(cfg.plan_pool == 0 ? cfg.num_sensors * 4 : cfg.plan_pool,
               probe::placement_capacity(topo, cfg.placement)),
      cfg.num_sensors);
  std::vector<Sensor> pool =
      probe::place_sensors(topo, cfg.placement, pool_n, rng);
  plan::PlannerConfig pcfg;
  pcfg.budget = cfg.num_sensors;
  pcfg.num_threads = 1;  // placements are already sharded across workers
  pcfg.measure_report = false;
  plan::Planner planner(topo, std::move(pool), pcfg);
  return planner.plan().sensors;
}

/// Runs the §4 protocol for one placement on `net` (which must be at the
/// converged base state captured in `base`), invoking `sink(trial,
/// episode)` once per diagnosable episode. Leaves `net` restored to
/// `base`. All randomness comes from `seed` — the placement's pre-forked
/// stream — so the outcome is independent of which thread or network
/// clone executes it. `lg_table` is non-null iff the scenario deploys
/// Looking Glasses. Returns the trial indices the per-trial watchdog
/// (cfg.trial_deadline_ms) abandoned; always empty with the watchdog off.
std::vector<std::size_t> run_placement(
    const ScenarioConfig& cfg, sim::Network& net,
    const sim::Network::Snapshot& base, std::uint64_t seed,
    const lg::LgTable* lg_table,
    const std::function<void(std::size_t, const EpisodeContext&)>& sink) {
  std::vector<std::size_t> quarantined;
  const auto& topo = net.topology();
  util::Rng rng(seed);
  const std::vector<Sensor> sensors = draw_sensors(cfg, topo, rng);
  std::set<std::uint32_t> sensor_ases;
  for (const auto& s : sensors) sensor_ases.insert(s.as.value());

  // AS-X: core AS 0, or a random stub hosting no sensor (§5.3).
  AsId op_as{0};
  if (!cfg.operator_at_core) {
    std::vector<AsId> stubs;
    for (const auto& as : topo.ases()) {
      if (as.cls == topo::AsClass::kStub &&
          sensor_ases.count(as.id.value()) == 0) {
        stubs.push_back(as.id);
      }
    }
    if (!stubs.empty()) op_as = rng.pick(stubs);
  }
  net.set_operator_as(op_as);

  // Ground-truth mesh (never blocked) — used for failure sampling and
  // ground-truth AS coverage.
  Prober ground(net, sensors);
  const Mesh gmesh = ground.measure();

  // ASes that block traceroutes: a fraction f_b of the on-path transit
  // ASes (sensor ASes and AS-X itself never block).
  std::set<std::uint32_t> blocked;
  if (cfg.frac_blocked > 0.0) {
    std::vector<std::uint32_t> blockable;
    for (int asn : gmesh.covered_ases(topo)) {
      const auto v = static_cast<std::uint32_t>(asn);
      if (sensor_ases.count(v) == 0 && v != op_as.value()) {
        blockable.push_back(v);
      }
    }
    const auto k = static_cast<std::size_t>(
        cfg.frac_blocked * static_cast<double>(blockable.size()) + 0.5);
    for (std::uint32_t v :
         rng.sample(blockable, std::min(k, blockable.size()))) {
      blocked.insert(v);
    }
  }

  // Looking Glass availability: a fraction of all ASes.
  std::optional<lg::LookingGlassService> lg_svc;
  if (lg_table != nullptr) {
    std::set<std::uint32_t> avail;
    for (const auto& as : topo.ases()) {
      if (rng.bernoulli(cfg.frac_lg)) avail.insert(as.id.value());
    }
    lg_svc.emplace(*lg_table, std::move(avail), op_as);
  }

  Prober prober(net, sensors, blocked);
  const Mesh before = prober.measure();

  const std::vector<LinkId> pool = gmesh.probed_links();
  const std::vector<Misconfig> mcs = misconfig_candidates(topo, gmesh);
  const std::vector<PrefixMisconfig> pmcs =
      prefix_misconfig_candidates(topo, gmesh);
  const std::vector<RouterId> router_pool = router_candidates(gmesh, sensors);
  if (pool.size() < cfg.num_link_failures) return quarantined;

  const double diag = core::diagnosability(
      core::build_diagnosis_graph(before, before, /*logical_links=*/false));

  // Watchdog clock: cooperative deadline checks sit between attempts and
  // after the expensive T+ mesh measurement — the two places a trial
  // spends its time.
  const auto now_ms = [&cfg]() {
    return cfg.now_ms ? cfg.now_ms() : steady_now_ms();
  };

  RunnerInstruments& ins = RunnerInstruments::get();
  for (std::size_t trial = 0; trial < cfg.trials_per_placement; ++trial) {
    obs::Span trial_span("trial");
    ins.trials.inc();
    const std::uint64_t trial_start = cfg.trial_deadline_ms > 0 ? now_ms() : 0;
    const auto deadline_expired = [&]() {
      return cfg.trial_deadline_ms > 0 &&
             now_ms() - trial_start >= cfg.trial_deadline_ms;
    };
    bool quarantine = false;
    // Draw failures until the event breaks some path (the paper's
    // troubleshooter is only invoked on unreachability).
    bool invoked = false;
    std::vector<LinkId> failed_links;
    RouterId failed_router;
    std::optional<Misconfig> mc;
    std::optional<PrefixMisconfig> pmc;
    Mesh after;
    for (std::size_t attempt = 0;
         attempt < cfg.max_attempts_per_trial && !invoked; ++attempt) {
      ins.attempts.inc();
      if (deadline_expired()) {  // net is at `base` here
        quarantine = true;
        break;
      }
      failed_links.clear();
      failed_router = RouterId{};
      mc.reset();
      pmc.reset();
      switch (cfg.mode) {
        case FailureMode::kLinks:
          failed_links = rng.sample(pool, cfg.num_link_failures);
          break;
        case FailureMode::kRouter:
          if (router_pool.empty()) break;
          failed_router = rng.pick(router_pool);
          break;
        case FailureMode::kMisconfig:
          if (mcs.empty()) break;
          mc = rng.pick(mcs);
          break;
        case FailureMode::kMisconfigPlusLink:
          if (mcs.empty()) break;
          mc = rng.pick(mcs);
          failed_links = rng.sample(pool, cfg.num_link_failures);
          break;
        case FailureMode::kMisconfigPrefix:
          if (pmcs.empty()) break;
          pmc = rng.pick(pmcs);
          break;
      }
      if (failed_links.empty() && !failed_router.valid() && !mc && !pmc) {
        break;
      }

      net.start_recording();
      for (LinkId l : failed_links) net.fail_link(l);
      if (failed_router.valid()) net.fail_router(failed_router);
      if (mc) {
        inject_cone_misconfig(net, mc->exporter, mc->link, mc->next_as,
                              sensors);
      }
      if (pmc) net.misconfigure_export(pmc->exporter, pmc->link, pmc->prefix);
      net.reconverge();
      // Cheap invocation check: the troubleshooter only fires when a
      // previously-working pair broke, so retrace just those pairs (no
      // mesh rendering) and pay for the full T+ mesh only on the attempt
      // that actually caused unreachability.
      for (const auto& p : before.paths) {
        if (!p.ok) continue;
        if (!net.trace_flow(sensors[p.src].attach, sensors[p.dst].attach,
                            prober.flow())
                 .ok) {
          invoked = true;
          break;
        }
      }
      if (invoked) {
        after = prober.measure();
        if (deadline_expired()) {
          // Abandon the whole trial, not just the attempt: a half-scored
          // episode is worse than a quarantined one.
          net.restore(base);
          net.set_operator_as(op_as);
          quarantine = true;
          break;
        }
      } else {
        net.restore(base);
      }
    }
    if (cfg.trial_deadline_ms > 0) {
      // Margin the watchdog left on this trial: negative iff quarantined.
      ins.watchdog_margin.set(static_cast<double>(cfg.trial_deadline_ms) -
                              static_cast<double>(now_ms() - trial_start));
    }
    if (quarantine) {
      ins.quarantined.inc();
      quarantined.push_back(trial);
      continue;
    }
    if (!invoked) continue;  // this trial never caused unreachability

    // Ground truth F at link and AS granularity.
    std::set<std::string> f_links;
    std::set<int> f_ases;
    auto add_failed = [&](LinkId l) {
      f_links.insert(link_key(topo, l));
      const auto& link = topo.link(l);
      f_ases.insert(static_cast<int>(topo.as_of_router(link.a).value()));
      f_ases.insert(static_cast<int>(topo.as_of_router(link.b).value()));
    };
    for (LinkId l : failed_links) add_failed(l);
    if (mc) add_failed(mc->link);
    if (pmc) add_failed(pmc->link);
    if (failed_router.valid()) {
      for (LinkId l : pool) {
        const auto& link = topo.link(l);
        if (link.a == failed_router || link.b == failed_router) {
          add_failed(l);
        }
      }
      f_ases.insert(
          static_cast<int>(topo.as_of_router(failed_router).value()));
    }

    // AS universe: ground-truth coverage of the probes (T− and T+).
    std::set<int> universe = gmesh.covered_ases(topo);
    for (int a : after.covered_ases(topo)) universe.insert(a);
    for (int a : f_ases) universe.insert(a);

    const core::ControlPlaneObs cp = collect_control_plane(net);

    EpisodeContext ctx{before,
                       after,
                       cp,
                       lg_svc ? &*lg_svc : nullptr,
                       op_as,
                       f_links,
                       f_ases,
                       universe,
                       diag};
    ins.episodes.inc();
    sink(trial, ctx);
    net.restore(base);
    net.set_operator_as(op_as);
  }
  return quarantined;
}

/// Scores one episode for run(): runs every requested algorithm and
/// derives the per-trial metrics. Pure per-episode work — safe to call
/// from pool workers.
TrialResult score_episode(const EpisodeContext& ep,
                          const std::vector<Algo>& algos, FailureMode mode) {
  TrialResult tr;
  tr.diagnosability = ep.diagnosability;
  for (Algo algo : algos) {
    core::AlgorithmOutput out;
    switch (algo) {
      case Algo::kTomo:
        out = core::run_tomo(ep.before, ep.after);
        break;
      case Algo::kNdEdge:
        out = core::run_nd_edge(ep.before, ep.after);
        break;
      case Algo::kNdBgpIgp:
        out = core::run_nd_bgpigp(ep.before, ep.after, ep.cp);
        break;
      case Algo::kNdLg:
        assert(ep.lg != nullptr);
        out = core::run_nd_lg(ep.before, ep.after, ep.cp, *ep.lg,
                              ep.operator_as);
        break;
    }
    if (!ep.failed_links.empty()) {
      tr.link[algo] = core::link_metrics(out.result.links, ep.failed_links,
                                         out.graph.probed_keys);
    }
    tr.as_level[algo] =
        core::as_metrics(out.result.ases, ep.failed_ases, ep.universe);
    if (mode == FailureMode::kRouter) {
      for (const auto& k : out.result.links) {
        if (ep.failed_links.count(k) != 0) {
          tr.router_detected = true;
          break;
        }
      }
    }
  }
  return tr;
}

/// One placement's diagnosable episodes, copied out of the worker-local
/// EpisodeContexts so its commit can replay them on the calling thread.
struct PlacementEpisodes {
  struct Episode {
    Mesh after;
    core::ControlPlaneObs cp;
    std::set<std::string> f_links;
    std::set<int> f_ases;
    std::set<int> universe;
  };
  Mesh before;
  std::optional<lg::LookingGlassService> lg_svc;
  AsId op_as{0};
  double diag = 0.0;
  std::vector<Episode> episodes;

  void add(const EpisodeContext& ep) {
    if (episodes.empty()) {
      before = ep.before;
      if (ep.lg != nullptr) lg_svc.emplace(*ep.lg);
      op_as = ep.operator_as;
      diag = ep.diagnosability;
    }
    episodes.push_back(
        {ep.after, ep.cp, ep.failed_links, ep.failed_ases, ep.universe});
  }

  /// Commits call it on the placement moved out of its buffer, so the
  /// episodes are freed once replayed.
  void replay(const std::function<void(const EpisodeContext&)>& fn) const {
    for (const Episode& e : episodes) {
      fn(EpisodeContext{before, e.after, e.cp, lg_svc ? &*lg_svc : nullptr,
                        op_as, e.f_links, e.f_ases, e.universe, diag});
    }
  }
};

/// Loads `opts.checkpoint_path` when resuming (a missing file is a fresh
/// start, not an error), verifies it belongs to this campaign, and
/// otherwise returns `fresh`. std::nullopt (with `error`) on I/O failure
/// or a fingerprint mismatch.
std::optional<Checkpoint> open_campaign(const Checkpoint& fresh,
                                        const CampaignOptions& opts,
                                        std::string* error) {
  if (opts.resume && !opts.checkpoint_path.empty() &&
      util::file_size(opts.checkpoint_path).has_value()) {
    auto loaded = Checkpoint::load(opts.checkpoint_path, error);
    if (!loaded) return std::nullopt;
    if (loaded->fingerprint() != fresh.fingerprint()) {
      if (error != nullptr) {
        *error = opts.checkpoint_path +
                 ": checkpoint belongs to a different campaign "
                 "(scenario / algos / recording mode mismatch)";
      }
      return std::nullopt;
    }
    return loaded;
  }
  return fresh;
}

}  // namespace

bool Runner::map_episodes(const ScenarioConfig& cfg, bool need_lg,
                          std::size_t first, std::size_t last,
                          const EpisodeSink& sink,
                          const PlacementCommit& commit) {
  // The LG answer table is a function of the shared base state; build it
  // once and let every placement's service filter it.
  std::optional<lg::LgTable> lg_table;
  if (need_lg) lg_table.emplace(net_);
  const lg::LgTable* table = lg_table ? &*lg_table : nullptr;

  // Pre-fork one seed per placement, in placement order, so sharding (or
  // skipping committed placements) cannot change any placement's draws.
  util::Rng root(cfg.seed);
  std::vector<std::uint64_t> seeds(cfg.num_placements);
  for (auto& s : seeds) s = root.fork();

  // A placement's span tree derives from (campaign seed, placement index)
  // only, so it is identical across runs and across thread counts.
  const auto root_context = [&](std::size_t pl) {
    return obs::Span::root_context(cfg.seed, pl,
                                   static_cast<std::uint32_t>(pl + 1));
  };
  std::vector<std::vector<std::size_t>> quarantined(cfg.num_placements);
  const auto run_one = [&](sim::Network& net,
                           const sim::Network::Snapshot& base,
                           std::size_t pl) {
    obs::Span pl_span("placement", root_context(pl), /*salt=*/0);
    quarantined[pl] =
        run_placement(cfg, net, base, seeds[pl], table,
                      [&](std::size_t trial, const EpisodeContext& ep) {
                        sink(pl, trial, ep);
                      });
  };
  const auto commit_one = [&](std::size_t pl) {
    obs::Span commit_span("checkpoint_commit", root_context(pl), /*salt=*/1);
    return commit(pl, seeds[pl], quarantined[pl]);
  };

  const std::size_t n = last - first;
  const std::size_t threads = std::min(
      util::ThreadPool::resolve_threads(cfg.num_threads),
      std::max<std::size_t>(1, n));
  if (threads <= 1) {
    const sim::Network::Snapshot base = net_.snapshot();
    for (std::size_t pl = first; pl < last; ++pl) {
      run_one(net_, base, pl);
      if (!commit_one(pl)) return false;
    }
    return true;
  }

  // Placement-granularity sharding: worker w owns the contiguous block
  // [first + w·n/T, first + (w+1)·n/T) on a private clone of the network
  // (re-converged from the same topology, hence bit-identical routing
  // state), so every placement's episodes are produced by exactly one
  // thread. A worker fulfils done[p] once placement p has run, or hands
  // the exception that stopped its block to the caller. Only the caller
  // sets `stop`, once it waits for no further placement.
  std::vector<std::promise<void>> done(n);
  std::atomic<bool> stop{false};
  util::ThreadPool pool(threads);
  for (std::size_t w = 0; w < threads; ++w) {
    pool.submit([&, pl = first + w * n / threads,
                 end = first + (w + 1) * n / threads]() mutable {
      try {
        sim::Network net(net_.topology());
        net.converge();
        const sim::Network::Snapshot base = net.snapshot();
        for (; pl < end && !stop; ++pl) {
          run_one(net, base, pl);
          done[pl - first].set_value();
        }
      } catch (...) {
        for (; pl < end; ++pl) {
          done[pl - first].set_exception(std::current_exception());
        }
      }
    });
  }
  for (std::size_t pl = first; pl < last && !stop; ++pl) {
    done[pl - first].get_future().get();  // rethrows a worker's exception
    stop = !commit_one(pl);
  }
  return !stop;
}

void Runner::for_each_episode(
    const std::function<void(const EpisodeContext&)>& fn, bool deploy_lg) {
  std::vector<PlacementEpisodes> buffered(cfg_.num_placements);
  map_episodes(
      cfg_, deploy_lg || cfg_.frac_blocked > 0.0, 0, cfg_.num_placements,
      [&](std::size_t pl, std::size_t, const EpisodeContext& ep) {
        buffered[pl].add(ep);
      },
      [&](std::size_t pl, std::uint64_t, const std::vector<std::size_t>&) {
        PlacementEpisodes(std::move(buffered[pl])).replay(fn);
        return true;
      });
}

std::optional<CampaignResult> Runner::campaign(
    Checkpoint& ck, const CampaignOptions& opts, bool need_lg,
    const EpisodeSink& sink,
    const std::function<bool(std::size_t pl, std::string* error)>& fold,
    std::string* error) {
  // Persist the starting state up front so a kill before the first
  // placement commit still leaves a loadable checkpoint behind.
  const bool persist = !opts.checkpoint_path.empty();
  if (persist && !ck.save(opts.checkpoint_path, error)) return std::nullopt;
  // A contiguous chunk, so the committed prefix never gets a hole.
  const std::size_t resumed = ck.completed_placements;
  const std::size_t todo = cfg_.num_placements - resumed;
  const std::size_t last =
      resumed + (opts.max_new_placements == 0
                     ? todo
                     : std::min(todo, opts.max_new_placements));
  std::string commit_error;
  const bool ok = map_episodes(
      cfg_, need_lg, resumed, last, sink,
      [&](std::size_t pl, std::uint64_t seed,
          const std::vector<std::size_t>& quarantined) {
        if (!fold(pl, &commit_error)) return false;
        for (std::size_t t : quarantined) {
          ck.quarantined.push_back(QuarantinedTrial{pl, t, seed});
        }
        ++ck.completed_placements;
        return !persist || ck.save(opts.checkpoint_path, &commit_error);
      });
  if (!ok) {
    if (error != nullptr) *error = commit_error;
    return std::nullopt;
  }
  CampaignResult res;
  res.total_placements = cfg_.num_placements;
  res.completed_placements = ck.completed_placements;
  res.resumed_placements = resumed;
  res.episodes = ck.episodes;
  res.quarantined = ck.quarantined;
  for (const auto& bucket : ck.results) {
    for (const auto& st : bucket) res.trials.push_back(st);
  }
  return res;
}

std::vector<TrialResult> Runner::run(const std::vector<Algo>& algos) {
  auto res = run_campaign(algos, {});  // without a checkpoint it cannot fail
  std::vector<TrialResult> results;
  results.reserve(res->trials.size());
  for (ScoredTrial& st : res->trials) results.push_back(std::move(st.result));
  return results;
}

std::optional<CampaignResult> Runner::run_campaign(
    const std::vector<Algo>& algos, const CampaignOptions& opts,
    std::string* error) {
  Checkpoint fresh;
  fresh.scenario = cfg_;
  fresh.algos = algos;
  auto ck = open_campaign(fresh, opts, error);
  if (!ck) return std::nullopt;
  // Scored on the worker that runs the placement, appended at its commit.
  std::vector<std::vector<ScoredTrial>> scored(cfg_.num_placements);
  return campaign(
      *ck, opts,
      std::find(algos.begin(), algos.end(), Algo::kNdLg) != algos.end(),
      [&](std::size_t pl, std::size_t trial, const EpisodeContext& ep) {
        scored[pl].push_back(
            ScoredTrial{pl, trial, score_episode(ep, algos, cfg_.mode)});
      },
      [&](std::size_t pl, std::string*) {
        ck->episodes += scored[pl].size();
        ck->results.push_back(std::move(scored[pl]));
        return true;
      },
      error);
}

std::optional<CampaignResult> Runner::record(
    std::ostream& os, const std::string& trace_path,
    const svc::SessionConfig& config,
    const core::Troubleshooter::Config& resolved, Checkpoint& ck,
    const CampaignOptions& opts, std::string* error) {
  // A resumed trace already holds its config line.
  svc::TraceRecorder recorder(os, config, /*emit_config=*/ck.trace_bytes == 0);
  core::Troubleshooter ts(resolved);
  std::vector<PlacementEpisodes> buffered(cfg_.num_placements);
  const auto record_episode = [&](const EpisodeContext& ep) {
    // set_baseline resets the detector, so episodes are independent and a
    // recorder restarted mid-campaign emits identical bytes.
    ts.set_baseline(ep.before);
    recorder.baseline(ep.before);
    // The failure persists across rounds, so the alarm fires exactly on
    // round `alarm_threshold` and that round carries the diagnosis.
    for (std::size_t r = 0; r < config.alarm_threshold; ++r) {
      recorder.round(ep.after, &ep.cp);
      const auto out = ts.observe(ep.after, &ep.cp);
      if (out.has_value()) recorder.diagnosis(*out);
    }
    ++ck.episodes;
  };
  // Looking Glasses are deployed iff traceroute blocking is on.
  return campaign(
      ck, opts, cfg_.frac_blocked > 0.0,
      [&](std::size_t pl, std::size_t, const EpisodeContext& ep) {
        buffered[pl].add(ep);
      },
      [&](std::size_t pl, std::string* e) {
        PlacementEpisodes(std::move(buffered[pl])).replay(record_episode);
        if (opts.checkpoint_path.empty()) return true;
        // Durability order: trace bytes hit disk before the checkpoint
        // that references their length is committed.
        os.flush();
        if (!os) {
          *e = "write error on " + trace_path;
          return false;
        }
        if (!util::fsync_file(trace_path, e)) return false;
        const auto size = util::file_size(trace_path);
        if (!size) {
          *e = "stat failed on " + trace_path;
          return false;
        }
        ck.trace_bytes = *size;
        return true;
      },
      error);
}

std::optional<std::size_t> Runner::record_trace(
    std::ostream& os, const svc::SessionConfig& config, std::string* error) {
  const auto resolved = config.resolve(error);
  if (!resolved) return std::nullopt;
  Checkpoint ck;
  const auto res = record(os, "", config, *resolved, ck, {}, error);
  if (!res) return std::nullopt;
  return res->episodes;
}

std::optional<CampaignResult> Runner::record_campaign(
    const std::string& trace_path, const svc::SessionConfig& config,
    const CampaignOptions& opts, std::string* error) {
  const auto resolved = config.resolve(error);
  if (!resolved) return std::nullopt;
  Checkpoint fresh;
  fresh.scenario = cfg_;
  fresh.recording = true;
  fresh.record_config = config;
  auto ck = open_campaign(fresh, opts, error);
  if (!ck) return std::nullopt;

  // Trace file: resume truncates back to the committed byte offset —
  // dropping any partial trailing line a crash left — and appends; a
  // fresh campaign truncates the whole file and re-emits the config line.
  if (ck->trace_bytes > 0) {
    const auto size = util::file_size(trace_path);
    if (!size || *size < ck->trace_bytes) {
      if (error != nullptr) {
        *error = trace_path + ": shorter than the checkpoint's committed "
                 "offset — wrong or lost trace file";
      }
      return std::nullopt;
    }
    if (!util::truncate_file(trace_path, ck->trace_bytes, error)) {
      return std::nullopt;
    }
    // The committed offset is a line boundary by construction; refuse a
    // file that disagrees (wrong file, manual edits).
    std::ifstream in(trace_path, std::ios_base::binary);
    in.seekg(static_cast<std::streamoff>(ck->trace_bytes - 1));
    char c = 0;
    if (!in.get(c) || c != '\n') {
      if (error != nullptr) {
        *error = trace_path + ": committed offset is not a line boundary";
      }
      return std::nullopt;
    }
  }
  std::ofstream os(trace_path, ck->trace_bytes > 0 ? std::ios_base::app
                                                   : std::ios_base::trunc);
  if (!os) {
    if (error != nullptr) *error = "cannot write " + trace_path;
    return std::nullopt;
  }
  auto res = record(os, trace_path, config, *resolved, *ck, opts, error);
  if (!res) return std::nullopt;
  os.flush();
  if (!os) {
    if (error != nullptr) *error = "write error on " + trace_path;
    return std::nullopt;
  }
  return res;
}

std::vector<ScoredTrial> Runner::replay_placement(std::size_t placement,
                                                  const std::vector<Algo>& algos,
                                                  bool deploy_lg) {
  std::vector<ScoredTrial> out;
  if (placement >= cfg_.num_placements) return out;
  ScenarioConfig cfg = cfg_;
  cfg.trial_deadline_ms = 0;  // the replay runs to completion, no watchdog
  // One placement runs serially on net_, under the same span tree as the
  // campaign's own run of it, so a traced replay diffs cleanly against it.
  map_episodes(
      cfg, deploy_lg, placement, placement + 1,
      [&](std::size_t pl, std::size_t trial, const EpisodeContext& ep) {
        out.push_back(
            ScoredTrial{pl, trial, score_episode(ep, algos, cfg.mode)});
      },
      [](std::size_t, std::uint64_t, const std::vector<std::size_t>&) {
        return true;
      });
  return out;
}

}  // namespace netd::exp
