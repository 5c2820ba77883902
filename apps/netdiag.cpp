// netdiag — the NetDiagnoser command-line tool. All commands:
//
//   netdiag topo      generate/inspect/export the evaluation topology
//   netdiag plan      choose an identifiability-maximizing sensor placement
//                     from a candidate pool (greedy planner, src/plan)
//   netdiag run       run a full evaluation scenario, print metric tables
//                     (or record a svc event trace with --record FILE)
//   netdiag diagnose  walk through one failure episode verbosely
///   netdiag watch     simulate the continuous NOC loop: flap filtering plus
//                     automatic diagnosis (--record FILE captures a trace)
//   netdiag serve     run the diagnosis service daemon (svc wire protocol)
//   netdiag submit    send one protocol request to a running daemon
//   netdiag top       poll a daemon's `metrics` verb and render the
//                     Prometheus samples as a live table
//   netdiag tail      stream a daemon's structured event ring (slow
//                     requests, sheds, dedups, quarantines, fsync stalls)
//   netdiag replay    re-run a recorded event trace, verifying diagnoses
//   netdiag wal       inspect a durable server's session journals
//   netdiag trace-merge  join agent-side and server-side Chrome trace
//                     files into one cross-process Perfetto timeline
//   netdiag requarantine  replay watchdog-quarantined trials from a
//                     campaign checkpoint and recover their results
//
// Run `netdiag <command> --help` for the flags of each command.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <thread>

#include "core/algorithms.h"
#include "core/diagnosability.h"
#include "core/json_export.h"
#include "core/report.h"
#include "core/troubleshooter.h"
#include "exp/checkpoint.h"
#include "exp/runner.h"
#include "lg/looking_glass.h"
#include "obs/events.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "obs/trace_context.h"
#include "plan/planner.h"
#include "probe/prober.h"
#include "sim/network.h"
#include "svc/client.h"
#include "svc/journal.h"
#include "svc/protocol.h"
#include "svc/server.h"
#include "svc/socket.h"
#include "svc/trace.h"
#include "topo/generator.h"
#include "topo/io.h"
#include "topo/random_internet.h"
#include "util/atomic_file.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

using namespace netd;

namespace {

int usage() {
  std::cerr <<
      "usage: netdiag <command> [flags]\n"
      "\n"
      "commands:\n"
      "  topo      generate the paper's evaluation topology; print stats,\n"
      "            optionally dump it (--dump FILE) or export DOT (--dot FILE)\n"
      "  plan      greedily choose the probe-budget sensor subset of a\n"
      "            candidate pool that maximizes failure identifiability\n"
      "  run       run an evaluation scenario and print sensitivity/\n"
      "            specificity tables per algorithm\n"
      "  diagnose  inject one failure and show each algorithm's hypothesis\n"
      "  watch     simulate the continuous NOC loop: flap filtering plus\n"
      "            automatic diagnosis when an alarm fires\n"
      "            (--record FILE captures the rounds as an event trace)\n"
      "  serve     run the diagnosis service daemon\n"
      "  submit    send one protocol request to a daemon, print the reply\n"
      "  top       poll a daemon's `metrics` verb once per interval and\n"
      "            render the Prometheus samples as a table\n"
      "  tail      stream a daemon's structured event ring: slow requests,\n"
      "            sheds, dedups, quarantines, fsync stalls (with trace ids)\n"
      "  replay    re-run a recorded event trace (in process or through a\n"
      "            socket) and verify the diagnoses match the recording\n"
      "  wal       inspect a durable server's session journals: record\n"
      "            counts, LSN ranges, watermarks, corruption (if any)\n"
      "  trace-merge  merge per-process Chrome trace files (agents +\n"
      "            server) into one cross-process Perfetto timeline\n"
      "  requarantine  replay the trials a campaign's watchdog quarantined\n"
      "            (from a --checkpoint file) and recover their results\n";
  return 2;
}

topo::GeneratorParams topo_params(util::Flags& flags) {
  topo::GeneratorParams p;
  p.seed = static_cast<std::uint64_t>(flags.get_uint("topo-seed", 1));
  p.target_ases = flags.get_uint("ases", 165);
  p.pool_tier2 = flags.get_uint("tier2", 22);
  p.pool_stubs = flags.get_uint("stubs", 200);
  return p;
}

/// Loads a topology from --topo FILE, or generates one from `params`.
std::optional<topo::Topology> make_topology(
    const util::Flags& flags, const topo::GeneratorParams& params) {
  const std::string file = flags.get("topo");
  if (file.empty()) return topo::generate(params);
  std::ifstream is(file);
  if (!is) {
    std::cerr << "netdiag: cannot open " << file << "\n";
    return std::nullopt;
  }
  std::string error;
  auto t = topo::read_text(is, &error);
  if (!t) std::cerr << "netdiag: " << file << ": " << error << "\n";
  return t;
}

int cmd_topo(util::Flags& flags) {
  flags.allow({"topo-seed", "ases", "tier2", "stubs", "dump", "dot", "topo",
               "help"});
  const topo::GeneratorParams params = topo_params(flags);
  if (!flags.ok() || flags.get_bool("help")) {
    std::cerr << "netdiag topo [--topo-seed N] [--ases N] [--tier2 N] "
                 "[--stubs N]\n             [--topo FILE] [--dump FILE] "
                 "[--dot FILE]\n";
    for (const auto& e : flags.errors()) std::cerr << "  " << e << "\n";
    return flags.ok() ? 0 : 2;
  }
  const auto topo = make_topology(flags, params);
  if (!topo) return 1;

  std::size_t core = 0, tier2 = 0, stub = 0, inter = 0;
  for (const auto& as : topo->ases()) {
    switch (as.cls) {
      case topo::AsClass::kCore: ++core; break;
      case topo::AsClass::kTier2: ++tier2; break;
      case topo::AsClass::kStub: ++stub; break;
    }
  }
  for (const auto& l : topo->links()) inter += l.interdomain;
  std::cout << "ASes:    " << topo->num_ases() << " (" << core << " core, "
            << tier2 << " tier-2, " << stub << " stub)\n"
            << "routers: " << topo->num_routers() << "\n"
            << "links:   " << topo->num_links() << " ("
            << topo->num_links() - inter << " intradomain, " << inter
            << " interdomain)\n";

  if (const std::string f = flags.get("dump"); !f.empty()) {
    std::ofstream os(f);
    topo::write_text(*topo, os);
    std::cout << "wrote " << f << "\n";
  }
  if (const std::string f = flags.get("dot"); !f.empty()) {
    std::ofstream os(f);
    topo::write_dot(*topo, os);
    std::cout << "wrote " << f << "\n";
  }
  return 0;
}

std::optional<std::vector<exp::Algo>> parse_algos(const std::string& spec) {
  std::vector<exp::Algo> out;
  std::istringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item == "tomo") {
      out.push_back(exp::Algo::kTomo);
    } else if (item == "nd-edge") {
      out.push_back(exp::Algo::kNdEdge);
    } else if (item == "nd-bgpigp") {
      out.push_back(exp::Algo::kNdBgpIgp);
    } else if (item == "nd-lg") {
      out.push_back(exp::Algo::kNdLg);
    } else {
      std::cerr << "netdiag: unknown algorithm '" << item
                << "' (tomo, nd-edge, nd-bgpigp, nd-lg)\n";
      return std::nullopt;
    }
  }
  return out;
}

std::optional<probe::PlacementKind> parse_placement(const std::string& s) {
  if (s == "random") return probe::PlacementKind::kRandomStub;
  if (s == "same-as") return probe::PlacementKind::kSameAs;
  if (s == "distant-as") return probe::PlacementKind::kDistantAs;
  if (s == "distant-as-split") return probe::PlacementKind::kDistantAsSplit;
  std::cerr << "netdiag: unknown placement '" << s << "'\n";
  return std::nullopt;
}

/// Observability outputs of `netdiag run`: installs the trace sink when
/// --trace-out is set, and on destruction — i.e. on every exit path of
/// cmd_run — writes the Chrome trace and/or the Prometheus metrics
/// snapshot the flags requested. Failures are reported but do not change
/// the command's exit code: the run itself already succeeded or failed.
class ObsOutputs {
 public:
  explicit ObsOutputs(util::Flags& flags)
      : trace_path_(flags.get("trace-out")),
        metrics_path_(flags.get("metrics-out")) {
    if (!trace_path_.empty()) obs::TraceSink::install();
  }

  ~ObsOutputs() {
    std::string error;
    if (!trace_path_.empty()) {
      if (obs::TraceSink::write_chrome_trace(trace_path_, &error)) {
        std::cout << "wrote " << trace_path_ << " ("
                  << obs::TraceSink::snapshot().size() << " spans)\n";
      } else {
        std::cerr << "netdiag: " << error << "\n";
      }
      obs::TraceSink::uninstall();
    }
    if (!metrics_path_.empty()) {
      if (util::atomic_write_file(metrics_path_,
                                  obs::render_global_prometheus(), &error)) {
        std::cout << "wrote " << metrics_path_ << "\n";
      } else {
        std::cerr << "netdiag: " << error << "\n";
      }
    }
  }

  ObsOutputs(const ObsOutputs&) = delete;
  ObsOutputs& operator=(const ObsOutputs&) = delete;

 private:
  std::string trace_path_;
  std::string metrics_path_;
};

int cmd_plan(util::Flags& flags) {
  flags.allow({"topo-seed", "ases", "tier2", "stubs", "topo", "internet",
               "budget", "candidates", "granularity", "placement", "seed",
               "threads", "eager", "compare-random", "json", "csv", "help"});
  const std::size_t inet = flags.get_uint("internet", 0);
  topo::GeneratorParams params = topo_params(flags);
  // --topo-seed defaults to 42 for --internet topologies, 1 otherwise.
  if (inet != 0 && !flags.has("topo-seed")) params.seed = 42;
  const std::size_t budget = flags.get_uint("budget", 10);
  const std::size_t requested =
      std::max(flags.get_uint("candidates", budget * 4), budget);
  util::Rng rng(flags.get_uint("seed", 42));
  plan::PlannerConfig pcfg;
  pcfg.num_threads = flags.get_uint("threads", 0);
  const std::size_t compare = flags.get_uint("compare-random", 0);
  if (!flags.ok() || flags.get_bool("help")) {
    std::cerr
        << "netdiag plan [--budget K] [--candidates C]  (default C = 4K)\n"
           "             [--granularity link|as|node]  objective element type\n"
           "             [--placement random|same-as|distant-as|"
           "distant-as-split]\n"
           "                            candidate-pool draw (default random)\n"
           "             [--seed S]     candidate-pool RNG seed\n"
           "             [--threads N]  BFS precompute workers (0 = all\n"
           "                            cores; the plan is identical for\n"
           "                            every value)\n"
           "             [--eager]      disable the lazy gain cache\n"
           "             [--compare-random R]  also score R random\n"
           "                            K-subsets of the pool (mean)\n"
           "             [--json] [--csv]  machine-readable output\n"
           "topology (one of):\n"
           "             [--topo-seed N] [--ases N] [--tier2 N] [--stubs N]\n"
           "                            the paper's generator (default)\n"
           "             [--topo FILE]  load a dumped topology\n"
           "             [--internet A] random Internet-like topology with\n"
           "                            ~A ASes (bench_scale's family)\n";
    for (const auto& e : flags.errors()) std::cerr << "  " << e << "\n";
    return flags.ok() ? 0 : 2;
  }

  std::optional<topo::Topology> topology;
  if (inet != 0) {
    topo::RandomInternetParams p;
    p.num_tier1 = 5;
    p.num_tier2 = std::min<std::size_t>(400, 25 + inet / 100);
    p.num_stubs = inet > p.num_tier1 + p.num_tier2
                      ? inet - p.num_tier1 - p.num_tier2
                      : 1;
    p.tier1_routers = 10;
    p.tier2_routers = 4;
    p.seed = params.seed;
    topology = topo::random_internet(p);
  } else {
    topology = make_topology(flags, params);
  }
  if (!topology) return 1;

  const auto granularity =
      plan::granularity_from_string(flags.get("granularity", "link"));
  if (!granularity) {
    std::cerr << "netdiag: unknown granularity '" << flags.get("granularity")
              << "' (link, as, node)\n";
    return 2;
  }
  auto kind = probe::PlacementKind::kRandomStub;
  if (flags.has("placement")) {
    const auto parsed = parse_placement(flags.get("placement"));
    if (!parsed) return 2;
    kind = *parsed;
  }
  const std::size_t capacity = probe::placement_capacity(*topology, kind);
  if (capacity < std::max<std::size_t>(budget, 2)) {
    std::cerr << "netdiag: topology hosts only " << capacity
              << " sensors under '" << probe::to_string(kind)
              << "' placement; lower --budget or grow the topology\n";
    return 2;
  }
  const std::size_t pool = std::min(requested, capacity);
  if (pool < requested) {
    std::cerr << "netdiag: candidate pool clamped to " << pool
              << " (topology capacity under '" << probe::to_string(kind)
              << "' placement)\n";
  }

  pcfg.budget = budget;
  pcfg.objective = *granularity;
  pcfg.lazy = !flags.get_bool("eager");
  plan::Planner planner(*topology,
                        probe::place_sensors(*topology, kind, pool, rng),
                        pcfg);

  const auto t0 = std::chrono::steady_clock::now();
  const plan::PlanResult result = planner.plan();
  const double plan_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();

  double random_objective = 0.0;
  for (std::size_t r = 0; r < compare; ++r) {
    std::vector<std::size_t> all(planner.candidates().size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    random_objective += planner.evaluate(rng.sample(all, budget));
  }
  if (compare > 0) random_objective /= static_cast<double>(compare);

  const auto& topo = *topology;
  if (flags.get_bool("json")) {
    using util::Json;
    Json j = Json::object();
    j.set("granularity", Json::string(plan::to_string(*granularity)));
    j.set("budget", Json::uinteger(budget));
    j.set("candidates", Json::uinteger(pool));
    j.set("objective", Json::number(result.objective));
    j.set("plan_ms", Json::number(plan_ms));
    if (compare > 0) j.set("random_objective", Json::number(random_objective));
    Json& sensors = j.set("sensors", Json::array());
    for (std::size_t i = 0; i < result.sensors.size(); ++i) {
      const auto& s = result.sensors[i];
      Json& e = sensors.push_back(Json::object());
      e.set("name", Json::string(s.name));
      e.set("router", Json::string(topo.router(s.attach).name));
      e.set("as", Json::uinteger(s.as.value()));
      e.set("candidate", Json::uinteger(result.chosen[i]));
      e.set("gain", Json::number(result.gains[i]));
    }
    Json& report = j.set("report", Json::object());
    for (const auto& [key, st] :
         {std::pair{"links", result.report.links},
          std::pair{"ases", result.report.ases},
          std::pair{"nodes", result.report.nodes}}) {
      Json& e = report.set(key, Json::object());
      e.set("covered", Json::uinteger(st.covered));
      e.set("distinct", Json::uinteger(st.distinct));
      e.set("identifiable", Json::uinteger(st.identifiable));
    }
    std::cout << j.dump() << "\n";
    return 0;
  }

  std::cout << "plan: budget=" << budget << " candidates=" << pool
            << " granularity=" << plan::to_string(*granularity)
            << " objective=" << result.objective << " ("
            << plan_ms << " ms)\n";
  if (compare > 0) {
    std::cout << "random baseline (" << compare
              << " draws): objective=" << random_objective << "\n";
  }
  util::Table sensors({"sensor @ router", "AS", "gain"});
  sensors.set_precision(0);
  for (std::size_t i = 0; i < result.sensors.size(); ++i) {
    const auto& s = result.sensors[i];
    sensors.add_row(s.name + " @ " + topo.router(s.attach).name,
                    {static_cast<double>(s.as.value()), result.gains[i]});
  }
  // The label column carries "name @ router", so the AS column follows it.
  std::cout << "\n";
  sensors.print(std::cout);
  util::Table report({"granularity", "covered", "distinct", "identifiable",
                      "D(G)", "ident frac"});
  const auto add = [&report](const char* label,
                             const plan::GranularityStats& st) {
    report.add_row(label, {static_cast<double>(st.covered),
                           static_cast<double>(st.distinct),
                           static_cast<double>(st.identifiable),
                           st.distinct_fraction(), st.identifiable_fraction()});
  };
  add("link", result.report.links);
  add("as", result.report.ases);
  add("node", result.report.nodes);
  std::cout << "\nmeasured identifiability of the planned mesh:\n";
  report.print(std::cout);
  if (flags.get_bool("csv")) {
    std::cout << "\n";
    sensors.print_csv(std::cout);
  }
  return 0;
}

int cmd_run(util::Flags& flags) {
  flags.allow({"topo-seed", "ases", "tier2", "stubs", "mode", "failures",
               "sensors", "placements", "trials", "placement", "plan-pool",
               "blocked", "lg", "operator", "seed", "algos", "threads",
               "record", "threshold", "checkpoint", "resume",
               "trial-deadline-ms", "csv", "max-placements", "trace-out",
               "metrics-out", "help"});
  exp::ScenarioConfig cfg;
  cfg.topo_params = topo_params(flags);
  cfg.num_sensors = flags.get_uint("sensors", 10);
  cfg.num_placements = flags.get_uint("placements", 5);
  cfg.trials_per_placement = flags.get_uint("trials", 20);
  cfg.num_link_failures = flags.get_uint("failures", 1);
  cfg.frac_blocked = flags.get_double("blocked", 0.0);
  cfg.frac_lg = flags.get_double("lg", 1.0);
  cfg.seed = static_cast<std::uint64_t>(flags.get_uint("seed", 42));
  cfg.num_threads = flags.get_uint("threads", 0);
  cfg.trial_deadline_ms =
      static_cast<std::uint64_t>(flags.get_uint("trial-deadline-ms", 0));
  cfg.plan_pool = flags.get_uint("plan-pool", 0);
  exp::CampaignOptions copts;
  copts.max_new_placements = flags.get_uint("max-placements", 0);
  svc::SessionConfig scfg;
  scfg.alarm_threshold = flags.get_uint("threshold", 1);
  if (!flags.ok() || flags.get_bool("help")) {
    std::cerr
        << "netdiag run [--mode links|misconfig|misconfig-link|router]\n"
           "            [--failures K] [--sensors N] [--placements P]\n"
           "            [--trials T] [--placement random|same-as|distant-as|"
           "distant-as-split|planned]\n"
           "            [--plan-pool C]  planned placement: candidate pool\n"
           "                            size (default 4 x sensors)\n"
           "            [--blocked F] [--lg F] [--operator core|stub]\n"
           "            [--seed S] [--algos tomo,nd-edge,nd-bgpigp,nd-lg]\n"
           "            [--threads N]  (0 = one per hardware thread; results\n"
           "                            are identical for every value)\n"
           "            [--record FILE [--threshold K]]  write the episodes\n"
           "                            as a svc event trace instead of\n"
           "                            scoring them (no --algos, --csv)\n"
           "crash-safe campaigns:\n"
           "            [--checkpoint FILE]  persist completed placements\n"
           "                            atomically; a killed run restarted\n"
           "                            with --resume continues where it\n"
           "                            stopped and produces byte-identical\n"
           "                            results\n"
           "            [--resume]      load --checkpoint FILE if it exists\n"
           "            [--trial-deadline-ms MS]  per-trial watchdog: a\n"
           "                            trial over budget is quarantined\n"
           "                            (see netdiag requarantine), never\n"
           "                            aborts the campaign\n"
           "            [--csv FILE]    write per-trial metrics as CSV\n"
           "            [--max-placements N]  run at most N new placements\n"
           "                            this invocation (chunked campaigns)\n"
           "observability:\n"
           "            [--trace-out FILE]  capture structured spans and\n"
           "                            write a Chrome trace_event JSON file\n"
           "                            (open in Perfetto; span IDs are\n"
           "                            deterministic per seed)\n"
           "            [--metrics-out FILE]  write the run's counters and\n"
           "                            histograms in Prometheus text format\n";
    for (const auto& e : flags.errors()) std::cerr << "  " << e << "\n";
    return flags.ok() ? 0 : 2;
  }

  // A flag the chosen mode would ignore is refused, never dropped.
  const std::string record = flags.get("record");
  for (const std::string f : {"algos", "csv", "threshold"}) {
    const bool needs_record = f == "threshold";
    if (flags.has(f) && needs_record == record.empty()) {
      std::cerr << "netdiag: --" << f
                << (record.empty() ? " needs --record\n"
                                   : " does not apply to --record\n");
      return 2;
    }
  }

  cfg.operator_at_core = flags.get("operator", "core") != "stub";
  if (flags.has("placement")) {
    // "planned" keeps the random candidate draw but deploys the
    // plan::Planner-chosen subset (see src/plan).
    if (flags.get("placement") == "planned") {
      cfg.placement_strategy = exp::PlacementStrategy::kPlanned;
    } else {
      const auto kind = parse_placement(flags.get("placement"));
      if (!kind) return 2;
      cfg.placement = *kind;
    }
  }

  const std::string mode = flags.get("mode", "links");
  if (mode == "links") {
    cfg.mode = exp::FailureMode::kLinks;
  } else if (mode == "misconfig") {
    cfg.mode = exp::FailureMode::kMisconfig;
  } else if (mode == "misconfig-link") {
    cfg.mode = exp::FailureMode::kMisconfigPlusLink;
  } else if (mode == "router") {
    cfg.mode = exp::FailureMode::kRouter;
  } else {
    std::cerr << "netdiag: unknown mode '" << mode << "'\n";
    return 2;
  }
  const auto algos = parse_algos(flags.get(
      "algos", cfg.frac_blocked > 0 ? "nd-bgpigp,nd-lg" : "tomo,nd-edge"));
  if (!algos) return 2;

  const ObsOutputs obs_outputs(flags);

  std::cout << "scenario: mode=" << mode << " failures=" << cfg.num_link_failures
            << " sensors=" << cfg.num_sensors << " placements x trials="
            << cfg.num_placements << "x" << cfg.trials_per_placement
            << " blocked=" << cfg.frac_blocked << " lg=" << cfg.frac_lg
            << "\n";
  copts.checkpoint_path = flags.get("checkpoint");
  copts.resume = flags.get_bool("resume");
  // Every run is a campaign; these flags only add its summary line.
  const bool campaign = !copts.checkpoint_path.empty() || copts.resume ||
                        flags.has("csv") || flags.has("max-placements") ||
                        cfg.trial_deadline_ms > 0;
  const auto print_campaign_summary = [](const exp::CampaignResult& res) {
    std::cout << "campaign: " << res.completed_placements << "/"
              << res.total_placements << " placements done ("
              << res.resumed_placements << " resumed), " << res.episodes
              << " episodes";
    if (!res.quarantined.empty()) {
      std::cout << ", " << res.quarantined.size()
                << " quarantined trial(s) — replay with netdiag requarantine";
    }
    std::cout << "\n";
  };

  exp::Runner runner(cfg);
  std::string error;
  if (!record.empty()) {
    const auto res = runner.record_campaign(record, scfg, copts, &error);
    if (!res) {
      std::cerr << "netdiag: " << error << "\n";
      return 1;
    }
    std::cout << "wrote " << record << " (" << res->episodes << " episodes)\n";
    if (campaign) print_campaign_summary(*res);
    return 0;
  }

  const auto res = runner.run_campaign(*algos, copts, &error);
  if (!res) {
    std::cerr << "netdiag: " << error << "\n";
    return 1;
  }
  if (campaign) print_campaign_summary(*res);
  if (const std::string f = flags.get("csv"); !f.empty()) {
    std::ofstream os(f);
    if (!os) {
      std::cerr << "netdiag: cannot write " << f << "\n";
      return 1;
    }
    exp::write_csv(os, res->trials, *algos);
    std::cout << "wrote " << f << " (" << res->trials.size() << " rows)\n";
  }
  std::cout << res->trials.size() << " diagnosable episodes\n\n";
  if (res->trials.empty()) return 0;

  util::Table t({"algorithm", "link sens", "link spec", "AS sens", "AS spec",
                 "mean |H|"});
  for (exp::Algo a : *algos) {
    util::Summary ls, lp, as, ap, hs;
    for (const auto& st : res->trials) {
      const exp::TrialResult& r = st.result;
      if (r.link.count(a) != 0) {
        ls.add(r.link.at(a).sensitivity);
        lp.add(r.link.at(a).specificity);
        hs.add(static_cast<double>(r.link.at(a).hypothesis_size));
      }
      as.add(r.as_level.at(a).sensitivity);
      ap.add(r.as_level.at(a).specificity);
    }
    t.add_row(exp::to_string(a),
              {ls.mean(), lp.mean(), as.mean(), ap.mean(), hs.mean()});
  }
  t.print(std::cout);
  return 0;
}

int cmd_diagnose(util::Flags& flags) {
  flags.allow({"topo-seed", "ases", "tier2", "stubs", "topo", "seed",
               "failures", "sensors", "report", "json", "help"});
  const topo::GeneratorParams params = topo_params(flags);
  util::Rng rng(flags.get_uint("seed", 7));
  const std::size_t num_sensors = flags.get_uint("sensors", 10);
  const std::size_t k = flags.get_uint("failures", 2);
  if (!flags.ok() || flags.get_bool("help")) {
    std::cerr << "netdiag diagnose [--seed S] [--failures K] [--sensors N]\n"
                 "                 [--topo FILE] [--report] [--json]\n";
    for (const auto& e : flags.errors()) std::cerr << "  " << e << "\n";
    return flags.ok() ? 0 : 2;
  }
  auto topology = make_topology(flags, params);
  if (!topology) return 1;
  sim::Network net(std::move(*topology));
  net.converge();
  const auto& topo = net.topology();
  net.set_operator_as(topo::AsId{0});

  const auto sensors = probe::place_sensors(
      topo, probe::PlacementKind::kRandomStub, num_sensors, rng);
  probe::Prober prober(net, sensors);
  const auto before = prober.measure();
  const auto dg = core::build_diagnosis_graph(before, before, false);
  std::cout << "probed links: " << dg.probed_keys.size()
            << ", diagnosability: " << core::diagnosability(dg) << "\n";

  const auto pool = before.probed_links();
  if (pool.size() < k) {
    std::cerr << "netdiag: not enough probed links\n";
    return 1;
  }
  const auto victims = rng.sample(pool, k);
  std::cout << "failing:";
  for (auto l : victims) std::cout << " " << exp::link_key(topo, l);
  std::cout << "\n";
  net.start_recording();
  for (auto l : victims) net.fail_link(l);
  net.reconverge();
  const auto after = prober.measure();

  std::size_t broken = 0;
  for (std::size_t i = 0; i < before.paths.size(); ++i) {
    broken += before.paths[i].ok && !after.paths[i].ok;
  }
  std::cout << "broken pairs: " << broken << " / " << before.paths.size()
            << "\n";
  if (broken == 0) {
    std::cout << "all pairs recovered by rerouting; nothing to diagnose "
                 "(try another --seed)\n";
    return 0;
  }

  const auto cp = exp::collect_control_plane(net);
  std::set<std::string> truth;
  for (auto l : victims) truth.insert(exp::link_key(topo, l));
  auto report = [&](const char* name, const core::AlgorithmOutput& out) {
    const auto m =
        core::link_metrics(out.result.links, truth, out.graph.probed_keys);
    std::cout << "\n" << name << " (sens " << m.sensitivity << ", spec "
              << m.specificity << "):\n";
    for (const auto& key : out.result.links) {
      std::cout << "  " << key
                << (truth.count(key) ? "   <-- actually failed" : "") << "\n";
    }
  };
  report("Tomo", core::run_tomo(before, after));
  report("ND-edge", core::run_nd_edge(before, after));
  const auto bgpigp = core::run_nd_bgpigp(before, after, cp);
  report("ND-bgpigp", bgpigp);
  if (flags.get_bool("report")) {
    std::cout << "\n"
              << core::render_report(bgpigp.graph, bgpigp.result, &truth);
  }
  if (flags.get_bool("json")) {
    std::cout << "\n" << core::to_json(bgpigp.graph, bgpigp.result) << "\n";
  }
  return 0;
}

int cmd_watch(util::Flags& flags) {
  flags.allow({"topo-seed", "ases", "tier2", "stubs", "topo", "seed",
               "sensors", "rounds", "threshold", "fail-round", "flap-round",
               "record", "help"});
  const topo::GeneratorParams params = topo_params(flags);
  util::Rng rng(flags.get_uint("seed", 7));
  const std::size_t num_sensors = flags.get_uint("sensors", 10);
  core::Troubleshooter::Config cfg;
  cfg.alarm_threshold = flags.get_uint("threshold", 3);
  const auto rounds = flags.get_int("rounds", 10);
  const auto flap_round = flags.get_int("flap-round", 2);
  const auto fail_round = flags.get_int("fail-round", 5);
  if (!flags.ok() || flags.get_bool("help")) {
    std::cerr << "netdiag watch [--seed S] [--sensors N] [--rounds R]\n"
                 "              [--threshold K] [--flap-round A]"
                 " [--fail-round B]\n"
                 "              [--record FILE]  (capture an event trace for"
                 " netdiag replay)\n";
    for (const auto& e : flags.errors()) std::cerr << "  " << e << "\n";
    return flags.ok() ? 0 : 2;
  }
  auto topology = make_topology(flags, params);
  if (!topology) return 1;
  sim::Network net(std::move(*topology));
  net.converge();
  net.set_operator_as(topo::AsId{0});

  const auto sensors = probe::place_sensors(
      net.topology(), probe::PlacementKind::kRandomStub, num_sensors, rng);
  probe::Prober prober(net, sensors);

  cfg.solver = core::nd_bgpigp_options();
  core::Troubleshooter ts(cfg);

  // --record streams every baseline/round (and the diagnosis, if one
  // fires) as a svc event trace that `netdiag replay` can re-run.
  std::ofstream trace_os;
  std::optional<svc::TraceRecorder> recorder;
  if (const std::string f = flags.get("record"); !f.empty()) {
    trace_os.open(f);
    if (!trace_os) {
      std::cerr << "netdiag: cannot write " << f << "\n";
      return 1;
    }
    svc::SessionConfig scfg;
    scfg.alarm_threshold = cfg.alarm_threshold;
    recorder.emplace(trace_os, scfg);
  }

  const auto baseline_mesh = prober.measure();
  ts.set_baseline(baseline_mesh);
  if (recorder) recorder->baseline(baseline_mesh);

  const auto pool = ts.baseline().probed_links();
  const topo::LinkId flap_victim = rng.pick(pool);
  // The persistent failure should actually break pairs: prefer a
  // single-homed sensor's uplink (non-recoverable by construction).
  topo::LinkId fail_victim = rng.pick(pool);
  if (const auto lone = probe::lone_uplink(net.topology(), sensors)) {
    fail_victim = *lone;
  }
  const auto snap = net.snapshot();

  for (long long r = 1; r <= rounds; ++r) {
    std::cout << "round " << r << ": ";
    if (r == flap_round) {
      net.fail_link(flap_victim);
      net.reconverge();
      std::cout << "[flap: " << exp::link_key(net.topology(), flap_victim)
                << " down this round] ";
    } else if (r == flap_round + 1) {
      net.restore(snap);
      net.set_operator_as(topo::AsId{0});
    }
    if (r == fail_round) {
      net.start_recording();
      net.fail_link(fail_victim);
      net.reconverge();
      std::cout << "[failure: " << exp::link_key(net.topology(), fail_victim)
                << " down persistently] ";
    }
    const auto cp = exp::collect_control_plane(net);
    const auto mesh = prober.measure();
    if (recorder) recorder->round(mesh, &cp);
    const auto diag = ts.observe(mesh, &cp);
    if (diag) {
      if (recorder) recorder->diagnosis(*diag);
      std::cout << "ALARM -> diagnosis\n\n";
      std::set<std::string> truth = {exp::link_key(net.topology(), fail_victim)};
      std::cout << core::render_report(diag->graph, diag->result, &truth);
      return 0;
    }
    std::cout << (ts.alarmed() ? "alarmed" : "quiet") << "\n";
  }
  std::cout << "no alarm within " << rounds << " rounds\n";
  return 0;
}

int cmd_serve(util::Flags& flags) {
  flags.allow({"listen", "threads", "idle-timeout-ms", "max-pending",
               "max-sessions", "drain-timeout-ms", "retry-after-ms",
               "chaos-seed", "campaign-checkpoint", "state-dir", "fsync",
               "snapshot-every", "slow-request-ms", "trace-out", "help"});
  svc::Server::Options opts;
  opts.num_threads = flags.get_uint("threads", 8);
  opts.idle_timeout_ms = flags.get_int("idle-timeout-ms", 30000);
  opts.max_pending = flags.get_uint("max-pending", 64);
  opts.max_sessions = flags.get_uint("max-sessions", 0);
  opts.drain_timeout_ms = flags.get_int("drain-timeout-ms", 2000);
  opts.retry_after_ms =
      static_cast<std::uint64_t>(flags.get_uint("retry-after-ms", 100));
  if (flags.has("chaos-seed")) {
    opts.fault_plan = svc::FaultPlan::chaos(
        static_cast<std::uint64_t>(flags.get_uint("chaos-seed", 1)));
  }
  opts.snapshot_every = flags.get_uint("snapshot-every", 256);
  opts.slow_request_ms = flags.get_int("slow-request-ms", 0);
  if (!flags.ok() || flags.get_bool("help")) {
    std::cerr << "netdiag serve [--listen unix:PATH|HOST:PORT|:PORT]"
                 " [--threads N]\n"
                 "              [--idle-timeout-ms MS] [--max-pending N]"
                 " [--max-sessions N]\n"
                 "              [--drain-timeout-ms MS] [--retry-after-ms MS]"
                 " [--chaos-seed S]\n"
                 "              [--campaign-checkpoint FILE] [--state-dir DIR]\n"
                 "              [--fsync always|batch] [--snapshot-every N]\n"
                 "              [--slow-request-ms MS] [--trace-out FILE]\n"
                 "runs until a client sends the shutdown op; --idle-timeout-ms 0"
                 " disables the\nper-connection frame deadline, --chaos-seed"
                 " arms seeded fault injection on\nevery response (testing"
                 " only); --campaign-checkpoint surfaces a running\n"
                 "campaign's progress (completed placements, quarantined"
                 " trials) through the\nstats verb; --state-dir makes sessions"
                 " durable (write-ahead journal +\nsnapshots, recovered on"
                 " restart); --fsync batch (default) survives SIGKILL,\n"
                 "always additionally survives power loss; --slow-request-ms"
                 " logs requests\nover the threshold to the event ring"
                 " (`netdiag tail`); --trace-out writes\nthe server-side"
                 " request spans as a Chrome trace on shutdown (merge with\n"
                 "agent files via `netdiag trace-merge`)\n";
    for (const auto& e : flags.errors()) std::cerr << "  " << e << "\n";
    return flags.ok() ? 0 : 2;
  }
  std::string error;
  const auto ep = svc::Endpoint::parse(flags.get("listen", ":7433"), &error);
  if (!ep) {
    std::cerr << "netdiag: " << error << "\n";
    return 2;
  }
  opts.endpoint = *ep;
  opts.state_dir = flags.get("state-dir");
  const std::string fsync_name = flags.get("fsync", "batch");
  const auto policy = svc::fsync_policy_from_string(fsync_name);
  if (!policy) {
    std::cerr << "netdiag: unknown --fsync policy '" << fsync_name
              << "' (always, batch)\n";
    return 2;
  }
  opts.fsync = *policy;
  if (const std::string f = flags.get("campaign-checkpoint"); !f.empty()) {
    // The checkpoint is replaced atomically by the campaign process
    // (rename(2)), so reading it on every stats request always sees one
    // complete version — no coordination needed.
    opts.campaign_stats = [f]() {
      util::Json j = util::Json::object();
      std::string cerror;
      const auto ck = exp::Checkpoint::load(f, &cerror);
      if (!ck) {
        j.set("error", util::Json::string(cerror));
        return j;
      }
      j.set("completed_placements",
            util::Json::uinteger(ck->completed_placements));
      j.set("total_placements",
            util::Json::uinteger(ck->scenario.num_placements));
      j.set("episodes", util::Json::uinteger(ck->episodes));
      j.set("quarantined", util::Json::uinteger(ck->quarantined.size()));
      j.set("recording", util::Json::boolean(ck->recording));
      return j;
    };
  }
  const std::string trace_out = flags.get("trace-out");
  if (!trace_out.empty()) obs::TraceSink::install();
  svc::Server server(std::move(opts));
  if (!server.start(&error)) {
    std::cerr << "netdiag: " << error << "\n";
    return 1;
  }
  std::cout << "netdiag: listening on " << server.endpoint().to_string()
            << "\n" << std::flush;
  server.wait();
  server.stop();
  if (!trace_out.empty()) {
    if (obs::TraceSink::write_chrome_trace(trace_out, &error)) {
      std::cout << "wrote " << trace_out << " ("
                << obs::TraceSink::snapshot().size() << " spans)\n";
    } else {
      std::cerr << "netdiag: " << error << "\n";
    }
    obs::TraceSink::uninstall();
  }
  std::cout << "netdiag: server stopped\n";
  return 0;
}

/// Client resilience knobs shared by `submit` and `replay --connect`.
svc::Client::Options client_options(util::Flags& flags) {
  svc::Client::Options copts;
  copts.connect_timeout_ms = flags.get_int("connect-timeout-ms", 5000);
  copts.request_timeout_ms = flags.get_int("request-timeout-ms", 30000);
  copts.max_retries = flags.get_uint("retries", 3);
  return copts;
}

int cmd_submit(util::Flags& flags) {
  flags.allow({"connect", "op", "session", "threshold", "algo", "granularity",
               "retries", "connect-timeout-ms", "request-timeout-ms", "help"});
  const svc::Client::Options copts = client_options(flags);
  svc::SessionConfig scfg;
  scfg.alarm_threshold = flags.get_uint("threshold", scfg.alarm_threshold);
  if (!flags.ok() || flags.get_bool("help")) {
    std::cerr
        << "netdiag submit [--connect ADDR] "
           "--op hello|query|stats|metrics|shutdown\n"
           "               [--session NAME] [--threshold K] [--algo A]\n"
           "               [--granularity G] [--retries N]\n"
           "               [--connect-timeout-ms MS] [--request-timeout-ms MS]\n"
           "prints the response frame (metrics prints the Prometheus text\n"
           "body); observation streams are fed with\n"
           "`netdiag replay FILE --connect ADDR`\n";
    for (const auto& e : flags.errors()) std::cerr << "  " << e << "\n";
    return flags.ok() ? 0 : 2;
  }
  std::string error;
  const auto ep = svc::Endpoint::parse(flags.get("connect", ":7433"), &error);
  if (!ep) {
    std::cerr << "netdiag: " << error << "\n";
    return 2;
  }
  const std::string op = flags.get("op", "stats");
  const std::string session = flags.get("session", "default");
  svc::Request req;
  if (op == "hello") {
    scfg.algo = flags.get("algo", scfg.algo);
    scfg.granularity = flags.get("granularity", scfg.granularity);
    req = svc::HelloRequest{session, std::move(scfg), std::nullopt};
  } else if (op == "query") {
    req = svc::QueryRequest{session, std::nullopt};
  } else if (op == "stats") {
    req = svc::StatsRequest{};
  } else if (op == "metrics") {
    req = svc::MetricsRequest{};
  } else if (op == "shutdown") {
    req = svc::ShutdownRequest{};
  } else {
    std::cerr << "netdiag: unknown op '" << op
              << "' (hello, query, stats, metrics, shutdown)\n";
    return 2;
  }
  auto client = svc::Client::connect(*ep, copts, &error);
  if (!client) {
    std::cerr << "netdiag: " << error << "\n";
    return 1;
  }
  const auto rsp = client->call(req, &error);
  if (!rsp) {
    std::cerr << "netdiag: " << error << "\n";
    return 1;
  }
  if (const auto* m = std::get_if<svc::MetricsResponse>(&*rsp)) {
    std::cout << m->text;  // multi-line Prometheus text, not a JSON frame
    return 0;
  }
  std::cout << svc::serialize(*rsp) << "\n";
  return std::holds_alternative<svc::ErrorResponse>(*rsp) ? 1 : 0;
}

/// One parsed Prometheus exposition line: `name{labels} value`.
struct PromSample {
  std::string series;  ///< name plus the rendered label set, verbatim
  double value = 0.0;
};

/// Minimal Prometheus text-format reader for `netdiag top`: keeps every
/// sample line (skipping # HELP/# TYPE comments and blanks), splitting at
/// the final space. OpenMetrics-style exemplar suffixes (` # {...} 1`)
/// are stripped first so the parsed value is the series value, not the
/// exemplar's. Unparsable lines are dropped rather than fatal — top is a
/// viewer, not a validator.
std::vector<PromSample> parse_prometheus(const std::string& text) {
  std::vector<PromSample> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (const auto ex = line.find(" # {"); ex != std::string::npos) {
      line.resize(ex);
    }
    const auto sp = line.rfind(' ');
    if (sp == std::string::npos || sp + 1 >= line.size()) continue;
    const char* begin = line.c_str() + sp + 1;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin) continue;
    out.push_back({line.substr(0, sp), v});
  }
  return out;
}

int cmd_top(util::Flags& flags) {
  flags.allow({"connect", "interval-ms", "iterations", "filter", "retries",
               "connect-timeout-ms", "request-timeout-ms", "help"});
  const svc::Client::Options copts = client_options(flags);
  const std::uint64_t interval_ms = flags.get_uint("interval-ms", 1000);
  const std::uint64_t iterations = flags.get_uint("iterations", 0);
  if (!flags.ok() || flags.get_bool("help")) {
    std::cerr
        << "netdiag top [--connect ADDR] [--interval-ms MS] [--iterations N]\n"
           "            [--filter SUBSTR] [--retries N]\n"
           "            [--connect-timeout-ms MS] [--request-timeout-ms MS]\n"
           "polls the daemon's `metrics` verb once per interval (default\n"
           "1000 ms) and renders the samples as a table; --iterations 0\n"
           "(the default) polls until interrupted, --filter keeps only\n"
           "series whose name contains SUBSTR\n";
    for (const auto& e : flags.errors()) std::cerr << "  " << e << "\n";
    return flags.ok() ? 0 : 2;
  }
  std::string error;
  const auto ep = svc::Endpoint::parse(flags.get("connect", ":7433"), &error);
  if (!ep) {
    std::cerr << "netdiag: " << error << "\n";
    return 2;
  }
  const std::string filter = flags.get("filter");
  auto client = svc::Client::connect(*ep, copts, &error);
  if (!client) {
    std::cerr << "netdiag: " << error << "\n";
    return 1;
  }
  for (std::uint64_t i = 0; iterations == 0 || i < iterations; ++i) {
    if (i > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    const auto rsp = client->call(svc::Request{svc::MetricsRequest{}}, &error);
    if (!rsp) {
      std::cerr << "netdiag: " << error << "\n";
      return 1;
    }
    const auto* m = std::get_if<svc::MetricsResponse>(&*rsp);
    if (!m) {
      std::cerr << "netdiag: unexpected response: " << svc::serialize(*rsp)
                << "\n";
      return 1;
    }
    const auto samples = parse_prometheus(m->text);
    // Durability at a glance: the journal/fsync counters as one header
    // line, so an operator sees WAL pressure without scrolling the table.
    const auto value_of = [&samples](const std::string& series) {
      for (const auto& s : samples) {
        if (s.series == series) return s.value;
      }
      return 0.0;
    };
    util::Table t({"metric", "value"});
    for (const auto& s : samples) {
      if (!filter.empty() && s.series.find(filter) == std::string::npos) {
        continue;
      }
      t.add_row(s.series, {s.value});
    }
    std::cout << "--- poll " << (i + 1) << " ---\n"
              << "journal: appends="
              << value_of("netd_svc_journal_appends_total")
              << " fsyncs=" << value_of("netd_svc_journal_fsyncs_total")
              << " snapshots=" << value_of("netd_svc_journal_snapshots_total")
              << " torn=" << value_of("netd_svc_journal_torn_tails_total")
              << " quarantined="
              << value_of("netd_svc_journal_quarantined_segments_total")
              << "\n";
    t.print(std::cout);
    std::cout.flush();
  }
  return 0;
}

/// Live view of the server's structured event ring, via the `events`
/// wire verb: cursor-resumed polling, so a long-running tail never
/// re-prints an event and a restarted tail can resume where it stopped.
int cmd_tail(util::Flags& flags) {
  flags.allow({"connect", "interval-ms", "cursor", "cap", "once", "retries",
               "connect-timeout-ms", "request-timeout-ms", "help"});
  const svc::Client::Options copts = client_options(flags);
  std::uint64_t cursor = flags.get_uint("cursor", 0);
  const std::uint64_t cap = flags.get_uint("cap", 0);
  const std::uint64_t interval_ms = flags.get_uint("interval-ms", 1000);
  if (!flags.ok() || flags.get_bool("help")) {
    std::cerr
        << "netdiag tail [--connect ADDR] [--interval-ms MS] [--once]\n"
           "             [--cursor N] [--cap N] [--retries N]\n"
           "             [--connect-timeout-ms MS] [--request-timeout-ms MS]\n"
           "streams the daemon's structured event ring: slow requests,\n"
           "sheds, dedups, journal quarantines and fsync stalls, each\n"
           "tagged with its trace id; --once drains the ring one time and\n"
           "exits (for scripts), otherwise polls per interval (default\n"
           "1000 ms) from --cursor (default 0 = oldest retained)\n";
    for (const auto& e : flags.errors()) std::cerr << "  " << e << "\n";
    return flags.ok() ? 0 : 2;
  }
  std::string error;
  const auto ep = svc::Endpoint::parse(flags.get("connect", ":7433"), &error);
  if (!ep) {
    std::cerr << "netdiag: " << error << "\n";
    return 2;
  }
  auto client = svc::Client::connect(*ep, copts, &error);
  if (!client) {
    std::cerr << "netdiag: " << error << "\n";
    return 1;
  }
  const bool once = flags.get_bool("once");
  for (;;) {
    const auto rsp =
        client->call(svc::Request{svc::EventsRequest{cursor, cap}}, &error);
    if (!rsp) {
      std::cerr << "netdiag: " << error << "\n";
      return 1;
    }
    const auto* ev = std::get_if<svc::EventsResponse>(&*rsp);
    if (ev == nullptr) {
      std::cerr << "netdiag: unexpected response: " << svc::serialize(*rsp)
                << "\n";
      return 1;
    }
    for (const auto& e : ev->events) {
      std::cout << e.seq << " +" << e.t_ms << "ms "
                << obs::event_kind_name(e.kind) << " " << e.detail;
      if (e.trace_id != 0) {
        std::cout << " trace=" << obs::format_trace_id(e.trace_id);
      }
      if (e.dur_us != 0) std::cout << " dur_us=" << e.dur_us;
      std::cout << "\n";
    }
    std::cout.flush();
    cursor = ev->next_cursor;
    if (once) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  return 0;
}

/// Merges per-process Chrome trace files into one timeline: each input
/// file becomes its own Perfetto process (pid = its position on the
/// command line, process_name = the file), while the seed-derived span
/// and trace ids pass through untouched — they are the cross-process
/// join key the agent and server both stamped, so one observation's
/// spool/ship spans line up under the server's rx_*/journal/solve spans.
int cmd_trace_merge(util::Flags& flags) {
  flags.allow({"out", "help"});
  const bool bad_args = flags.positional().empty();
  if (!flags.ok() || flags.get_bool("help") || bad_args) {
    std::cerr
        << "netdiag trace-merge FILE... [--out FILE]\n"
           "merges the Chrome trace files written by `netdiag serve\n"
           "--trace-out` and `netdiag-agent --trace-out` into one file that\n"
           "Perfetto (or chrome://tracing) renders as a cross-process\n"
           "timeline: one pid per input file, trace ids preserved; the\n"
           "merged JSON goes to --out FILE, or stdout when omitted\n";
    for (const auto& e : flags.errors()) std::cerr << "  " << e << "\n";
    return flags.ok() && !bad_args ? 0 : 2;
  }
  util::Json merged = util::Json::array();
  for (std::size_t i = 0; i < flags.positional().size(); ++i) {
    const std::string& file = flags.positional()[i];
    std::string error;
    const auto bytes = util::read_file(file, &error);
    if (!bytes) {
      std::cerr << "netdiag: " << file << ": " << error << "\n";
      return 1;
    }
    const auto doc = util::Json::parse(*bytes, &error);
    if (!doc || !doc->is_array()) {
      std::cerr << "netdiag: " << file << ": "
                << (doc ? "not a trace event array" : error) << "\n";
      return 1;
    }
    const util::Json pid = util::Json::uinteger(i + 1);
    util::Json meta = util::Json::object();
    meta.set("ph", util::Json::string("M"));
    meta.set("pid", pid);
    meta.set("tid", util::Json::uinteger(0));
    meta.set("name", util::Json::string("process_name"));
    util::Json margs = util::Json::object();
    margs.set("name", util::Json::string(file));
    meta.set("args", std::move(margs));
    merged.push_back(std::move(meta));
    for (std::size_t k = 0; k < doc->size(); ++k) {
      const util::Json& src = (*doc)[k];
      if (!src.is_object()) continue;
      util::Json ev = util::Json::object();
      bool had_pid = false;
      for (const auto& [key, v] : src.members()) {
        if (key == "pid") {
          ev.set(key, pid);
          had_pid = true;
        } else {
          ev.set(key, v);
        }
      }
      if (!had_pid) ev.set("pid", pid);
      merged.push_back(std::move(ev));
    }
  }
  std::string out = "[\n";
  for (std::size_t k = 0; k < merged.size(); ++k) {
    if (k > 0) out += ",\n";
    out += merged[k].dump();
  }
  out += "\n]\n";
  if (const std::string f = flags.get("out"); !f.empty()) {
    std::string error;
    if (!util::atomic_write_file(f, out, &error)) {
      std::cerr << "netdiag: " << error << "\n";
      return 1;
    }
    std::cout << "wrote " << f << " (" << merged.size() << " events, "
              << flags.positional().size() << " processes)\n";
    return 0;
  }
  std::cout << out;
  return 0;
}

int cmd_replay(util::Flags& flags) {
  flags.allow({"via-socket", "connect", "session", "retries",
               "connect-timeout-ms", "request-timeout-ms", "help"});
  const svc::Client::Options copts = client_options(flags);
  const bool bad_args = flags.positional().size() != 1;
  if (!flags.ok() || flags.get_bool("help") || bad_args) {
    std::cerr
        << "netdiag replay FILE [--via-socket | --connect ADDR]"
           " [--session NAME]\n"
           "               [--retries N] [--connect-timeout-ms MS]"
           " [--request-timeout-ms MS]\n"
           "re-runs the recorded observation stream through a fresh\n"
           "troubleshooter — in process by default, through a private\n"
           "single-use daemon on a temporary unix socket (--via-socket),\n"
           "or against a live daemon (--connect) — and fails when any\n"
           "diagnosis differs from the recording\n";
    for (const auto& e : flags.errors()) std::cerr << "  " << e << "\n";
    return flags.ok() && !bad_args ? 0 : 2;
  }
  const std::string file = flags.positional()[0];
  std::ifstream is(file);
  if (!is) {
    std::cerr << "netdiag: cannot open " << file << "\n";
    return 1;
  }
  std::string error;
  const auto trace = svc::read_trace(is, &error);
  if (!trace) {
    std::cerr << "netdiag: " << file << ": " << error << "\n";
    return 1;
  }

  svc::ReplayResult result;
  if (flags.get_bool("via-socket") || flags.has("connect")) {
    std::optional<svc::Server> server;
    svc::Endpoint ep;
    if (flags.has("connect")) {
      const auto parsed = svc::Endpoint::parse(flags.get("connect"), &error);
      if (!parsed) {
        std::cerr << "netdiag: " << error << "\n";
        return 2;
      }
      ep = *parsed;
    } else {
      // The observations still cross a real socket boundary: a private
      // daemon bound next to the trace file serves just this replay.
      svc::Server::Options opts;
      opts.endpoint.kind = svc::Endpoint::Kind::kUnix;
      opts.endpoint.path = file + ".sock";
      server.emplace(std::move(opts));
      if (!server->start(&error)) {
        std::cerr << "netdiag: " << error << "\n";
        return 1;
      }
      ep = server->endpoint();
    }
    auto client = svc::Client::connect(ep, copts, &error);
    if (!client) {
      std::cerr << "netdiag: " << error << "\n";
      return 1;
    }
    result = svc::replay_through(*client, flags.get("session", "replay"),
                                 *trace);
    if (server) server->stop();
  } else {
    result = svc::replay_in_process(*trace);
  }

  std::cout << "replayed " << result.baselines << " episode(s), "
            << result.rounds << " round(s), " << result.diagnoses
            << " diagnosis/es\n";
  if (!result.ok()) {
    for (const auto& m : result.mismatches) {
      std::cerr << "mismatch: " << m << "\n";
    }
    return 1;
  }
  std::cout << "replay matches the recording\n";
  return 0;
}

int cmd_requarantine(util::Flags& flags) {
  flags.allow({"checkpoint", "algos", "csv", "help"});
  if (!flags.ok() || flags.get_bool("help") || !flags.has("checkpoint")) {
    std::cerr
        << "netdiag requarantine --checkpoint FILE [--algos LIST] [--csv "
           "FILE]\n"
           "replays every placement holding a watchdog-quarantined trial —\n"
           "serially, watchdog off, from the placement's pre-forked RNG\n"
           "stream, so the draws match the original campaign — and recovers\n"
           "the quarantined trials' per-trial metrics\n";
    for (const auto& e : flags.errors()) std::cerr << "  " << e << "\n";
    return flags.ok() && flags.get_bool("help") ? 0 : 2;
  }
  const std::string path = flags.get("checkpoint");
  std::string error;
  auto ck = exp::Checkpoint::load(path, &error);
  if (!ck) {
    std::cerr << "netdiag: " << error << "\n";
    return 1;
  }
  if (ck->quarantined.empty()) {
    std::cout << "no quarantined trials in " << path << "\n";
    return 0;
  }

  std::vector<exp::Algo> algos = ck->algos;
  if (flags.has("algos")) {
    const auto parsed = parse_algos(flags.get("algos"));
    if (!parsed) return 2;
    algos = *parsed;
  }
  if (algos.empty()) algos = {exp::Algo::kNdBgpIgp};

  // RNG parity: Looking Glasses consume per-AS draws during placement
  // setup, so the replay must deploy them exactly when the original
  // campaign did — never because the requested algos changed.
  const auto has_lg = [](const std::vector<exp::Algo>& v) {
    return std::find(v.begin(), v.end(), exp::Algo::kNdLg) != v.end();
  };
  const bool deploy_lg = ck->recording ? ck->scenario.frac_blocked > 0.0
                                       : has_lg(ck->algos);
  if (!deploy_lg && has_lg(algos)) {
    std::cerr << "netdiag: the original campaign deployed no Looking "
                 "Glasses; nd-lg cannot be scored on replay\n";
    return 2;
  }

  exp::ScenarioConfig cfg = ck->scenario;
  cfg.num_threads = 1;
  exp::Runner runner(cfg);
  std::set<std::size_t> placements;
  for (const auto& q : ck->quarantined) placements.insert(q.placement);
  std::vector<exp::ScoredTrial> recovered;
  for (std::size_t pl : placements) {
    for (const auto& st : runner.replay_placement(pl, algos, deploy_lg)) {
      for (const auto& q : ck->quarantined) {
        if (q.placement == st.placement && q.trial == st.trial) {
          recovered.push_back(st);
          break;
        }
      }
    }
  }
  std::cout << "replayed " << placements.size() << " placement(s), recovered "
            << recovered.size() << " of " << ck->quarantined.size()
            << " quarantined trial(s)\n";
  for (const auto& st : recovered) {
    std::cout << "  placement " << st.placement << " trial " << st.trial
              << ": diagnosability " << st.result.diagnosability << "\n";
  }
  if (const std::string f = flags.get("csv"); !f.empty()) {
    std::ofstream os(f);
    if (!os) {
      std::cerr << "netdiag: cannot write " << f << "\n";
      return 1;
    }
    exp::write_csv(os, recovered, algos);
    std::cout << "wrote " << f << " (" << recovered.size() << " rows)\n";
  }
  return 0;
}

/// Offline inspection of a durable server's on-disk session journals.
/// Never mutates anything — safe to run against a live server's state
/// directory (segments are append-only; SNAPSHOT is replaced atomically).
int cmd_wal(util::Flags& flags) {
  flags.allow({"state-dir", "session", "json", "help"});
  if (!flags.ok() || flags.get_bool("help")) {
    std::cerr << "netdiag wal --state-dir DIR [--session NAME] [--json]\n"
                 "verifies and summarizes each session's write-ahead journal:"
                 " record counts,\nLSN ranges, per-source ack watermarks, and"
                 " why recovery would quarantine it\n(a bad frame, LSN gap,"
                 " snapshot or content; exit 1 when any damage is found)\n";
    for (const auto& e : flags.errors()) std::cerr << "  " << e << "\n";
    return flags.ok() ? 0 : 2;
  }
  const std::string state_dir = flags.get("state-dir");
  if (state_dir.empty()) {
    std::cerr << "netdiag: wal requires --state-dir\n";
    return 2;
  }
  const std::string filter = flags.get("session");
  const bool as_json = flags.get_bool("json");
  const std::uint64_t epoch = svc::read_epoch(state_dir);
  bool any_corrupt = false;

  util::Json sessions_json = util::Json::array();
  if (!as_json) {
    std::cout << "state dir " << state_dir << ", epoch " << epoch << "\n";
  }
  for (const auto& dir_name : svc::list_session_dirs(state_dir)) {
    const auto decoded = svc::decode_session_dir(dir_name);
    const std::string name = decoded.value_or("?" + dir_name);
    if (!filter.empty() && name != filter) continue;
    svc::Inspection insp;
    std::string error;
    if (!svc::inspect_session_dir(state_dir + "/sessions/" + dir_name, &insp,
                                  &error)) {
      std::cerr << "netdiag: wal: session \"" << name << "\": " << error
                << "\n";
      any_corrupt = true;
      continue;
    }
    std::map<std::string, std::uint64_t> acks;
    const std::string damage = svc::session_damage(insp, &acks);
    const bool corrupt = !damage.empty();
    any_corrupt = any_corrupt || corrupt;
    std::size_t records = 0;
    std::uint64_t first_lsn = 0, last_lsn = 0;
    for (const auto& seg : insp.log.segments) {
      records += seg.scan.records;
      if (seg.scan.records > 0) {
        if (first_lsn == 0) first_lsn = seg.scan.first_seq;
        last_lsn = seg.scan.last_seq;
      }
    }

    if (as_json) {
      util::Json js = util::Json::object();
      js.set("session", util::Json::string(name));
      js.set("snapshot", util::Json::boolean(insp.snapshot.has_value()));
      js.set("snapshot_wal", util::Json::uinteger(insp.wal.value_or(0)));
      js.set("segments", util::Json::uinteger(insp.log.segments.size()));
      js.set("records", util::Json::uinteger(records));
      js.set("first_lsn", util::Json::uinteger(first_lsn));
      js.set("last_lsn", util::Json::uinteger(last_lsn));
      js.set("corrupt", util::Json::boolean(corrupt));
      if (corrupt) js.set("reason", util::Json::string(damage));
      if (!insp.damage_file.empty()) {  // stage one located the damage
        js.set("corrupt_file", util::Json::string(insp.damage_file));
        js.set("corrupt_offset", util::Json::uinteger(insp.damage_offset));
      }
      js.set("quarantined_files",
             util::Json::uinteger(insp.log.quarantined_files));
      util::Json jacks = util::Json::object();
      for (const auto& [src, seq] : acks) {
        jacks.set(src, util::Json::uinteger(seq));
      }
      js.set("watermarks", std::move(jacks));
      sessions_json.push_back(std::move(js));
      continue;
    }
    std::cout << "session \"" << name << "\"\n"
              << "  snapshot: "
              << (!insp.snapshot.has_value() ? std::string("none")
                  : insp.wal.has_value() ? "wal " + std::to_string(*insp.wal)
                                         : std::string("UNPARSEABLE"))
              << "\n  journal: " << insp.log.segments.size() << " segment(s), "
              << records << " record(s)";
    if (records > 0) {
      std::cout << ", lsn " << first_lsn << ".." << last_lsn;
    }
    std::cout << "\n";
    if (corrupt) std::cout << "  CORRUPT: " << damage << "\n";
    if (insp.log.quarantined_files > 0) {
      std::cout << "  quarantined files: " << insp.log.quarantined_files
                << "\n";
    }
    if (!acks.empty()) {
      std::cout << "  watermarks:";
      for (const auto& [src, seq] : acks) {
        std::cout << " " << (src.empty() ? "(observe)" : src) << "=" << seq;
      }
      std::cout << "\n";
    }
  }
  if (as_json) {
    util::Json out = util::Json::object();
    out.set("state_dir", util::Json::string(state_dir));
    out.set("epoch", util::Json::uinteger(epoch));
    out.set("sessions", std::move(sessions_json));
    std::cout << out.dump() << "\n";
  }
  return any_corrupt ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  util::Flags flags = util::Flags::parse(argc - 1, argv + 1);
  if (cmd == "topo") return cmd_topo(flags);
  if (cmd == "plan") return cmd_plan(flags);
  if (cmd == "run") return cmd_run(flags);
  if (cmd == "diagnose") return cmd_diagnose(flags);
  if (cmd == "watch") return cmd_watch(flags);
  if (cmd == "serve") return cmd_serve(flags);
  if (cmd == "submit") return cmd_submit(flags);
  if (cmd == "top") return cmd_top(flags);
  if (cmd == "tail") return cmd_tail(flags);
  if (cmd == "replay") return cmd_replay(flags);
  if (cmd == "wal") return cmd_wal(flags);
  if (cmd == "trace-merge") return cmd_trace_merge(flags);
  if (cmd == "requarantine") return cmd_requarantine(flags);
  return usage();
}
