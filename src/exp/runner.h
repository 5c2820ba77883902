// Experiment driver reproducing the paper's evaluation protocol (§4–§5):
// fixed topology, `num_placements` random sensor placements with
// `trials_per_placement` failures each, failure resampling until the event
// actually causes unreachability (the troubleshooter is only invoked for
// failures that break some path), and per-trial metrics for the requested
// algorithms.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/algorithms.h"
#include "lg/looking_glass.h"
#include "core/metrics.h"
#include "probe/prober.h"
#include "sim/network.h"
#include "svc/protocol.h"
#include "topo/generator.h"

namespace netd::exp {

enum class Algo { kTomo, kNdEdge, kNdBgpIgp, kNdLg };

[[nodiscard]] const char* to_string(Algo a);
/// Inverse of to_string(); std::nullopt for unknown names.
[[nodiscard]] std::optional<Algo> algo_from_string(std::string_view s);

/// How a placement turns the random draw into deployed sensors.
enum class PlacementStrategy {
  kRandom,   ///< deploy the drawn sensors as-is (the paper's protocol)
  kPlanned,  ///< draw a larger candidate pool, then let plan::Planner pick
             ///< the num_sensors-subset maximizing identifiability
};

[[nodiscard]] const char* to_string(PlacementStrategy s);
/// Inverse of to_string(); std::nullopt for unknown names.
[[nodiscard]] std::optional<PlacementStrategy> placement_strategy_from_string(
    std::string_view s);

enum class FailureMode {
  kLinks,             ///< `num_link_failures` random probed links fail
  kRouter,            ///< one random probed transit router fails
  kMisconfig,         ///< one per-neighbor-cone export misconfiguration
  kMisconfigPlusLink, ///< one misconfiguration plus one link failure
  kMisconfigPrefix,   ///< a *single-prefix* export filter — finer than the
                      ///< per-neighbor granularity of logical links, used
                      ///< by the granularity ablation (§3.1 discussion)
};

struct ScenarioConfig {
  topo::GeneratorParams topo_params{};
  std::size_t num_sensors = 10;
  probe::PlacementKind placement = probe::PlacementKind::kRandomStub;
  /// kPlanned draws a `plan_pool`-sized candidate pool with `placement`
  /// and deploys the plan::Planner-chosen num_sensors subset; kRandom is
  /// the paper's protocol. Part of the checkpoint fingerprint (emitted
  /// only when non-default, so existing checkpoints stay valid).
  PlacementStrategy placement_strategy = PlacementStrategy::kRandom;
  /// Candidate pool size for kPlanned; 0 = 4 × num_sensors.
  std::size_t plan_pool = 0;
  std::size_t num_placements = 10;
  std::size_t trials_per_placement = 100;
  FailureMode mode = FailureMode::kLinks;
  std::size_t num_link_failures = 1;
  /// Fraction of on-path transit ASes that block traceroutes (f_b, §5.4).
  double frac_blocked = 0.0;
  /// Fraction of ASes providing a Looking Glass (Fig. 12).
  double frac_lg = 1.0;
  /// AS-X is core AS 0 when true, a random non-sensor stub otherwise (§5.3).
  bool operator_at_core = true;
  std::uint64_t seed = 42;
  /// Failure draws per trial before giving up on causing unreachability.
  std::size_t max_attempts_per_trial = 60;
  /// Worker threads for the placement-sharded runner; 0 = one per
  /// hardware thread. Results are bit-identical for every value: each
  /// placement draws from its own pre-forked RNG stream and runs on a
  /// private network clone, and placements are committed in order.
  std::size_t num_threads = 0;
  /// Per-trial watchdog: wall-clock budget for one failure episode, in
  /// milliseconds; 0 (default) disables it. The deadline is checked
  /// cooperatively between failure-sampling attempts and after the
  /// expensive measurement steps; a trial that exceeds it is abandoned,
  /// recorded in the campaign's quarantine list, and the campaign moves
  /// on to the next trial. Note that abandoning a trial early changes the
  /// RNG draws of *later trials in the same placement* relative to a
  /// deadline-free run; other placements are unaffected (pre-forked
  /// streams). Not part of the checkpoint fingerprint, so a quarantined
  /// trial can be replayed later with the watchdog off.
  std::uint64_t trial_deadline_ms = 0;
  /// Watchdog clock override (monotonic milliseconds), used by tests to
  /// force deterministic quarantines. Empty = std::chrono::steady_clock.
  std::function<std::uint64_t()> now_ms;
};

struct TrialResult {
  double diagnosability = 0.0;
  bool router_detected = false;  ///< kRouter mode: H hit ≥1 link of the router
  std::map<Algo, core::LinkMetrics> link;
  std::map<Algo, core::AsMetrics> as_level;
};

/// A TrialResult pinned to its protocol position. The campaign CSV and the
/// checkpoint both carry (placement, trial) so interrupted-and-resumed
/// runs are comparable row by row.
struct ScoredTrial {
  std::size_t placement = 0;
  std::size_t trial = 0;  ///< trial index within the placement
  TrialResult result;
};

/// One trial the watchdog abandoned: everything needed to replay it alone
/// (the placement's pre-forked RNG stream reproduces the trial exactly).
struct QuarantinedTrial {
  std::size_t placement = 0;
  std::size_t trial = 0;
  std::uint64_t seed = 0;  ///< the placement's pre-forked RNG stream
};

/// Crash-safety knobs for run_campaign() / record_campaign().
struct CampaignOptions {
  /// Checkpoint file persisted atomically after every completed placement
  /// (util::atomic_write_file); empty = run without persistence.
  std::string checkpoint_path;
  /// Load `checkpoint_path` if it exists and skip the placements it
  /// already holds. A missing file is not an error (fresh start); a file
  /// written by a different scenario/algos combination is.
  bool resume = false;
  /// Run at most this many not-yet-completed placements, then return with
  /// the campaign partially done (0 = finish it). Lets tests and chunked
  /// cron-style campaigns exercise the resume path without being killed.
  std::size_t max_new_placements = 0;
};

struct CampaignResult {
  /// Results of the committed placement prefix, in (placement, trial)
  /// order — byte-stable across interruption/resume for a given scenario.
  std::vector<ScoredTrial> trials;
  /// Trials the watchdog abandoned (committed placements only), sorted by
  /// (placement, trial).
  std::vector<QuarantinedTrial> quarantined;
  std::size_t total_placements = 0;
  std::size_t completed_placements = 0;  ///< contiguous prefix done
  std::size_t resumed_placements = 0;    ///< loaded from the checkpoint
  std::size_t episodes = 0;  ///< diagnosable episodes scored or recorded

  [[nodiscard]] bool complete() const {
    return completed_placements == total_placements;
  }
};

/// One diagnosable failure episode, as handed to for_each_episode():
/// everything an algorithm variant needs to run and be scored.
struct EpisodeContext {
  const probe::Mesh& before;
  const probe::Mesh& after;
  const core::ControlPlaneObs& cp;
  /// Non-null when the scenario deploys Looking Glasses.
  const lg::LookingGlassService* lg = nullptr;
  topo::AsId operator_as;
  const std::set<std::string>& failed_links;  ///< ground truth F
  const std::set<int>& failed_ases;           ///< ground truth F at AS level
  const std::set<int>& universe;              ///< ASes covered by probes
  double diagnosability = 0.0;
};

struct Checkpoint;

class Runner {
 public:
  explicit Runner(const ScenarioConfig& cfg);
  /// Runs the protocol on a caller-provided topology (cfg.topo_params is
  /// ignored) — e.g. a topo::random_internet() instance or a loaded file.
  Runner(topo::Topology topology, const ScenarioConfig& cfg);

  /// Runs the full protocol; trials that never caused unreachability
  /// within the attempt budget are skipped (not reported). The results of
  /// run_campaign(algos, {}).
  [[nodiscard]] std::vector<TrialResult> run(const std::vector<Algo>& algos);

  /// Crash-safe run(): persists completed-placement results to
  /// `opts.checkpoint_path`, if set (atomic write-temp-fsync-rename), at
  /// every placement commit, resumes from it, and quarantines trials the
  /// per-trial watchdog abandons instead of aborting. Because every
  /// placement draws from its own pre-forked RNG stream, a campaign
  /// interrupted after any placement and resumed yields byte-identical
  /// ScoredTrial sequences to an uninterrupted run. std::nullopt (with
  /// `error`) on checkpoint I/O or fingerprint-mismatch failures.
  [[nodiscard]] std::optional<CampaignResult> run_campaign(
      const std::vector<Algo>& algos, const CampaignOptions& opts,
      std::string* error = nullptr);

  /// Crash-safe record_trace() into `trace_path`: with a checkpoint, every
  /// placement commit fsyncs the trace, then checkpoints its byte offset.
  /// On resume the trace file is truncated back to the last committed
  /// offset — dropping any partial trailing line the crash left — and
  /// appended from the next placement, so the final file is
  /// byte-identical to an uninterrupted recording.
  [[nodiscard]] std::optional<CampaignResult> record_campaign(
      const std::string& trace_path, const svc::SessionConfig& config,
      const CampaignOptions& opts, std::string* error = nullptr);

  /// Re-runs a single placement serially with the watchdog off and scores
  /// every diagnosable episode — the `netdiag requarantine` path: replay
  /// the placement that quarantined a trial and recover its result.
  /// `deploy_lg` must match the original campaign's Looking Glass
  /// deployment (run_campaign: algos included ND-LG; record_campaign:
  /// cfg.frac_blocked > 0) so the placement's RNG draws line up.
  [[nodiscard]] std::vector<ScoredTrial> replay_placement(
      std::size_t placement, const std::vector<Algo>& algos, bool deploy_lg);

  /// Low-level access to the evaluation protocol: invokes `fn` once per
  /// diagnosable episode (placements × trials, resampled exactly as in
  /// run()). Used by the ablation benchmarks to score custom algorithm
  /// variants. `deploy_lg` forces Looking Glass construction even when the
  /// high-level run() would not need it. `fn` always runs on the calling
  /// thread, in placement order: each placement's episodes are buffered
  /// where the placement runs and handed to `fn` at its commit, so callers
  /// need no synchronization.
  void for_each_episode(const std::function<void(const EpisodeContext&)>& fn,
                        bool deploy_lg = false);

  /// Records the evaluation protocol as a svc event trace (see
  /// svc/trace.h): per diagnosable episode, one `baseline` (T−) followed
  /// by `config.alarm_threshold` identical failure rounds — so the alarm
  /// fires on the last one — and the diagnosis a live troubleshooter
  /// produced for them. Episodes appear in placement order regardless of
  /// cfg.num_threads, so the bytes are stable for a given scenario and
  /// equal to what record_campaign() writes. Returns the episode count, or
  /// std::nullopt (with `error`) when the config names an unknown
  /// algo/granularity.
  std::optional<std::size_t> record_trace(std::ostream& os,
                                          const svc::SessionConfig& config,
                                          std::string* error = nullptr);

 private:
  /// Receives a diagnosable episode of placement `pl` on the thread that
  /// runs the placement; it may touch only that placement's state.
  using EpisodeSink = std::function<void(std::size_t pl, std::size_t trial,
                                         const EpisodeContext&)>;
  /// Commits placement `pl` on the calling thread, given its pre-forked
  /// seed and the trials the watchdog quarantined; false stops the run.
  using PlacementCommit =
      std::function<bool(std::size_t pl, std::uint64_t seed,
                         const std::vector<std::size_t>& quarantined)>;

  /// The placement driver behind every entry point. Forks the placement
  /// seeds, builds the LG table when `need_lg`, and runs placements
  /// [first, last) under `cfg` (cfg_ or a variant): serially on net_, or
  /// in contiguous blocks on pool workers, each on a private network
  /// clone. The calling thread commits placement p, in a
  /// `checkpoint_commit` span of p's trace, once p and every placement
  /// before it are done. Returns false if a commit did; none follows it.
  bool map_episodes(const ScenarioConfig& cfg, bool need_lg,
                    std::size_t first, std::size_t last,
                    const EpisodeSink& sink, const PlacementCommit& commit);

  /// The campaign behind the scoring and recording entry points: saves
  /// `ck`, runs the placements it has not committed (at most
  /// opts.max_new_placements), and commits each by `fold(pl)` (which
  /// folds its episodes into `ck`), its quarantined trials and a save.
  /// std::nullopt (with `error`) when a save or a fold fails.
  std::optional<CampaignResult> campaign(
      Checkpoint& ck, const CampaignOptions& opts, bool need_lg,
      const EpisodeSink& sink,
      const std::function<bool(std::size_t pl, std::string* error)>& fold,
      std::string* error);

  /// The record-into-trace commit of record_trace() and record_campaign():
  /// replays each placement's episodes into `os` and, with a checkpoint,
  /// fsyncs `trace_path` (the file behind `os`) before `ck` records its
  /// length.
  std::optional<CampaignResult> record(
      std::ostream& os, const std::string& trace_path,
      const svc::SessionConfig& config,
      const core::Troubleshooter::Config& resolved, Checkpoint& ck,
      const CampaignOptions& opts, std::string* error);

  ScenarioConfig cfg_;
  sim::Network net_;
};

/// Builds AS-X's ControlPlaneObs from the simulator's observation buffers.
[[nodiscard]] core::ControlPlaneObs collect_control_plane(
    const sim::Network& net);

/// Canonical key of a topology link (both router names, undirected).
[[nodiscard]] std::string link_key(const topo::Topology& topo,
                                   topo::LinkId l);

/// Applies the paper's §3.1 misconfiguration: `exporter` stops announcing,
/// over `link`, every sensor prefix it currently routes via its
/// out-neighbor AS `next_as` (the cone "towards AS C"). Call
/// net.reconverge() afterwards.
void inject_cone_misconfig(sim::Network& net, topo::RouterId exporter,
                           topo::LinkId link, topo::AsId next_as,
                           const std::vector<probe::Sensor>& sensors);

}  // namespace netd::exp
