// Campaign checkpoints: the durable state behind crash-safe experiment
// runs (exp::Runner::run_campaign / record_campaign).
//
// A checkpoint is one JSON document (util::Json — number lexemes
// and member order are preserved, so save/load round-trips are
// byte-identical) persisted with util::atomic_write_file after every
// completed placement. It holds:
//
//   - the canonical scenario (every ScenarioConfig field that affects the
//     RNG-driven protocol; thread count and the watchdog deadline are
//     deliberately excluded — they never change results / are meant to be
//     overridden on replay),
//   - the committed contiguous placement prefix with its per-trial
//     results (score mode) or the committed trace byte offset (record
//     mode),
//   - the quarantine list: trials the per-trial watchdog abandoned, each
//     with its placement's pre-forked seed so `netdiag requarantine` can
//     replay it alone.
//
// Doubles are serialized as 17-significant-digit lexemes, which strtod
// parses back to the identical bit pattern — the property that makes a
// resumed campaign's CSV byte-identical to an uninterrupted run's.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "svc/protocol.h"
#include "util/json.h"

namespace netd::exp {

/// Shortest lexeme that round-trips the double exactly through strtod
/// ("%.17g"). Shared by the checkpoint codec and the campaign CSV writer.
[[nodiscard]] std::string format_double17(double v);

/// Canonical JSON form of the determinism-relevant ScenarioConfig fields.
/// Two configs with equal scenario_to_json().dump() produce identical
/// campaigns (for the same algos), which is exactly the resume contract.
[[nodiscard]] util::Json scenario_to_json(const ScenarioConfig& cfg);
[[nodiscard]] std::optional<ScenarioConfig> scenario_from_json(
    const util::Json& j, std::string* error);

struct Checkpoint {
  static constexpr int kVersion = 1;

  ScenarioConfig scenario;
  /// Score mode: the algorithms being scored. Empty in record mode.
  std::vector<Algo> algos;
  /// Record mode: the trace is being written for this session config.
  bool recording = false;
  svc::SessionConfig record_config;

  std::size_t completed_placements = 0;  ///< committed contiguous prefix
  std::size_t episodes = 0;              ///< scored/recorded so far
  /// Record mode: trace bytes durably committed; everything beyond this
  /// offset (e.g. a partial line from a crash mid-write) is truncated on
  /// resume.
  std::uint64_t trace_bytes = 0;
  /// Score mode: one bucket per committed placement, trials in order.
  std::vector<std::vector<ScoredTrial>> results;
  /// Watchdog-abandoned trials of committed placements, (placement,
  /// trial)-sorted.
  std::vector<QuarantinedTrial> quarantined;

  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] static std::optional<Checkpoint> from_json(
      const util::Json& j, std::string* error);

  /// Atomic write to `path` (write-temp → fsync → rename → fsync dir).
  [[nodiscard]] bool save(const std::string& path,
                          std::string* error = nullptr) const;
  /// std::nullopt (with `error`) on I/O failure or a structurally invalid
  /// document — never a partially-constructed checkpoint.
  [[nodiscard]] static std::optional<Checkpoint> load(const std::string& path,
                                                      std::string* error);

  /// Identity of the campaign this checkpoint belongs to: scenario +
  /// algos/record-config + mode. Resume refuses a checkpoint whose
  /// fingerprint differs from the invocation's.
  [[nodiscard]] std::string fingerprint() const;
};

/// Writes the campaign CSV: one row per scored trial, placement/trial
/// pinned, doubles at 17 significant digits — byte-stable across
/// interruption/resume and across num_threads.
void write_csv(std::ostream& os, const std::vector<ScoredTrial>& trials,
               const std::vector<Algo>& algos);

}  // namespace netd::exp
