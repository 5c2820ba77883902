// Event traces: a JSONL recording of one observation stream, and the
// deterministic replay harness that pins service correctness.
//
// A trace file is newline-delimited JSON, one record per line:
//
//   {"v":1,"type":"config","config":{...}}        once, first line
//   {"v":1,"type":"baseline","mesh":{...}}        healthy T− snapshot
//   {"v":1,"type":"round","mesh":{...},"cp":{..}} one measurement round
//   {"v":1,"type":"diagnosis","round":R,"diagnosis":{...}}
//                                                 what the recording run
//                                                 diagnosed after round R
//
// A `baseline` resets the round counter, so one file can hold many
// episodes back to back (the exp runner emits one baseline per episode).
// Replay drives the identical observation stream through a *fresh*
// troubleshooter — in-process, or across a real socket via svc::Client —
// and fails on the first diagnosis that differs byte-for-byte from the
// recording. Because every input the diagnosis depends on is in the file,
// any divergence is a real behavior change, not noise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "svc/client.h"
#include "svc/protocol.h"

namespace netd::svc {

struct TraceRecord {
  enum class Type { kConfig, kBaseline, kRound, kDiagnosis };
  Type type = Type::kRound;
  SessionConfig config;                      ///< kConfig
  probe::Mesh mesh;                          ///< kBaseline / kRound
  std::optional<core::ControlPlaneObs> cp;   ///< kRound
  std::string src;                           ///< kRound (journal): "" = observe
  std::optional<std::uint64_t> seq;          ///< kRound (journal)
  std::size_t round = 0;                     ///< kDiagnosis: 1-based round
  std::string diagnosis;                     ///< kDiagnosis: document text
};

/// The rules of every stored observation stream, checked one record at a
/// time without running the solver: a config comes exactly once, and
/// first; a round comes after a baseline and fits it (round_fits_baseline);
/// a diagnosis names the round it follows. Folds the watermarks: a
/// baseline clears them, and a round with a seq moves its source's.
struct StreamRules {
  bool config = false;
  std::optional<probe::Mesh> pairs;  ///< the baseline's (src, dst) pairs
  std::size_t round = 0;             ///< rounds since the baseline
  std::map<std::string, std::uint64_t> watermarks;

  /// Admits the stream's next record; false with `error` if refused.
  [[nodiscard]] bool admit(const TraceRecord& rec, std::string* error);
  /// Starts an episode on `mesh`, as a baseline record does.
  void baseline(const probe::Mesh& mesh);
};

/// Streams trace records to `os` (one line each). The config line is
/// written by the constructor; rounds are counted per baseline.
/// `emit_config = false` suppresses the config line — used when resuming
/// an interrupted recording whose file already starts with one.
class TraceRecorder {
 public:
  TraceRecorder(std::ostream& os, const SessionConfig& config,
                bool emit_config = true);

  void baseline(const probe::Mesh& mesh);
  void round(const probe::Mesh& mesh, const core::ControlPlaneObs* cp);
  /// Records the diagnosis the live run produced after the last round fed.
  void diagnosis(const core::AlgorithmOutput& out);

  [[nodiscard]] std::size_t rounds() const { return round_; }

 private:
  std::ostream& os_;
  std::size_t round_ = 0;
};

/// One record as a trace line, as TraceRecorder writes it (without the
/// newline).
[[nodiscard]] std::string trace_line(const TraceRecord& rec);

/// One trace line on its own: std::nullopt (with `error`) on malformed
/// JSON, a version other than 1, or a record whose fields do not decode.
/// A diagnosis record's `round` is what the line says (0 when it is not
/// an unsigned integer); StreamRules checks it against the stream.
[[nodiscard]] std::optional<TraceRecord> parse_trace_line(
    std::string_view line, std::string* error);

/// A journal record as a trace line of it decodes (hello is kConfig; obs
/// and bobs are kRound with src and seq), held to its request's field
/// rules: a bobs has a src and a seq >= 1, an obs seq is >= 1.
[[nodiscard]] std::optional<TraceRecord> parse_journal_record(
    std::string_view payload, std::string* error);

/// Parses a whole trace. std::nullopt (with `error` naming the line) on
/// malformed input or a stream StreamRules refuses.
[[nodiscard]] std::optional<std::vector<TraceRecord>> read_trace(
    std::istream& is, std::string* error);

struct ReplayResult {
  std::size_t baselines = 0;
  std::size_t rounds = 0;
  std::size_t diagnoses = 0;  ///< diagnoses produced by the replay
  /// Human-readable divergences; empty = replay matched the recording.
  std::vector<std::string> mismatches;

  [[nodiscard]] bool ok() const { return mismatches.empty(); }
};

/// Replays through a fresh in-process core::Troubleshooter.
[[nodiscard]] ReplayResult replay_in_process(
    const std::vector<TraceRecord>& trace);

/// Replays through a live server: one `hello` with the trace's config on
/// session `session`, then the same baseline/round stream over the wire.
/// Transport errors are reported as mismatches (they are divergences).
[[nodiscard]] ReplayResult replay_through(Client& client,
                                          const std::string& session,
                                          const std::vector<TraceRecord>& trace);

}  // namespace netd::svc
