// Per-session write-ahead journal for the diagnosis service.
//
// When the server runs with a state directory, every session mutation
// (hello, set_baseline, each applied observation) is appended to a
// segment log (util::SegmentLog — the same segments and CRC framing as
// the agent spool) before the response leaves the process. Periodic
// snapshots — the full session state as one JSON document, committed
// with util::atomic_write_file — bound replay time and let the journal
// segments they cover be deleted.
//
// On-disk layout under the server's state directory:
//
//   <state_dir>/EPOCH                       {"epoch": N}, bumped per start
//   <state_dir>/sessions/<enc>/SNAPSHOT     last committed state document
//   <state_dir>/sessions/<enc>/wal-<lsn>.ndj  journal segments; <lsn> is
//                                           the zero-padded first LSN, so
//                                           lexicographic order = append
//                                           order
//   <state_dir>/sessions/<enc>/*.quarantined  corrupt files, kept for
//                                           forensics, never replayed
//
// <enc> is the session name percent-encoded (encode_session_dir) so any
// protocol-legal name maps to a filesystem-safe directory.
//
// Failure philosophy mirrors the spool: a record cut off by the end of
// the newest segment is a torn tail (the server was SIGKILLed
// mid-append — truncate and resume), while a CRC mismatch, an LSN that
// goes backwards, or any LSN gap is corruption the append path cannot
// produce, and so is content it cannot write (StreamRules). Corruption
// quarantines the whole session journal (every segment plus the
// snapshot, renamed *.quarantined — never deleted, and never repaired
// first) and the session degrades to the protocol's amnesia path: agents
// get unknown_session, re-hello, and re-ship from their spools.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/troubleshooter.h"
#include "svc/json.h"
#include "svc/protocol.h"
#include "svc/trace.h"
#include "util/segment_log.h"

namespace netd::svc {

/// When journal appends reach the disk. SIGKILL never loses OS-buffered
/// writes, so kBatch (fsync only on segment rotation and snapshot
/// commit) already survives process crashes; kAlways additionally
/// survives power loss at the cost of one fsync per mutation —
/// bench_svc measures the gap.
enum class FsyncPolicy {
  kAlways,  ///< fsync after every append
  kBatch,   ///< fsync on rotation/snapshot only
};

[[nodiscard]] const char* to_string(FsyncPolicy p);
[[nodiscard]] std::optional<FsyncPolicy> fsync_policy_from_string(
    std::string_view s);

/// Percent-encodes a session name into a filesystem-safe directory name:
/// bytes outside [A-Za-z0-9_-] (notably '/', '.' and '%' itself) become
/// %XX. Decode inverts it exactly; names round-trip byte-identically.
[[nodiscard]] std::string encode_session_dir(std::string_view session);
[[nodiscard]] std::optional<std::string> decode_session_dir(
    std::string_view dir);

/// Registers every netd_svc_journal_* metric family with the global obs
/// registry. The instruments are lazily created at their first increment;
/// a durable server calls this at start() so an idle scrape already
/// shows the whole family set at zero instead of families appearing as
/// they first fire.
void register_journal_metrics();

/// Reads <state_dir>/EPOCH, increments it and atomically rewrites it.
/// Returns the new epoch (1 on a fresh directory); 0 with `error` on IO
/// failure. The epoch is advertised in hello responses so clients can
/// observe restarts.
[[nodiscard]] std::uint64_t bump_epoch(const std::string& state_dir,
                                       std::string* error);
/// Reads <state_dir>/EPOCH without modifying it (0 = absent/unreadable).
[[nodiscard]] std::uint64_t read_epoch(const std::string& state_dir);

/// Directory names (not decoded session names) under
/// <state_dir>/sessions, sorted. Missing directory = empty vector.
[[nodiscard]] std::vector<std::string> list_session_dirs(
    const std::string& state_dir);

// ---------------------------------------------------------------------------
// SNAPSHOT: a session's whole state as one JSON document. This module
// writes and reads every field of it.

/// What a session holds besides its troubleshooter.
struct SessionState {
  SessionConfig config;
  std::size_t round = 0;            ///< observation rounds fed so far
  std::size_t diagnosis_round = 0;  ///< round of last fired diagnosis
  std::string diagnosis;            ///< last diagnosis document ("" = none)
  /// Ack watermarks: the highest seq applied from each source, "" being
  /// the observe verb; a sequenced observation at or below its source's
  /// is skipped, so retries and redeliveries apply once. A baseline
  /// clears them: an agent that re-ships it re-ships all after it.
  std::map<std::string, std::uint64_t> src_acks;
};

/// The SNAPSHOT text of `state` and of `ts`'s baseline and detector
/// streaks, covering the journal through LSN `wal`.
[[nodiscard]] std::string snapshot_document(std::uint64_t wal,
                                            const SessionState& state,
                                            const core::Troubleshooter& ts);

/// A SNAPSHOT, decoded: every field a session resumes from.
struct Snapshot {
  SessionState state;
  std::optional<probe::Mesh> baseline;
  std::vector<std::size_t> fails;  ///< the detector's per-pair streaks
  std::vector<bool> alarmed;
};

// ---------------------------------------------------------------------------
// The verdict on a session directory, in two stages: recovery acts on it
// and the `netdiag wal` verb renders it.

struct Inspection {
  std::optional<std::string> snapshot;  ///< raw SNAPSHOT bytes
  /// The snapshot's LSN floor; unset without a readable snapshot.
  std::optional<std::uint64_t> wal;
  util::SegmentLog::Listing log;        ///< wal-*.ndj, append order
  /// Why stage one condemns this journal; empty = stage two judges it.
  std::string damage;
  std::string damage_file;          ///< where stage one found the damage
  std::uint64_t damage_offset = 0;  ///< its first distrusted byte
};

/// Stage one: judges a session directory's bytes without mutating it or
/// looking inside a record. False with `error` when a file can't be read.
[[nodiscard]] bool inspect_session_dir(const std::string& dir,
                                       Inspection* out, std::string* error);

/// Stage two, over the content: decodes the SNAPSHOT, then each journal
/// record above its floor, and admits them with StreamRules. Damage is
/// what does not decode, what the rules refuse, or a stream with no config.
struct SessionReader {
  explicit SessionReader(const std::optional<std::string>& text);

  /// The record at `lsn`, admitted; std::nullopt once damaged.
  [[nodiscard]] std::optional<TraceRecord> next(std::uint64_t lsn,
                                                std::string_view payload);
  /// `refused`, or a stream that named no config; empty = it recovers.
  [[nodiscard]] std::string damage() const;

  std::optional<Snapshot> snapshot;  ///< decoded, for the caller to take
  StreamRules rules;                 ///< with the stream's watermarks
  std::string refused;  ///< why the SNAPSHOT or a record was refused
};

/// Both stages on an inspected directory, as `netdiag wal` renders them:
/// stage one's damage, else a SessionReader's over the records above the
/// floor; empty = it recovers. Sets `watermarks` to the ones it folds. A
/// segment a live server prunes mid-read ends the read, and is no damage.
[[nodiscard]] std::string session_damage(
    const Inspection& insp, std::map<std::string, std::uint64_t>* watermarks);

// Journal record payloads: one compact JSON document per mutation,
// carrying exactly the request fields the handler applied, and read back
// by parse_journal_record (trace.h) — replay feeds them through the same
// apply path, which is what makes a recovered session byte-identical to
// the uninterrupted one.

/// The record that creates a session: {"t":"hello","config":..}.
[[nodiscard]] std::string hello_record(const SessionConfig& cfg);
/// The journal record of an installed baseline: {"t":"baseline","mesh":..}.
[[nodiscard]] std::string baseline_record(const probe::Mesh& mesh);
/// The journal record of one applied observation. The observe verb's
/// (source "") is {"t":"obs","mesh":..,"cp":..,"seq":..}, cp and seq when
/// present; a batch item's is {"t":"bobs","src":..,"seq":..,"mesh":..,
/// "cp":..}.
[[nodiscard]] std::string observation_record(
    const std::string& src, std::optional<std::uint64_t> seq,
    const probe::Mesh& mesh, const core::ControlPlaneObs* cp);

// ---------------------------------------------------------------------------

class SessionJournal {
 public:
  struct Options {
    std::string dir;  ///< the per-session directory
    FsyncPolicy fsync = FsyncPolicy::kBatch;
    /// Rotation threshold for one segment's bytes.
    std::uint64_t max_segment_bytes = 4u << 20;
    /// Records appended since the last snapshot before snapshot_due().
    std::size_t snapshot_every = 256;
  };

  struct RecoveryStats {
    std::size_t segments = 0;  ///< validated segments kept
    std::size_t records = 0;   ///< records available for replay
    std::size_t torn_tails = 0;
    std::uint64_t torn_bytes = 0;
    bool quarantined = false;  ///< open() quarantined the whole journal
  };

  /// Opens (creating `opts.dir` if needed) and validates the journal.
  /// Any damage inspect_session_dir() reports — bad frame, LSN
  /// regression, an LSN gap, an unreadable snapshot — quarantines every
  /// journal file untouched (stats->quarantined) and returns nullptr with
  /// `error` empty: the caller treats the session as never-persisted.
  /// Otherwise a torn tail on the newest segment is truncated away.
  /// Returns nullptr with `error` set on IO failure.
  [[nodiscard]] static std::unique_ptr<SessionJournal> open(
      Options opts, std::string* error, RecoveryStats* stats = nullptr);

  SessionJournal(const SessionJournal&) = delete;
  SessionJournal& operator=(const SessionJournal&) = delete;

  /// SNAPSHOT contents as read at open (std::nullopt = no snapshot).
  [[nodiscard]] const std::optional<std::string>& snapshot() const {
    return snapshot_;
  }

  /// Records recovered at open, in LSN order, for replay. The caller
  /// filters out LSNs the snapshot already covers. Cleared by
  /// drop_replay_buffer() once recovery is done.
  [[nodiscard]] const std::vector<std::pair<std::uint64_t, std::string>>&
  records() const {
    return records_;
  }
  void drop_replay_buffer() { records_.clear(); records_.shrink_to_fit(); }

  /// Appends one record, fsyncing per policy. Returns the record's LSN
  /// (> 0) or 0 with `error` on failure — after which the caller should
  /// degrade the session to ephemeral rather than retry blindly.
  [[nodiscard]] std::uint64_t append(std::string_view payload,
                                     std::string* error);

  /// True once snapshot_every records accumulated since the last
  /// snapshot (or since open, when replayed records are pending).
  [[nodiscard]] bool snapshot_due() const {
    return records_since_snapshot_ >= opts_.snapshot_every;
  }

  /// Commits `doc` (which must describe state through last_lsn()) as the
  /// new SNAPSHOT and deletes every journal segment it covers. On
  /// failure the journal keeps appending — a missed snapshot only means
  /// longer replay, never lost data.
  [[nodiscard]] bool commit_snapshot(const std::string& doc,
                                     std::string* error);

  /// Renames every journal file to *.quarantined. Used when the content
  /// (not the framing) is damaged: SessionReader refused the stream.
  [[nodiscard]] bool quarantine_all(std::string* error);

  [[nodiscard]] std::uint64_t last_lsn() const { return log_->last_seq(); }
  [[nodiscard]] const std::string& dir() const { return opts_.dir; }

 private:
  explicit SessionJournal(Options opts) : opts_(std::move(opts)) {}

  [[nodiscard]] bool recover(std::string* error, RecoveryStats* stats);
  [[nodiscard]] bool timed_sync(std::string* error);

  Options opts_;
  std::unique_ptr<util::SegmentLog> log_;
  std::vector<std::pair<std::uint64_t, std::string>> records_;
  std::optional<std::string> snapshot_;
  std::size_t records_since_snapshot_ = 0;
};

}  // namespace netd::svc
