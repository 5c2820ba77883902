// Crash-safe on-disk observation spool for the sensor agent.
//
// The spool is a write-ahead batch log: every observation round is
// appended as one CRC32-framed record to the active segment file before
// anything is shipped, so a SIGKILL at any instant loses at most the
// record being written — and that torn tail is detected and truncated at
// the next open(). Records carry the agent's monotonically increasing
// sequence number; the shipper drains records above the server's ack
// watermark and redelivery after a lost response is deduplicated
// server-side, which together give exactly-once ingest.
//
// On-disk layout (all files live in Options::dir):
//
//   seg-<first_seq, 20 digits>.ndspool   record segments, rotated at
//                                        max_segment_bytes
//   MANIFEST                             advisory JSON {"shipped": N},
//                                        replaced via util::atomic_write_file
//   *.quarantined                        segments recovery refused to trust
//
// The segments are a util::SegmentLog — the same segment log, and the
// same util::record_log framing, as the service's per-session journal.
// The spool keeps only its policy on top of it.
//
// Recovery semantics, pinned by tests/agent/spool_test.cc:
//   - a record that runs past the end of the *last* segment is a torn
//     tail (the writer died mid-append): the segment is truncated back to
//     the last complete record and appending resumes after it.
//   - bad magic, a CRC mismatch, a non-increasing seq, or a short tail in
//     a non-last segment is corruption the writer cannot explain: that
//     one segment is renamed to <name>.quarantined and counted loudly
//     (RecoveryStats::quarantined + the agent's structured drop counters)
//     — never silently skipped, never deleted. The other segments stay;
//     seq gaps are legal in a spool.
//   - zero-record segments are removed (empty-segment compaction), as are
//     fully-shipped segments when Options::retain_acked is false.
//   - stale atomic_write_file temps beside MANIFEST (a writer crashed
//     between temp write and rename) are removed via
//     util::remove_stale_temps — the same code path every other
//     atomic-file consumer relies on.
//
// Disk budget: when the spool exceeds Options::max_spool_bytes the oldest
// non-active segment is shed and the loss is accounted in DropStats —
// shipping falls behind visibly (a seq gap + counters), never silently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/segment_log.h"

namespace netd::agent {

class Spool {
 public:
  struct Options {
    std::string dir;
    /// Active segment rotates once it reaches this size.
    std::uint64_t max_segment_bytes = 4u << 20;
    /// Total on-disk budget; 0 = unbounded. Enforced at append time by
    /// shedding whole oldest segments (see DropStats).
    std::uint64_t max_spool_bytes = 0;
    /// fsync the segment after every append. SIGKILL never loses
    /// OS-buffered writes, so this only matters for power loss; the
    /// default trades that for append throughput.
    bool fsync_each = false;
    /// Keep fully-acked segments on disk (until budget pressure sheds
    /// them) so a server that lost its state can be re-fed from the
    /// baseline. False = delete them at mark_shipped (smallest footprint,
    /// but an epoch reset then loses history).
    bool retain_acked = true;
  };

  /// What open() found and repaired; surfaced so the agent can export it
  /// as structured counters instead of burying it in a log line.
  struct RecoveryStats {
    std::size_t segments = 0;          ///< readable segments kept
    std::size_t records = 0;           ///< complete records recovered
    std::size_t torn_tails = 0;        ///< segments truncated at a torn tail
    std::uint64_t torn_bytes = 0;      ///< bytes cut by those truncations
    std::size_t quarantined = 0;       ///< segments renamed *.quarantined
    std::size_t quarantined_records = 0;  ///< parseable records lost to them
    std::size_t empty_removed = 0;     ///< zero-record segments unlinked
    std::size_t compacted = 0;         ///< fully-shipped segments unlinked
    std::size_t stale_temps = 0;       ///< crashed-writer temps removed
    std::uint64_t shipped = 0;         ///< manifest watermark loaded
  };

  /// Oldest-first shedding under the disk budget, cumulative.
  struct DropStats {
    std::uint64_t segments = 0;
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;
  };

  /// Opens (creating the directory if needed) and runs recovery. Returns
  /// nullptr with `error` set when the directory cannot be created or a
  /// repair action itself fails — a spool that cannot be made trustworthy
  /// is an error, not a warning.
  [[nodiscard]] static std::unique_ptr<Spool> open(Options opts,
                                                   std::string* error,
                                                   RecoveryStats* stats =
                                                       nullptr);

  Spool(const Spool&) = delete;
  Spool& operator=(const Spool&) = delete;

  /// Appends one record, assigning the next sequence number (returned;
  /// 0 = failure with `error` set). The record is on disk (modulo page
  /// cache; see fsync_each) before this returns.
  [[nodiscard]] std::uint64_t append(std::string_view payload,
                                     std::string* error);

  /// Advances the durable ship watermark (monotonic; lower values are
  /// ignored) and persists it to MANIFEST atomically. Without
  /// retain_acked, fully-shipped non-active segments are deleted.
  [[nodiscard]] bool mark_shipped(std::uint64_t upto, std::string* error);

  /// Streams every record with seq > `from`, oldest first. `fn` returns
  /// false to stop early. Reads only the records it hands over (see
  /// util::SegmentLog::read), so a batch costs its records, not the
  /// segment's fill. Each is verified first; returns false with `error`
  /// on a read failure — segments were validated at open() and all later
  /// writes are our own, so a record that no longer verifies means the
  /// disk changed under us. Damage in records it does not hand over is
  /// left for the next open() to judge.
  [[nodiscard]] bool for_each(
      std::uint64_t from,
      const std::function<bool(std::uint64_t seq, std::string_view payload)>&
          fn,
      std::string* error) const {
    return log_->for_each(from, fn, error);
  }

  [[nodiscard]] std::uint64_t last_seq() const { return log_->last_seq(); }
  [[nodiscard]] std::uint64_t shipped() const { return shipped_; }
  [[nodiscard]] std::uint64_t bytes() const;
  [[nodiscard]] std::size_t segments() const {
    return log_->segments().size();
  }
  [[nodiscard]] const DropStats& dropped() const { return dropped_; }
  [[nodiscard]] const Options& options() const { return opts_; }

 private:
  explicit Spool(Options opts) : opts_(std::move(opts)) {}

  [[nodiscard]] bool recover(std::string* error, RecoveryStats* stats);
  [[nodiscard]] bool compact(std::string* error);
  void shed_over_budget();
  [[nodiscard]] bool write_manifest(std::string* error) const;

  Options opts_;
  std::unique_ptr<util::SegmentLog> log_;
  std::uint64_t shipped_ = 0;
  DropStats dropped_;
};

}  // namespace netd::agent
