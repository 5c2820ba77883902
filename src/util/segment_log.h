// A directory of CRC-framed segment files: the one implementation of
// segment naming, listing, rotation and repair under every durable log
// (the agent spool, the service's per-session write-ahead journal).
//
// A segment is a util::record_log file named
// <prefix><first seq, 20 digits><suffix>; the zero padding makes
// lexicographic order append order. Opening a log takes two steps, so
// that nothing is repaired before its owner has judged the whole
// directory:
//
//   1. list() is read-only. It names, sorts and scans every segment and
//      classifies each one: clean; torn tail (the newest segment ends in
//      a half-written record, the trace of a writer killed mid-append);
//      or corrupt (anything an append cannot leave behind, a torn record
//      in an older segment included).
//   2. The owner applies its policy to the listing: which segments to
//      quarantine() and which to keep. open() then repairs what is kept
//      (truncates the torn tail, removes segments that hold no record)
//      and serves appends.
//
// The log assigns seqs: each append takes the next one above both the
// newest kept record and the owner's floor.
//
// Each segment carries an index of its verified records (seq and byte
// offset): list() fills it from the scan that judges the segment, append
// extends it, and open()'s repairs leave it valid because a torn tail is
// never indexed. read() seeks through it, so a read costs the records it
// delivers, not the fill of the segments it crosses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/record_log.h"

namespace netd::util {

class SegmentLog {
 public:
  struct Options {
    std::string dir;
    std::string prefix;  ///< segment name before the 20-digit first seq
    std::string suffix;  ///< segment name after it
    /// The active segment rotates once it holds this many bytes.
    std::uint64_t max_segment_bytes = 4u << 20;
  };

  /// One verified record: its seq and the offset of its header. Its
  /// extent ends at the next entry's offset, or at scan.good_bytes.
  struct IndexEntry {
    std::uint64_t seq = 0;
    std::uint64_t offset = 0;
  };

  /// One segment file. In a listing, scan.verdict is list()'s class; in
  /// an open log every segment is clean and scan counts what it holds.
  struct Segment {
    std::string path;
    record_log::Scan scan;
    std::vector<IndexEntry> index;  ///< scan's records, in file order
  };

  struct Listing {
    std::vector<Segment> segments;      ///< append order
    std::size_t quarantined_files = 0;  ///< *.quarantined files beside them
  };

  /// What open() repaired.
  struct Repair {
    std::size_t torn_tails = 0;     ///< torn tails cut off
    std::uint64_t torn_bytes = 0;   ///< bytes cut with them
    std::size_t empty_removed = 0;  ///< record-less segments unlinked
  };

  /// Step 1, read-only. False with `error` when the directory or a
  /// segment cannot be read.
  [[nodiscard]] static bool list(const Options& opts, Listing* out,
                                 std::string* error);

  /// Renames `path` to `path`.quarantined: bytes a log refuses to trust
  /// are evidence, never deleted.
  [[nodiscard]] static bool quarantine(const std::string& path,
                                       std::string* error);

  /// Step 2. `segments` are the listed segments the owner keeps, in
  /// order, none of them corrupt. Repairs them and opens the newest for
  /// appending; the next seq follows both their records and `floor`.
  /// nullptr with `error` when a repair or the open fails.
  [[nodiscard]] static std::unique_ptr<SegmentLog> open(
      Options opts, std::vector<Segment> segments, std::uint64_t floor,
      Repair* repair, std::string* error);

  /// Streams the records with seq > `from` in `segments`, oldest first;
  /// `fn` returns false to stop early. Starts at the first indexed record
  /// above `from` and reads one record per pread(2), stopping when `fn`
  /// does, so the bytes read grow with the records delivered. Each record
  /// is checked before it is handed over: magic, length, CRC, and the
  /// header's seq against the indexed one. A mismatch or a short read
  /// fails with `error` ("segment changed on disk"): a stale index can
  /// fail a read but never deliver wrong bytes. Records the read does not
  /// deliver are not re-checked; list() still judges every byte.
  [[nodiscard]] static bool read(const std::vector<Segment>& segments,
                                 std::uint64_t from,
                                 const record_log::RecordFn& fn,
                                 std::string* error);

  ~SegmentLog();
  SegmentLog(const SegmentLog&) = delete;
  SegmentLog& operator=(const SegmentLog&) = delete;

  /// Appends one record under the next seq (returned; 0 = failure with
  /// `error`), first rotating to a new segment when rotation_due(). A
  /// partial write is left for the next list() to find as a torn tail.
  [[nodiscard]] std::uint64_t append(std::string_view payload,
                                     std::string* error);
  /// True when the next append starts a new segment after the full one.
  [[nodiscard]] bool rotation_due() const {
    return !segments_.empty() &&
           segments_.back().scan.good_bytes >= opts_.max_segment_bytes;
  }
  /// fsync(2)s the active segment; true when there is none.
  [[nodiscard]] bool sync(std::string* error);
  [[nodiscard]] bool for_each(std::uint64_t from,
                              const record_log::RecordFn& fn,
                              std::string* error) const {
    return read(segments_, from, fn, error);
  }
  /// Unlinks the oldest segment (the log must hold one). Dropping the
  /// last one closes the log until the next append starts a new segment.
  [[nodiscard]] bool drop_oldest(std::string* error);
  [[nodiscard]] bool drop_all(std::string* error);

  [[nodiscard]] const std::vector<Segment>& segments() const {
    return segments_;
  }
  [[nodiscard]] std::uint64_t last_seq() const { return next_seq_ - 1; }

 private:
  explicit SegmentLog(Options opts) : opts_(std::move(opts)) {}

  [[nodiscard]] bool open_active(std::string* error);

  Options opts_;
  std::vector<Segment> segments_;  ///< oldest first; back() is active
  int fd_ = -1;                    ///< on back(); -1 iff no segments
  std::uint64_t next_seq_ = 1;
};

}  // namespace netd::util
