// CRC-framed append-only record log: the shared on-disk framing of every
// durable log in the system (the agent spool, the service's per-session
// write-ahead journal).
//
// A log file is a concatenation of records, little-endian, 20-byte header
// + payload:
//
//   u32 magic   0x4e445350 ("NDSP")
//   u32 len     payload bytes (capped at kMaxRecordBytes)
//   u64 seq     the record's sequence number (> 0, strictly increasing
//               within one file)
//   u32 crc     CRC32 (IEEE) over the 8 seq bytes + payload
//
// scan() is the one walk over these bytes. It classifies them the way
// every consumer's recovery path must: a record cut off by the end of the
// file is a *torn tail* (the writer died mid-append — truncate back to
// good_bytes and resume), while bad magic, an oversized length, a CRC
// mismatch, a zero or non-increasing seq is *corruption* the append path
// cannot produce (quarantine the file, never silently skip or delete).
// The distinction is what lets a SIGKILL at any instant lose at most the
// record being written while disk rot still gets surfaced loudly.
// util::SegmentLog builds directories of such files on top of it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace netd::util {

/// CRC32 (IEEE 802.3, reflected, init/final 0xffffffff) — the framing
/// checksum, computed slicing-by-8 (eight input bytes per step). Chain
/// calls by passing the previous return value as `seed`.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t len,
                                  std::uint32_t seed = 0);

namespace record_log {

inline constexpr std::uint32_t kMagic = 0x4e445350u;  // "NDSP"
inline constexpr std::size_t kHeaderBytes = 20;
/// Hard cap on one record's payload; larger appends are refused and a
/// larger length field in a header is treated as corruption.
inline constexpr std::uint32_t kMaxRecordBytes = 64u << 20;

// Little-endian field helpers (shared so writers and scanners cannot
// disagree on byte order).
void put_u32(char* p, std::uint32_t v);
void put_u64(char* p, std::uint64_t v);
[[nodiscard]] std::uint32_t get_u32(const char* p);
[[nodiscard]] std::uint64_t get_u64(const char* p);

/// The framing checksum of one record: CRC32 over the seq bytes then the
/// payload, so a header spliced onto the wrong payload never verifies.
[[nodiscard]] std::uint32_t record_crc(std::uint64_t seq,
                                       std::string_view payload);

/// One fully framed record (header + payload), ready to append. The
/// caller owns seq assignment; payload must be <= kMaxRecordBytes.
[[nodiscard]] std::string encode_record(std::uint64_t seq,
                                        std::string_view payload);

/// Outcome of walking one file's bytes record by record.
struct Scan {
  enum class Verdict {
    kClean,     ///< every byte accounted for
    kTornTail,  ///< complete records, then a record cut off by the end
    kCorrupt,   ///< bad magic / CRC mismatch / seq went backwards
  };
  Verdict verdict = Verdict::kClean;
  std::uint64_t good_bytes = 0;  ///< offset of the first untrusted byte
  std::size_t records = 0;
  std::uint64_t first_seq = 0;
  std::uint64_t last_seq = 0;
};

/// Receives each verified record in order; returns false to stop.
using RecordFn =
    std::function<bool(std::uint64_t seq, std::string_view payload)>;

/// Walks `bytes` record by record and classifies them. Each verified
/// record also goes to `fn`, when set; if `fn` stops the walk, the Scan
/// covers the records walked up to and including that one.
[[nodiscard]] Scan scan(std::string_view bytes, const RecordFn& fn = nullptr);

}  // namespace record_log
}  // namespace netd::util
