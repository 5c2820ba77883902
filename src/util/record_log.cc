#include "util/record_log.h"

#include <array>

namespace netd::util {

namespace {

// Slicing-by-8 (Kounavis & Berry): table[0] is the bytewise CRC table and
// table[k][b] is b's CRC advanced by k more zero bytes, so eight lookups
// fold eight input bytes at once.
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

const Crc32Tables& crc32_tables() {
  static const Crc32Tables tables = [] {
    Crc32Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k) {
      for (std::size_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
      }
    }
    return t;
  }();
  return tables;
}

/// Little-endian load from bytes: no alignment or aliasing assumption.
std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) {
  const Crc32Tables& t = crc32_tables();
  std::uint32_t c = seed ^ 0xffffffffu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (; len >= 8; p += 8, len -= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

namespace record_log {

void put_u32(char* p, std::uint32_t v) {
  p[0] = static_cast<char>(v & 0xff);
  p[1] = static_cast<char>((v >> 8) & 0xff);
  p[2] = static_cast<char>((v >> 16) & 0xff);
  p[3] = static_cast<char>((v >> 24) & 0xff);
}

void put_u64(char* p, std::uint64_t v) {
  put_u32(p, static_cast<std::uint32_t>(v & 0xffffffffu));
  put_u32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_u32(const char* p) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(p[2])) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(p[3])) << 24);
}

std::uint64_t get_u64(const char* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

std::uint32_t record_crc(std::uint64_t seq, std::string_view payload) {
  char seq_bytes[8];
  put_u64(seq_bytes, seq);
  const std::uint32_t c = crc32(seq_bytes, sizeof(seq_bytes));
  return crc32(payload.data(), payload.size(), c);
}

std::string encode_record(std::uint64_t seq, std::string_view payload) {
  std::string frame;
  frame.resize(kHeaderBytes);
  put_u32(frame.data(), kMagic);
  put_u32(frame.data() + 4, static_cast<std::uint32_t>(payload.size()));
  put_u64(frame.data() + 8, seq);
  put_u32(frame.data() + 16, record_crc(seq, payload));
  frame.append(payload);
  return frame;
}

Scan scan(std::string_view bytes, const RecordFn& fn) {
  Scan s;
  std::size_t off = 0;
  while (off < bytes.size()) {
    if (bytes.size() - off < kHeaderBytes) {
      s.verdict = Scan::Verdict::kTornTail;
      break;
    }
    const char* h = bytes.data() + off;
    const std::uint32_t magic = get_u32(h);
    const std::uint32_t len = get_u32(h + 4);
    const std::uint64_t seq = get_u64(h + 8);
    const std::uint32_t crc = get_u32(h + 16);
    if (magic != kMagic || len > kMaxRecordBytes) {
      s.verdict = Scan::Verdict::kCorrupt;
      break;
    }
    if (bytes.size() - off - kHeaderBytes < len) {
      s.verdict = Scan::Verdict::kTornTail;
      break;
    }
    const std::string_view payload = bytes.substr(off + kHeaderBytes, len);
    if (record_crc(seq, payload) != crc ||
        (s.records > 0 && seq <= s.last_seq) || seq == 0) {
      s.verdict = Scan::Verdict::kCorrupt;
      break;
    }
    if (s.records == 0) s.first_seq = seq;
    s.last_seq = seq;
    ++s.records;
    off += kHeaderBytes + len;
    s.good_bytes = off;
    if (fn && !fn(seq, payload)) break;
  }
  return s;
}

}  // namespace record_log
}  // namespace netd::util
