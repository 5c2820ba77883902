#include "util/record_log.h"

#include <gtest/gtest.h>

#include <array>
#include <string>

namespace netd::util {
namespace {

namespace rlog = record_log;
using Verdict = rlog::Scan::Verdict;

/// The bytewise table loop: the oracle the slicing-by-8 kernel must match.
std::uint32_t bytewise_crc32(const unsigned char* p, std::size_t len,
                             std::uint32_t seed = 0) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = seed ^ 0xffffffffu;
  for (std::size_t i = 0; i < len; ++i) {
    c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

TEST(RecordLogTest, Crc32MatchesKnownVector) {
  // The canonical IEEE 802.3 check value: crc32("123456789").
  const char* s = "123456789";
  EXPECT_EQ(crc32(s, 9), 0xcbf43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(RecordLogTest, Crc32ChainsAcrossCalls) {
  const char* s = "123456789";
  const std::uint32_t once = crc32(s, 9);
  const std::uint32_t chained = crc32(s + 4, 5, crc32(s, 4));
  EXPECT_EQ(once, chained);
}

TEST(RecordLogTest, Crc32MatchesTheBytewiseOracle) {
  // Every length 0..257 (all eight-byte blocks plus every tail) at each
  // of the 8 start alignments, whole and chained through a seed.
  alignas(8) unsigned char buf[257 + 8];
  for (std::size_t i = 0; i < sizeof(buf); ++i) {
    buf[i] = static_cast<unsigned char>(i * 167 + 13);
  }
  for (std::size_t align = 0; align < 8; ++align) {
    const unsigned char* p = buf + align;
    for (std::size_t len = 0; len <= 257; ++len) {
      const std::uint32_t want = bytewise_crc32(p, len);
      ASSERT_EQ(crc32(p, len), want) << "align " << align << " len " << len;
      for (const std::size_t cut : {std::size_t{1}, std::size_t{3},
                                    std::size_t{8}, len / 2}) {
        if (cut > len) continue;
        ASSERT_EQ(crc32(p + cut, len - cut, crc32(p, cut)), want)
            << "align " << align << " len " << len << " cut " << cut;
      }
      ASSERT_EQ(crc32(p, len, 0x9e3779b9u), bytewise_crc32(p, len, 0x9e3779b9u))
          << "align " << align << " len " << len;
    }
  }
  // One spool-sized record.
  std::string big(24576, '\0');
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>((i * 131 + 7) & 0xff);
  }
  const auto* b = reinterpret_cast<const unsigned char*>(big.data());
  EXPECT_EQ(crc32(big.data(), big.size()), bytewise_crc32(b, big.size()));
  EXPECT_EQ(crc32(big.data(), big.size()), 0x33e9c342u);
}

TEST(RecordLogTest, EncodedFrameMatchesGoldenBytes) {
  // Captured from the bytewise-CRC build; never regenerate these from the
  // code under test: they pin every framed byte on disk.
  static constexpr unsigned char kGolden[] = {
      0x50, 0x53, 0x44, 0x4e, 0x25, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x38, 0x01, 0x1a, 0xd6, 0x7b, 0x22, 0x74, 0x22,
      0x3a, 0x22, 0x62, 0x6f, 0x62, 0x73, 0x22, 0x2c, 0x22, 0x73, 0x72, 0x63,
      0x22, 0x3a, 0x22, 0x73, 0x65, 0x6e, 0x73, 0x6f, 0x72, 0x2d, 0x30, 0x22,
      0x2c, 0x22, 0x73, 0x65, 0x71, 0x22, 0x3a, 0x37, 0x7d};
  const std::string frame =
      rlog::encode_record(7, R"({"t":"bobs","src":"sensor-0","seq":7})");
  EXPECT_EQ(frame, std::string(reinterpret_cast<const char*>(kGolden),
                               sizeof(kGolden)));
}

TEST(RecordLogTest, EncodeScanRoundTrip) {
  std::string log;
  log += rlog::encode_record(1, "alpha");
  log += rlog::encode_record(2, "");
  log += rlog::encode_record(7, "gamma gamma");  // gaps are legal
  const rlog::Scan scan = rlog::scan(log);
  EXPECT_EQ(scan.verdict, Verdict::kClean);
  EXPECT_EQ(scan.records, 3u);
  EXPECT_EQ(scan.first_seq, 1u);
  EXPECT_EQ(scan.last_seq, 7u);
  EXPECT_EQ(scan.good_bytes, log.size());

  std::vector<std::pair<std::uint64_t, std::string>> got;
  (void)rlog::scan(log, [&](std::uint64_t seq, std::string_view payload) {
    got.emplace_back(seq, std::string(payload));
    return true;
  });
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], (std::pair<std::uint64_t, std::string>{1, "alpha"}));
  EXPECT_EQ(got[1], (std::pair<std::uint64_t, std::string>{2, ""}));
  EXPECT_EQ(got[2],
            (std::pair<std::uint64_t, std::string>{7, "gamma gamma"}));
}

TEST(RecordLogTest, TruncatedTailIsTornNotCorrupt) {
  std::string log = rlog::encode_record(1, "first");
  const std::size_t good = log.size();
  log += rlog::encode_record(2, "second");
  for (std::size_t cut = good + 1; cut < log.size(); ++cut) {
    const rlog::Scan scan = rlog::scan(std::string_view(log).substr(0, cut));
    EXPECT_EQ(scan.verdict, Verdict::kTornTail) << "cut " << cut;
    EXPECT_EQ(scan.good_bytes, good) << "cut " << cut;
    EXPECT_EQ(scan.records, 1u) << "cut " << cut;
  }
}

TEST(RecordLogTest, FlippedPayloadByteIsCorrupt) {
  std::string log = rlog::encode_record(1, "first");
  const std::size_t good = log.size();
  log += rlog::encode_record(2, "second");
  log[good + rlog::kHeaderBytes] ^= 0x01;  // second record's payload
  const rlog::Scan scan = rlog::scan(log);
  EXPECT_EQ(scan.verdict, Verdict::kCorrupt);
  EXPECT_EQ(scan.good_bytes, good);
  EXPECT_EQ(scan.records, 1u);
  // The walk hands over only verified records.
  std::size_t seen = 0;
  (void)rlog::scan(log, [&](std::uint64_t, std::string_view) {
    ++seen;
    return true;
  });
  EXPECT_EQ(seen, 1u);
}

TEST(RecordLogTest, BadMagicAndSeqRegressionAreCorrupt) {
  {
    std::string log = rlog::encode_record(1, "x");
    log[0] ^= 0xff;
    EXPECT_EQ(rlog::scan(log).verdict, Verdict::kCorrupt);
  }
  {
    // seq going backwards cannot be produced by the append path.
    std::string log = rlog::encode_record(5, "a");
    log += rlog::encode_record(4, "b");
    const rlog::Scan scan = rlog::scan(log);
    EXPECT_EQ(scan.verdict, Verdict::kCorrupt);
    EXPECT_EQ(scan.records, 1u);
  }
  {
    // seq 0 is reserved ("no record").
    const std::string log = rlog::encode_record(0, "z");
    EXPECT_EQ(rlog::scan(log).verdict, Verdict::kCorrupt);
  }
}

TEST(RecordLogTest, EmptyInputIsClean) {
  const rlog::Scan scan = rlog::scan(std::string_view{});
  EXPECT_EQ(scan.verdict, Verdict::kClean);
  EXPECT_EQ(scan.records, 0u);
  EXPECT_EQ(scan.good_bytes, 0u);
}

TEST(RecordLogTest, FieldHelpersAreLittleEndian) {
  char buf[8];
  rlog::put_u32(buf, 0x01020304u);
  EXPECT_EQ(static_cast<unsigned char>(buf[0]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(buf[3]), 0x01);
  EXPECT_EQ(rlog::get_u32(buf), 0x01020304u);
  rlog::put_u64(buf, 0x0102030405060708ull);
  EXPECT_EQ(static_cast<unsigned char>(buf[0]), 0x08);
  EXPECT_EQ(rlog::get_u64(buf), 0x0102030405060708ull);
}

}  // namespace
}  // namespace netd::util
