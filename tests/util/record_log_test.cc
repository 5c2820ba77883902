#include "util/record_log.h"

#include <gtest/gtest.h>

#include <string>

namespace netd::util {
namespace {

namespace rlog = record_log;
using Verdict = rlog::Scan::Verdict;

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
