// agent::Spool: the crash-safe CRC-framed batch log under the sensor
// agent. These tests pin the recovery semantics the durability story
// depends on: torn tails truncate, corrupt middles quarantine loudly,
// empty segments compact, the disk budget sheds oldest-first into
// counters, and the manifest watermark survives crashed writers.
#include "agent/spool.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "util/atomic_file.h"

namespace netd::agent {
namespace {

std::string tmp_dir(const std::string& name) {
  const std::string d = ::testing::TempDir() + "/" + name;
  // Fresh directory per test: remove anything a previous run left.
  std::string cmd = "rm -rf '" + d + "'";
  [[maybe_unused]] const int rc = std::system(cmd.c_str());
  return d;
}

Spool::Options opts(const std::string& dir) {
  Spool::Options o;
  o.dir = dir;
  return o;
}

std::vector<std::pair<std::uint64_t, std::string>> drain(
    const Spool& s, std::uint64_t from = 0) {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  std::string error;
  EXPECT_TRUE(s.for_each(
      from,
      [&](std::uint64_t seq, std::string_view payload) {
        out.emplace_back(seq, std::string(payload));
        return true;
      },
      &error))
      << error;
  return out;
}

/// The single segment file in `dir` (fails the test when not exactly one).
std::string only_segment(const std::string& dir) {
  std::string found;
  std::string cmd = "ls '" + dir + "' | grep ndspool$";
  FILE* p = ::popen(cmd.c_str(), "r");
  EXPECT_NE(p, nullptr);
  char buf[256];
  std::size_t n = 0;
  while (::fgets(buf, sizeof(buf), p) != nullptr) {
    std::string name(buf);
    while (!name.empty() && (name.back() == '\n' || name.back() == '\r')) {
      name.pop_back();
    }
    found = dir + "/" + name;
    ++n;
  }
  ::pclose(p);
  EXPECT_EQ(n, 1u);
  return found;
}

TEST(Spool, AppendRecoverRoundTrip) {
  const std::string dir = tmp_dir("netd_spool_roundtrip");
  std::string error;
  {
    auto s = Spool::open(opts(dir), &error);
    ASSERT_NE(s, nullptr) << error;
    EXPECT_EQ(s->append("alpha", &error), 1u) << error;
    EXPECT_EQ(s->append("bravo", &error), 2u) << error;
    std::string with_nul = "char";
    with_nul.push_back('\0');
    with_nul += "lie";
    EXPECT_EQ(s->append(with_nul, &error), 3u) << error;
    EXPECT_EQ(s->last_seq(), 3u);
  }
  Spool::RecoveryStats stats;
  auto s = Spool::open(opts(dir), &error, &stats);
  ASSERT_NE(s, nullptr) << error;
  EXPECT_EQ(stats.records, 3u);
  EXPECT_EQ(stats.torn_tails, 0u);
  EXPECT_EQ(stats.quarantined, 0u);
  EXPECT_EQ(s->last_seq(), 3u);
  const auto rec = drain(*s);
  ASSERT_EQ(rec.size(), 3u);
  EXPECT_EQ(rec[0], (std::pair<std::uint64_t, std::string>{1, "alpha"}));
  EXPECT_EQ(rec[1], (std::pair<std::uint64_t, std::string>{2, "bravo"}));
  EXPECT_EQ(rec[2].second.size(), 8u);  // NUL survived
  // for_each(from) is exclusive.
  EXPECT_EQ(drain(*s, 2).size(), 1u);
  // Appending resumes after the recovered tail.
  EXPECT_EQ(s->append("delta", &error), 4u) << error;
}

TEST(Spool, TornTailIsTruncatedAndAppendResumes) {
  const std::string dir = tmp_dir("netd_spool_torn");
  std::string error;
  {
    auto s = Spool::open(opts(dir), &error);
    ASSERT_NE(s, nullptr) << error;
    ASSERT_EQ(s->append("first record", &error), 1u);
    ASSERT_EQ(s->append("second record", &error), 2u);
  }
  // Simulate a writer SIGKILLed mid-append: cut the last record's payload
  // short.
  const std::string seg = only_segment(dir);
  const auto size = util::file_size(seg);
  ASSERT_TRUE(size.has_value());
  ASSERT_TRUE(util::truncate_file(seg, *size - 5, &error)) << error;

  Spool::RecoveryStats stats;
  auto s = Spool::open(opts(dir), &error, &stats);
  ASSERT_NE(s, nullptr) << error;
  EXPECT_EQ(stats.torn_tails, 1u);
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(stats.quarantined, 0u);
  EXPECT_EQ(s->last_seq(), 1u);
  const auto rec = drain(*s);
  ASSERT_EQ(rec.size(), 1u);
  EXPECT_EQ(rec[0].second, "first record");
  // The torn seq is re-assignable: the next append gets seq 2 again and
  // lands cleanly after the truncated tail.
  EXPECT_EQ(s->append("second try", &error), 2u) << error;
  const auto rec2 = drain(*s);
  ASSERT_EQ(rec2.size(), 2u);
  EXPECT_EQ(rec2[1].second, "second try");
}

TEST(Spool, CorruptMiddleRecordQuarantinesSegmentLoudly) {
  const std::string dir = tmp_dir("netd_spool_corrupt");
  std::string error;
  {
    auto s = Spool::open(opts(dir), &error);
    ASSERT_NE(s, nullptr) << error;
    ASSERT_EQ(s->append(std::string(100, 'a'), &error), 1u);
    ASSERT_EQ(s->append(std::string(100, 'b'), &error), 2u);
    ASSERT_EQ(s->append(std::string(100, 'c'), &error), 3u);
  }
  // Flip one byte inside the SECOND record's payload: a CRC mismatch in
  // the middle of the segment, not a torn tail.
  const std::string seg = only_segment(dir);
  {
    std::fstream f(seg,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(static_cast<std::streamoff>(20 + 100 + 20 + 50));
    f.put('X');
  }
  Spool::RecoveryStats stats;
  auto s = Spool::open(opts(dir), &error, &stats);
  ASSERT_NE(s, nullptr) << error;
  // The whole segment is refused and preserved for forensics, counted in
  // the recovery stats — fail loudly, never skip silently.
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(stats.quarantined_records, 1u);  // record 1 parsed before the hit
  EXPECT_EQ(stats.records, 0u);
  EXPECT_TRUE(drain(*s).empty());
  const std::string q = seg + ".quarantined";
  EXPECT_TRUE(util::file_size(q).has_value());
  EXPECT_FALSE(util::file_size(seg).has_value());
}

TEST(Spool, EmptySegmentsAreCompactedAtOpen) {
  const std::string dir = tmp_dir("netd_spool_empty");
  std::string error;
  {
    auto s = Spool::open(opts(dir), &error);
    ASSERT_NE(s, nullptr) << error;
    ASSERT_EQ(s->append("only", &error), 1u);
  }
  // A rotation that crashed before its first record leaves a zero-byte
  // segment behind.
  const std::string empty_seg =
      dir + "/seg-00000000000000000002.ndspool";
  { std::ofstream f(empty_seg, std::ios::binary); }
  ASSERT_TRUE(util::file_size(empty_seg).has_value());

  Spool::RecoveryStats stats;
  auto s = Spool::open(opts(dir), &error, &stats);
  ASSERT_NE(s, nullptr) << error;
  EXPECT_EQ(stats.empty_removed, 1u);
  EXPECT_EQ(stats.records, 1u);
  EXPECT_FALSE(util::file_size(empty_seg).has_value());
  EXPECT_EQ(s->segments(), 1u);
}

TEST(Spool, SegmentsRotateAndBudgetShedsOldestWithCounters) {
  const std::string dir = tmp_dir("netd_spool_budget");
  std::string error;
  Spool::Options o = opts(dir);
  o.max_segment_bytes = 256;   // ~2 records of 100 bytes per segment
  o.max_spool_bytes = 1024;
  auto s = Spool::open(o, &error);
  ASSERT_NE(s, nullptr) << error;
  for (int i = 0; i < 20; ++i) {
    ASSERT_GT(s->append(std::string(100, static_cast<char>('a' + i)), &error),
              0u)
        << error;
  }
  EXPECT_EQ(s->last_seq(), 20u);
  EXPECT_LE(s->bytes(), 1024u + 256u);  // budget plus one active segment
  // Oldest records were shed, newest survive, and the loss is accounted.
  const auto& d = s->dropped();
  EXPECT_GT(d.segments, 0u);
  EXPECT_GT(d.records, 0u);
  EXPECT_GT(d.bytes, 0u);
  const auto rec = drain(*s);
  ASSERT_FALSE(rec.empty());
  EXPECT_EQ(rec.back().first, 20u);            // newest never shed
  EXPECT_EQ(rec.size() + d.records, 20u);      // shed + kept = appended
  EXPECT_GT(rec.front().first, 1u);            // oldest went first
}

TEST(Spool, MarkShippedPersistsWatermarkAndCompactsWithoutRetain) {
  const std::string dir = tmp_dir("netd_spool_shipped");
  std::string error;
  Spool::Options o = opts(dir);
  o.max_segment_bytes = 64;  // force one record per segment
  o.retain_acked = false;
  {
    auto s = Spool::open(o, &error);
    ASSERT_NE(s, nullptr) << error;
    for (int i = 0; i < 5; ++i) {
      ASSERT_GT(s->append(std::string(60, 'x'), &error), 0u);
    }
    ASSERT_TRUE(s->mark_shipped(3, &error)) << error;
    EXPECT_EQ(s->shipped(), 3u);
    // Lower watermarks are ignored (acks are monotonic).
    ASSERT_TRUE(s->mark_shipped(2, &error));
    EXPECT_EQ(s->shipped(), 3u);
    // Fully-shipped segments are gone; unshipped ones remain.
    const auto rec = drain(*s, 0);
    ASSERT_FALSE(rec.empty());
    EXPECT_GE(rec.front().first, 4u);
  }
  // The watermark survives restart via MANIFEST.
  Spool::RecoveryStats stats;
  auto s = Spool::open(o, &error, &stats);
  ASSERT_NE(s, nullptr) << error;
  EXPECT_EQ(stats.shipped, 3u);
  EXPECT_EQ(s->shipped(), 3u);
  EXPECT_EQ(s->last_seq(), 5u);
}

TEST(Spool, RetainAckedKeepsHistoryForEpochReship) {
  const std::string dir = tmp_dir("netd_spool_retain");
  std::string error;
  Spool::Options o = opts(dir);
  o.max_segment_bytes = 64;
  o.retain_acked = true;
  auto s = Spool::open(o, &error);
  ASSERT_NE(s, nullptr) << error;
  for (int i = 0; i < 4; ++i) {
    ASSERT_GT(s->append("record " + std::to_string(i), &error), 0u);
  }
  ASSERT_TRUE(s->mark_shipped(4, &error)) << error;
  // Everything is acked yet still on disk: a server that lost its state
  // can be re-fed from seq 1.
  EXPECT_EQ(drain(*s, 0).size(), 4u);
}

TEST(Spool, CrashedManifestWriterTempIsRemovedAtOpen) {
  const std::string dir = tmp_dir("netd_spool_manifest_crash");
  std::string error;
  {
    auto s = Spool::open(opts(dir), &error);
    ASSERT_NE(s, nullptr) << error;
    ASSERT_EQ(s->append("one", &error), 1u);
    ASSERT_TRUE(s->mark_shipped(1, &error)) << error;
  }
  // A manifest writer that died pre-rename leaves MANIFEST.tmp.<pid>;
  // recovery reuses util::remove_stale_temps — the exact code path the
  // atomic-file tests pin.
  {
    std::ofstream f(dir + "/MANIFEST.tmp.4242", std::ios::binary);
    f << "{\"shipped\": 99";  // torn JSON, never renamed
  }
  Spool::RecoveryStats stats;
  auto s = Spool::open(opts(dir), &error, &stats);
  ASSERT_NE(s, nullptr) << error;
  EXPECT_EQ(stats.stale_temps, 1u);
  EXPECT_FALSE(util::file_size(dir + "/MANIFEST.tmp.4242").has_value());
  // The committed manifest still reads back.
  EXPECT_EQ(s->shipped(), 1u);
}

TEST(Spool, RecordsLargerThanOneSegmentStillAppend) {
  const std::string dir = tmp_dir("netd_spool_bigrec");
  std::string error;
  Spool::Options o = opts(dir);
  o.max_segment_bytes = 64;
  auto s = Spool::open(o, &error);
  ASSERT_NE(s, nullptr) << error;
  const std::string big(1000, 'z');
  ASSERT_EQ(s->append(big, &error), 1u) << error;
  ASSERT_EQ(s->append(big, &error), 2u) << error;
  const auto rec = drain(*s);
  ASSERT_EQ(rec.size(), 2u);
  EXPECT_EQ(rec[0].second, big);
  EXPECT_EQ(rec[1].second, big);
}

TEST(Spool, ForEachFailsWhenAnAppendedRecordNoLongerVerifies) {
  const std::string dir = tmp_dir("netd_spool_readback");
  std::string error;
  auto s = Spool::open(opts(dir), &error);
  ASSERT_NE(s, nullptr) << error;
  ASSERT_EQ(s->append("first record", &error), 1u) << error;
  ASSERT_EQ(s->append("second record", &error), 2u) << error;
  // The disk changes under the open spool: one payload byte of the second
  // record flips after its append.
  {
    std::fstream f(only_segment(dir),
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(static_cast<std::streamoff>(20 + 12 + 20 + 3));
    f.put('X');
  }
  std::vector<std::uint64_t> seen;
  error.clear();
  EXPECT_FALSE(s->for_each(
      0,
      [&](std::uint64_t seq, std::string_view) {
        seen.push_back(seq);
        return true;
      },
      &error));
  EXPECT_FALSE(error.empty());
  // Records before the damage were still handed over, nothing after it.
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1}));
}

}  // namespace
}  // namespace netd::agent
