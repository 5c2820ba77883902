// util::SegmentLog: the segment directory under the agent spool and the
// session journal. These tests pin the read contract: a read seeks
// through the per-segment record index built by list() or append, hands
// over exactly the records above `from`, checks each record it delivers
// (magic, length, CRC and the indexed seq) and nothing it does not, and
// fails rather than deliver bytes the index does not vouch for.
#include "util/segment_log.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "util/atomic_file.h"
#include "util/record_log.h"

namespace netd::util {
namespace {

using Verdict = record_log::Scan::Verdict;
using Records = std::vector<std::pair<std::uint64_t, std::string>>;

std::string tmp_dir(const std::string& name) {
  const std::string d = ::testing::TempDir() + "/" + name;
  // Fresh directory per test: remove anything a previous run left.
  const std::string cmd = "rm -rf '" + d + "'";
  [[maybe_unused]] const int rc = std::system(cmd.c_str());
  ::mkdir(d.c_str(), 0755);
  return d;
}

SegmentLog::Options opts(const std::string& dir,
                         std::uint64_t max_segment_bytes = 4u << 20) {
  return {dir, "seg-", ".log", max_segment_bytes};
}

/// Distinct payloads of distinct lengths, so offsets differ per record.
std::string payload(std::uint64_t seq) {
  return "record " + std::to_string(seq) + std::string(seq % 7 * 5, 'x');
}

/// list() then open() of every segment; none may be corrupt.
std::unique_ptr<SegmentLog> reopen(const SegmentLog::Options& o,
                                   SegmentLog::Repair* repair = nullptr) {
  SegmentLog::Listing listing;
  std::string error;
  EXPECT_TRUE(SegmentLog::list(o, &listing, &error)) << error;
  for (const auto& seg : listing.segments) {
    EXPECT_NE(seg.scan.verdict, Verdict::kCorrupt) << seg.path;
  }
  auto log =
      SegmentLog::open(o, std::move(listing.segments), 0, repair, &error);
  EXPECT_NE(log, nullptr) << error;
  return log;
}

void append_records(SegmentLog& log, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string error;
    const std::uint64_t seq = log.last_seq() + 1;
    ASSERT_EQ(log.append(payload(seq), &error), seq) << error;
  }
}

/// What for_each(from) hands over before `fn` stops after `stop_after`
/// records (0 = never); `ok` and `error` carry its verdict.
Records read(const SegmentLog& log, std::uint64_t from, bool* ok,
             std::string* error, std::size_t stop_after = 0) {
  Records out;
  *ok = log.for_each(
      from,
      [&](std::uint64_t seq, std::string_view p) {
        out.emplace_back(seq, std::string(p));
        return out.size() != stop_after;
      },
      error);
  return out;
}

Records read_ok(const SegmentLog& log, std::uint64_t from) {
  bool ok = false;
  std::string error;
  Records out = read(log, from, &ok, &error);
  EXPECT_TRUE(ok) << error;
  return out;
}

Records expected(std::uint64_t from, std::uint64_t last) {
  Records out;
  for (std::uint64_t seq = from + 1; seq <= last; ++seq) {
    out.emplace_back(seq, payload(seq));
  }
  return out;
}

/// Offset of record `seq`'s payload in a log that holds records 1.. of
/// payload(seq) in one segment.
std::uint64_t payload_offset(std::uint64_t seq) {
  std::uint64_t off = 0;
  for (std::uint64_t s = 1; s < seq; ++s) {
    off += record_log::kHeaderBytes + payload(s).size();
  }
  return off + record_log::kHeaderBytes;
}

void flip_byte(const std::string& path, std::uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  const char c = static_cast<char>(f.get());
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(static_cast<char>(c ^ 0x01));
}

Verdict listed_verdict(const SegmentLog::Options& o, const std::string& path) {
  SegmentLog::Listing listing;
  std::string error;
  EXPECT_TRUE(SegmentLog::list(o, &listing, &error)) << error;
  for (const auto& seg : listing.segments) {
    if (seg.path == path) return seg.scan.verdict;
  }
  ADD_FAILURE() << path << " is not listed";
  return Verdict::kClean;
}

TEST(SegmentLog, ReadFromTheMiddleReturnsExactlyTheRecordsAboveFrom) {
  const auto o = opts(tmp_dir("netd_seglog_middle"));
  auto log = reopen(o);
  append_records(*log, 10);
  ASSERT_EQ(log->segments().size(), 1u);
  for (std::uint64_t from = 0; from <= 11; ++from) {
    EXPECT_EQ(read_ok(*log, from), expected(from, 10)) << "from " << from;
  }
}

TEST(SegmentLog, ReadAcrossARotationReturnsTheRecordsAboveFrom) {
  const auto o = opts(tmp_dir("netd_seglog_rotation"), 100);
  auto log = reopen(o);
  append_records(*log, 12);
  ASSERT_GT(log->segments().size(), 2u);
  for (std::uint64_t from = 0; from <= 12; ++from) {
    EXPECT_EQ(read_ok(*log, from), expected(from, 12)) << "from " << from;
  }
  // A stop in the middle of a segment ends the read there.
  bool ok = false;
  std::string error;
  EXPECT_EQ(read(*log, 2, &ok, &error, 5), expected(2, 7));
  EXPECT_TRUE(ok) << error;
}

TEST(SegmentLog, ReadAfterOpenCutATornTail) {
  const auto o = opts(tmp_dir("netd_seglog_torn"));
  std::string path;
  {
    auto log = reopen(o);
    append_records(*log, 5);
    path = log->segments().back().path;
  }
  {
    // The writer died mid-append of record 6.
    const std::string frame = record_log::encode_record(6, payload(6));
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f.write(frame.data(), static_cast<std::streamsize>(frame.size() / 2));
  }
  SegmentLog::Repair repair;
  auto log = reopen(o, &repair);
  EXPECT_EQ(repair.torn_tails, 1u);
  for (std::uint64_t from = 0; from <= 5; ++from) {
    EXPECT_EQ(read_ok(*log, from), expected(from, 5)) << "from " << from;
  }
  append_records(*log, 2);
  EXPECT_EQ(read_ok(*log, 4), expected(4, 7));
}

TEST(SegmentLog, ListBuiltIndexMatchesAppendBuiltIndex) {
  const auto o = opts(tmp_dir("netd_seglog_reopen"), 150);
  std::vector<SegmentLog::Segment> appended;
  std::vector<Records> reads;
  {
    auto log = reopen(o);
    append_records(*log, 20);
    appended = log->segments();
    for (std::uint64_t from = 0; from <= 20; ++from) {
      reads.push_back(read_ok(*log, from));
    }
  }
  auto log = reopen(o);
  ASSERT_EQ(log->segments().size(), appended.size());
  for (std::size_t i = 0; i < appended.size(); ++i) {
    const auto& listed = log->segments()[i].index;
    const auto& built = appended[i].index;
    ASSERT_EQ(listed.size(), built.size()) << "segment " << i;
    for (std::size_t k = 0; k < built.size(); ++k) {
      EXPECT_EQ(listed[k].seq, built[k].seq);
      EXPECT_EQ(listed[k].offset, built[k].offset);
    }
  }
  for (std::uint64_t from = 0; from <= 20; ++from) {
    EXPECT_EQ(read_ok(*log, from), reads[from]) << "from " << from;
    EXPECT_EQ(reads[from], expected(from, 20)) << "from " << from;
  }
}

TEST(SegmentLog, FlippedByteBelowFromDoesNotFailTheRead) {
  const auto o = opts(tmp_dir("netd_seglog_below"));
  auto log = reopen(o);
  append_records(*log, 4);
  const std::string path = log->segments().back().path;
  flip_byte(path, payload_offset(2));
  // The read checks only what it delivers.
  EXPECT_EQ(read_ok(*log, 2), expected(2, 4));
  // Recovery still judges every byte.
  EXPECT_EQ(listed_verdict(o, path), Verdict::kCorrupt);
}

TEST(SegmentLog, FlippedByteAfterTheStopDoesNotFailTheRead) {
  const auto o = opts(tmp_dir("netd_seglog_after"));
  auto log = reopen(o);
  append_records(*log, 4);
  const std::string path = log->segments().back().path;
  flip_byte(path, payload_offset(4));
  bool ok = false;
  std::string error;
  EXPECT_EQ(read(*log, 0, &ok, &error, 2), expected(0, 2));
  EXPECT_TRUE(ok) << error;
  EXPECT_EQ(listed_verdict(o, path), Verdict::kCorrupt);
}

TEST(SegmentLog, RewrittenSegmentFailsBeforeDeliveringAForeignRecord) {
  const auto o = opts(tmp_dir("netd_seglog_rewrite"));
  auto log = reopen(o);
  append_records(*log, 3);
  const std::string path = log->segments().back().path;
  // Another writer replaces the file: the same offsets and valid CRCs,
  // but other seqs.
  std::string foreign;
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    foreign += record_log::encode_record(seq + 100, payload(seq));
  }
  ASSERT_EQ(record_log::scan(foreign).verdict, Verdict::kClean);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good()) << path;
    f.write(foreign.data(), static_cast<std::streamsize>(foreign.size()));
  }
  ASSERT_EQ(file_size(path), foreign.size());
  std::string error;
  for (std::uint64_t from = 0; from < 3; ++from) {
    bool ok = true;
    error.clear();
    EXPECT_TRUE(read(*log, from, &ok, &error).empty()) << "from " << from;
    EXPECT_FALSE(ok) << "from " << from;
    EXPECT_NE(error.find("segment changed on disk"), std::string::npos)
        << error;
  }
}

TEST(SegmentLog, TruncatedSegmentFailsTheRead) {
  const auto o = opts(tmp_dir("netd_seglog_truncated"));
  auto log = reopen(o);
  append_records(*log, 3);
  const std::string path = log->segments().back().path;
  std::string error;
  // Cut inside record 2's payload.
  ASSERT_TRUE(truncate_file(path, payload_offset(2) + 2, &error)) << error;
  bool ok = true;
  EXPECT_EQ(read(*log, 0, &ok, &error), expected(0, 1));
  EXPECT_FALSE(ok);
  EXPECT_NE(error.find("segment changed on disk"), std::string::npos) << error;
  ok = true;
  EXPECT_TRUE(read(*log, 1, &ok, &error).empty());
  EXPECT_FALSE(ok);
  ASSERT_TRUE(truncate_file(path, 0, &error)) << error;
  ok = true;
  EXPECT_TRUE(read(*log, 0, &ok, &error).empty());
  EXPECT_FALSE(ok);
}

}  // namespace
}  // namespace netd::util
