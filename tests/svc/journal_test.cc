// Unit tests for the service's per-session write-ahead journal: append/
// reopen round-trips, snapshot pruning, torn-tail repair, corruption
// quarantine, the state-dir helpers (epoch, name encoding), and the
// `netdiag wal` verb agreeing with recovery (which forks the real
// binary, NETDIAG_BIN, overridable by the same-named environment
// variable).
#include "svc/journal.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "util/atomic_file.h"
#include "util/record_log.h"

namespace netd::svc {
namespace {

namespace rlog = util::record_log;

#ifndef NETDIAG_BIN
#define NETDIAG_BIN ""
#endif

std::string netdiag_bin() {
  if (const char* env = std::getenv("NETDIAG_BIN"); env != nullptr)
    return env;
  return NETDIAG_BIN;
}

/// Runs `netdiag wal --json` over `state_dir`: {exit code, stdout}.
std::pair<int, std::string> wal_json(const std::string& state_dir) {
  const std::string cmd = "'" + netdiag_bin() + "' wal --state-dir '" +
                          state_dir + "' --json 2>/dev/null";
  FILE* p = ::popen(cmd.c_str(), "r");
  if (p == nullptr) return {-1, ""};
  std::string out;
  char buf[4096];
  while (const std::size_t n = std::fread(buf, 1, sizeof(buf), p)) {
    out.append(buf, n);
  }
  const int status = ::pclose(p);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/netd_journal_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    const std::string cmd = "rm -rf '" + dir_ + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }

  SessionJournal::Options options() const {
    SessionJournal::Options opts;
    opts.dir = dir_ + "/sess";
    return opts;
  }

  /// Files in the session dir whose name ends with `suffix`. (A suffix
  /// match, not a substring one: a quarantined segment is named
  /// `wal-...ndj.quarantined` and must not count as a live `.ndj`.)
  std::vector<std::string> files_matching(const std::string& suffix) const {
    std::vector<std::string> out;
    const std::string cmd =
        "ls '" + dir_ + "/sess' 2>/dev/null > '" + dir_ + "/ls.txt'";
    if (std::system(cmd.c_str()) != 0) return out;
    std::ifstream is(dir_ + "/ls.txt");
    std::string line;
    while (std::getline(is, line)) {
      if (line.size() >= suffix.size() &&
          line.compare(line.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        out.push_back(line);
      }
    }
    return out;
  }

  std::string dir_;
};

TEST_F(JournalTest, AppendReopenReplaysEverything) {
  std::string error;
  auto j = SessionJournal::open(options(), &error);
  ASSERT_NE(j, nullptr) << error;
  EXPECT_FALSE(j->snapshot().has_value());
  EXPECT_EQ(j->append("one", &error), 1u) << error;
  EXPECT_EQ(j->append("two", &error), 2u) << error;
  EXPECT_EQ(j->append("three", &error), 3u) << error;
  j.reset();

  SessionJournal::RecoveryStats stats;
  j = SessionJournal::open(options(), &error, &stats);
  ASSERT_NE(j, nullptr) << error;
  EXPECT_FALSE(stats.quarantined);
  EXPECT_EQ(stats.records, 3u);
  ASSERT_EQ(j->records().size(), 3u);
  EXPECT_EQ(j->records()[0], (std::pair<std::uint64_t, std::string>{1, "one"}));
  EXPECT_EQ(j->records()[2],
            (std::pair<std::uint64_t, std::string>{3, "three"}));
  // Appending continues the LSN stream.
  EXPECT_EQ(j->append("four", &error), 4u) << error;
}

TEST_F(JournalTest, SnapshotPrunesSegmentsAndSetsFloor) {
  std::string error;
  auto j = SessionJournal::open(options(), &error);
  ASSERT_NE(j, nullptr) << error;
  for (int i = 1; i <= 5; ++i) {
    ASSERT_GT(j->append("r" + std::to_string(i), &error), 0u) << error;
  }
  ASSERT_TRUE(j->commit_snapshot("{\"wal\":5,\"state\":\"folded\"}\n", &error))
      << error;
  EXPECT_TRUE(files_matching(".ndj").empty());  // all segments covered
  // Post-snapshot appends land in a new segment, LSNs continuing.
  EXPECT_EQ(j->append("r6", &error), 6u) << error;
  j.reset();

  SessionJournal::RecoveryStats stats;
  j = SessionJournal::open(options(), &error, &stats);
  ASSERT_NE(j, nullptr) << error;
  ASSERT_TRUE(j->snapshot().has_value());
  EXPECT_EQ(*j->snapshot(), "{\"wal\":5,\"state\":\"folded\"}\n");
  // Only the record after the floor replays.
  ASSERT_EQ(j->records().size(), 1u);
  EXPECT_EQ(j->records()[0], (std::pair<std::uint64_t, std::string>{6, "r6"}));
  EXPECT_EQ(j->append("r7", &error), 7u) << error;
}

TEST_F(JournalTest, TornTailIsTruncatedOnReopen) {
  std::string error;
  auto j = SessionJournal::open(options(), &error);
  ASSERT_NE(j, nullptr) << error;
  ASSERT_EQ(j->append("kept", &error), 1u);
  j.reset();
  // Simulate SIGKILL mid-append: half a record at the tail.
  const auto segs = files_matching(".ndj");
  ASSERT_EQ(segs.size(), 1u);
  const std::string path = dir_ + "/sess/" + segs[0];
  const std::string frame = rlog::encode_record(2, "lost-to-the-crash");
  {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    os.write(frame.data(),
             static_cast<std::streamsize>(frame.size() / 2));
  }
  SessionJournal::RecoveryStats stats;
  j = SessionJournal::open(options(), &error, &stats);
  ASSERT_NE(j, nullptr) << error;
  EXPECT_FALSE(stats.quarantined);
  EXPECT_EQ(stats.torn_tails, 1u);
  ASSERT_EQ(j->records().size(), 1u);
  EXPECT_EQ(j->records()[0].second, "kept");
  // The torn LSN is reused by the next append, as if it never happened.
  EXPECT_EQ(j->append("retry", &error), 2u) << error;
}

TEST_F(JournalTest, CorruptSegmentQuarantinesWholeJournal) {
  std::string error;
  auto j = SessionJournal::open(options(), &error);
  ASSERT_NE(j, nullptr) << error;
  ASSERT_EQ(j->append("a", &error), 1u);
  ASSERT_EQ(j->append("b", &error), 2u);
  j.reset();
  const auto segs = files_matching(".ndj");
  ASSERT_EQ(segs.size(), 1u);
  const std::string path = dir_ + "/sess/" + segs[0];
  {
    // Flip one payload byte in the first record: CRC mismatch.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(rlog::kHeaderBytes));
    f.put('X');
  }
  SessionJournal::RecoveryStats stats;
  j = SessionJournal::open(options(), &error, &stats);
  EXPECT_EQ(j, nullptr);
  EXPECT_TRUE(error.empty()) << error;  // quarantine, not an IO failure
  EXPECT_TRUE(stats.quarantined);
  // The bytes are renamed aside — never deleted.
  EXPECT_TRUE(files_matching(".ndj").empty());
  EXPECT_EQ(files_matching(".quarantined").size(), 1u);
  // A fresh journal can be started in the same directory (re-hello).
  j = SessionJournal::open(options(), &error, &stats);
  ASSERT_NE(j, nullptr) << error;
  EXPECT_EQ(j->append("fresh", &error), 1u) << error;
}

TEST_F(JournalTest, UnparseableSnapshotQuarantinesSegmentsToo) {
  std::string error;
  auto j = SessionJournal::open(options(), &error);
  ASSERT_NE(j, nullptr) << error;
  ASSERT_EQ(j->append("a", &error), 1u);
  j.reset();
  ASSERT_TRUE(
      util::atomic_write_file(dir_ + "/sess/SNAPSHOT", "not json", &error))
      << error;
  SessionJournal::RecoveryStats stats;
  j = SessionJournal::open(options(), &error, &stats);
  EXPECT_EQ(j, nullptr);
  EXPECT_TRUE(stats.quarantined);
  // Both the snapshot AND the (framing-wise healthy) segment go aside:
  // replaying records against the wrong base would corrupt state.
  EXPECT_EQ(files_matching(".quarantined").size(), 2u);
  EXPECT_TRUE(files_matching(".ndj").empty());
}

TEST_F(JournalTest, LsnGapBetweenSegmentsQuarantines) {
  std::string error;
  SessionJournal::Options opts = options();
  opts.max_segment_bytes = 1;  // rotate after every record
  auto j = SessionJournal::open(opts, &error);
  ASSERT_NE(j, nullptr) << error;
  ASSERT_EQ(j->append("a", &error), 1u);
  ASSERT_EQ(j->append("b", &error), 2u);
  ASSERT_EQ(j->append("c", &error), 3u);
  ASSERT_EQ(j->append("d", &error), 4u);
  j.reset();
  auto segs = files_matching(".ndj");
  ASSERT_EQ(segs.size(), 4u);
  // A segment vanishing is loss the journal must refuse to paper over —
  // here the one just before a newest segment that also ends in a torn
  // header.
  ASSERT_EQ(::unlink((dir_ + "/sess/" + segs[2]).c_str()), 0);
  const std::string newest = dir_ + "/sess/" + segs[3];
  {
    const std::string frame = rlog::encode_record(5, "e");
    std::ofstream os(newest, std::ios::binary | std::ios::app);
    os.write(frame.data(), 5);
  }
  const auto torn_size = util::file_size(newest);
  ASSERT_TRUE(torn_size.has_value());
  SessionJournal::RecoveryStats stats;
  j = SessionJournal::open(opts, &error, &stats);
  EXPECT_EQ(j, nullptr);
  EXPECT_TRUE(stats.quarantined);
  // Judged before repaired: the evidence keeps every byte, its torn tail
  // included.
  EXPECT_EQ(stats.torn_tails, 0u);
  EXPECT_EQ(util::file_size(newest + ".quarantined"), torn_size);
}

// The verb renders recovery's own verdict: it passes a healthy journal
// (exit 0), and the journal it calls corrupt (an LSN gap before a torn
// newest segment, exit 1) is one recovery quarantines. The verb judges
// content too, so the journal holds a real session's records.
TEST_F(JournalTest, WalVerbReportsTheVerdictRecoveryActsOn) {
  ASSERT_FALSE(netdiag_bin().empty()) << "NETDIAG_BIN unset";
  const std::string state = dir_ + "/state";
  ASSERT_EQ(::mkdir(state.c_str(), 0755), 0);
  ASSERT_EQ(::mkdir((state + "/sessions").c_str(), 0755), 0);
  SessionJournal::Options opts;
  opts.dir = state + "/sessions/s";
  opts.max_segment_bytes = 1;  // one record per segment
  std::string error;
  auto j = SessionJournal::open(opts, &error);
  ASSERT_NE(j, nullptr) << error;
  const probe::Mesh mesh;
  for (const std::string& rec :
       {hello_record(SessionConfig{}), baseline_record(mesh),
        observation_record("", std::nullopt, mesh, nullptr),
        observation_record("", std::nullopt, mesh, nullptr)}) {
    ASSERT_GT(j->append(rec, &error), 0u) << error;
  }
  j.reset();
  auto [code, out] = wal_json(state);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("\"corrupt\":false"), std::string::npos) << out;

  ASSERT_EQ(::unlink((opts.dir + "/wal-00000000000000000003.ndj").c_str()),
            0);
  {
    const std::string frame = rlog::encode_record(5, "e");
    std::ofstream os(opts.dir + "/wal-00000000000000000004.ndj",
                     std::ios::binary | std::ios::app);
    os.write(frame.data(), 5);
  }
  std::tie(code, out) = wal_json(state);
  EXPECT_EQ(code, 1) << out;
  EXPECT_NE(out.find("\"corrupt\":true"), std::string::npos) << out;
  SessionJournal::RecoveryStats stats;
  EXPECT_EQ(SessionJournal::open(opts, &error, &stats), nullptr);
  EXPECT_TRUE(stats.quarantined);
}

// The satellite case: a crash between the snapshot's temp write and its
// rename. The stale temp is swept and recovery proceeds from the old
// snapshot plus full journal replay — nothing lost, nothing doubled.
TEST_F(JournalTest, CrashBetweenSnapshotTempAndRenameRecovers) {
  std::string error;
  auto j = SessionJournal::open(options(), &error);
  ASSERT_NE(j, nullptr) << error;
  ASSERT_EQ(j->append("a", &error), 1u);
  ASSERT_TRUE(j->commit_snapshot("{\"wal\":1}\n", &error)) << error;
  ASSERT_EQ(j->append("b", &error), 2u);
  j.reset();
  // The would-be next snapshot died before rename(2).
  const std::string stale =
      dir_ + "/sess/SNAPSHOT.tmp." + std::to_string(::getpid());
  {
    std::ofstream os(stale, std::ios::binary);
    os << "{\"wal\":2,\"torn\":";  // incomplete by construction
  }
  SessionJournal::RecoveryStats stats;
  j = SessionJournal::open(options(), &error, &stats);
  ASSERT_NE(j, nullptr) << error;
  EXPECT_FALSE(stats.quarantined);
  EXPECT_NE(::access(stale.c_str(), F_OK), 0);  // temp swept
  ASSERT_TRUE(j->snapshot().has_value());
  EXPECT_EQ(*j->snapshot(), "{\"wal\":1}\n");  // the committed one
  ASSERT_EQ(j->records().size(), 1u);
  EXPECT_EQ(j->records()[0], (std::pair<std::uint64_t, std::string>{2, "b"}));
}

TEST_F(JournalTest, SegmentRotationKeepsLsnsContiguous) {
  std::string error;
  SessionJournal::Options opts = options();
  opts.max_segment_bytes = 64;
  auto j = SessionJournal::open(opts, &error);
  ASSERT_NE(j, nullptr) << error;
  for (int i = 1; i <= 20; ++i) {
    ASSERT_EQ(j->append("payload-" + std::to_string(i), &error),
              static_cast<std::uint64_t>(i))
        << error;
  }
  j.reset();
  SessionJournal::RecoveryStats stats;
  j = SessionJournal::open(opts, &error, &stats);
  ASSERT_NE(j, nullptr) << error;
  EXPECT_GT(stats.segments, 1u);
  ASSERT_EQ(j->records().size(), 20u);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(j->records()[i].first, i + 1);
  }
}

TEST(JournalHelpersTest, SessionDirEncodingRoundTrips) {
  const std::string names[] = {
      "plain", "with space", "slash/y", "dots...", "pct%20", "UTF-8 \xc3\xa9",
      "trailing.", "-_A9z"};
  for (const std::string& name : names) {
    const std::string enc = encode_session_dir(name);
    EXPECT_EQ(enc.find('/'), std::string::npos) << enc;
    EXPECT_EQ(enc.find('.'), std::string::npos) << enc;
    const auto dec = decode_session_dir(enc);
    ASSERT_TRUE(dec.has_value()) << enc;
    EXPECT_EQ(*dec, name);
  }
  EXPECT_FALSE(decode_session_dir("bad%zz").has_value());
  EXPECT_FALSE(decode_session_dir("not.safe").has_value());
}

TEST(JournalHelpersTest, FsyncPolicyNamesRoundTrip) {
  EXPECT_STREQ(to_string(FsyncPolicy::kAlways), "always");
  EXPECT_STREQ(to_string(FsyncPolicy::kBatch), "batch");
  EXPECT_EQ(fsync_policy_from_string("always"), FsyncPolicy::kAlways);
  EXPECT_EQ(fsync_policy_from_string("batch"), FsyncPolicy::kBatch);
  EXPECT_FALSE(fsync_policy_from_string("sometimes").has_value());
}

TEST(JournalHelpersTest, EpochBumpsMonotonically) {
  char tmpl[] = "/tmp/netd_epoch_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  EXPECT_EQ(read_epoch(dir), 0u);
  std::string error;
  EXPECT_EQ(bump_epoch(dir, &error), 1u) << error;
  EXPECT_EQ(bump_epoch(dir, &error), 2u) << error;
  EXPECT_EQ(read_epoch(dir), 2u);
  const std::string cmd = "rm -rf '" + dir + "'";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
}

}  // namespace
}  // namespace netd::svc
