// LineReader framing over a socketpair: frames split across receives at
// every byte, several frames in one receive, newlines at chunk edges, and
// the size cap at exactly max_line and one byte past it.
#include "svc/socket.h"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <string>
#include <vector>

namespace netd::svc {
namespace {

class LineReaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    reader_end_ = Fd(fds[0]);
    writer_end_ = Fd(fds[1]);
  }

  void send(const std::string& bytes) {
    ASSERT_TRUE(write_all(writer_end_.get(), bytes));
  }

  Fd reader_end_;
  Fd writer_end_;
};

TEST_F(LineReaderTest, FrameSplitAtEveryChunkBoundary) {
  const std::string frame = R"({"v":1,"op":"query","session":"s"})";
  LineReader reader(reader_end_.get(), 1024);
  reader.set_timeout_ms(1);
  for (std::size_t cut = 1; cut < frame.size() + 1; ++cut) {
    send(frame.substr(0, cut));
    std::string line;
    // The first part is received, then the call times out with it
    // buffered; the rest completes the frame on the next call.
    EXPECT_EQ(reader.read_line(&line), LineReader::Status::kTimeout) << cut;
    send(frame.substr(cut) + "\n");
    reader.set_timeout_ms(1000);
    ASSERT_EQ(reader.read_line(&line), LineReader::Status::kLine) << cut;
    EXPECT_EQ(line, frame) << cut;
    reader.set_timeout_ms(1);
  }
}

TEST_F(LineReaderTest, SeveralFramesInOneReceive) {
  LineReader reader(reader_end_.get(), 1024);
  reader.set_timeout_ms(1000);
  send("a\nbb\n\nccc\nd");
  std::string line;
  for (const std::string want : {"a", "bb", "", "ccc"}) {
    ASSERT_EQ(reader.read_line(&line), LineReader::Status::kLine);
    EXPECT_EQ(line, want);
  }
  send("ee\n");
  ASSERT_EQ(reader.read_line(&line), LineReader::Status::kLine);
  EXPECT_EQ(line, "dee");
  writer_end_.reset();
  EXPECT_EQ(reader.read_line(&line), LineReader::Status::kEof);
}

TEST_F(LineReaderTest, NewlineFirstAndLastInAChunk) {
  LineReader reader(reader_end_.get(), 1024);
  reader.set_timeout_ms(1);
  std::string line;
  send("first");
  EXPECT_EQ(reader.read_line(&line), LineReader::Status::kTimeout);
  send("\nsecond\n");  // a newline opens this chunk and ends it
  reader.set_timeout_ms(1000);
  ASSERT_EQ(reader.read_line(&line), LineReader::Status::kLine);
  EXPECT_EQ(line, "first");
  ASSERT_EQ(reader.read_line(&line), LineReader::Status::kLine);
  EXPECT_EQ(line, "second");
  send("third\n");
  ASSERT_EQ(reader.read_line(&line), LineReader::Status::kLine);
  EXPECT_EQ(line, "third");
}

TEST_F(LineReaderTest, FrameSpanningManyReceives) {
  std::string frame;
  for (int i = 0; frame.size() < 200000; ++i) frame += std::to_string(i) + ",";
  LineReader reader(reader_end_.get(), frame.size());
  reader.set_timeout_ms(5000);
  send(frame + "\n" + "tail\n");
  std::string line;
  ASSERT_EQ(reader.read_line(&line), LineReader::Status::kLine);
  EXPECT_EQ(line, frame);
  ASSERT_EQ(reader.read_line(&line), LineReader::Status::kLine);
  EXPECT_EQ(line, "tail");
}

TEST_F(LineReaderTest, LineOfMaxBytesPassesOneMoreIsOversize) {
  const std::size_t max = 16;
  LineReader reader(reader_end_.get(), max);
  reader.set_timeout_ms(1000);
  std::string line;
  send(std::string(max, 'x') + "\n");
  ASSERT_EQ(reader.read_line(&line), LineReader::Status::kLine);
  EXPECT_EQ(line, std::string(max, 'x'));
  // Terminated, one byte over: rejected although its newline is here.
  send(std::string(max + 1, 'y') + "\n");
  EXPECT_EQ(reader.read_line(&line), LineReader::Status::kOversize);
}

TEST_F(LineReaderTest, UnterminatedLinePastTheCapIsOversize) {
  const std::size_t max = 16;
  LineReader reader(reader_end_.get(), max);
  reader.set_timeout_ms(1);
  std::string line;
  // Exactly max bytes and no newline yet: still a frame in progress.
  send(std::string(max, 'x'));
  EXPECT_EQ(reader.read_line(&line), LineReader::Status::kTimeout);
  // One more byte without a newline: oversize before the newline arrives.
  send("x");
  reader.set_timeout_ms(1000);
  EXPECT_EQ(reader.read_line(&line), LineReader::Status::kOversize);
}

TEST_F(LineReaderTest, OversizeCountsFromTheLineNotTheBuffer) {
  // A short frame ahead of a max-sized one shares the receive; the cap
  // applies to each line, not to what the buffer holds.
  const std::size_t max = 16;
  LineReader reader(reader_end_.get(), max);
  reader.set_timeout_ms(1000);
  send("ab\n" + std::string(max, 'z') + "\n");
  std::string line;
  ASSERT_EQ(reader.read_line(&line), LineReader::Status::kLine);
  EXPECT_EQ(line, "ab");
  ASSERT_EQ(reader.read_line(&line), LineReader::Status::kLine);
  EXPECT_EQ(line, std::string(max, 'z'));
}

TEST_F(LineReaderTest, EofMidFrameIsAnError) {
  LineReader reader(reader_end_.get(), 1024);
  reader.set_timeout_ms(1000);
  send("whole\npartial");
  writer_end_.reset();
  std::string line;
  ASSERT_EQ(reader.read_line(&line), LineReader::Status::kLine);
  EXPECT_EQ(line, "whole");
  EXPECT_EQ(reader.read_line(&line), LineReader::Status::kError);
}

}  // namespace
}  // namespace netd::svc
