// Thin POSIX socket layer for the diagnosis service: address parsing,
// RAII descriptors, listen/connect helpers and bounded line-framed IO.
//
// Only what the server and client need — blocking IO, TCP (IPv4 loopback
// or address) and Unix-domain stream sockets. The LineReader enforces the
// frame-size cap at the transport so a hostile peer cannot balloon memory
// before the JSON parser ever runs.
//
// Every blocking primitive takes an optional deadline (milliseconds; < 0
// blocks forever) implemented with poll(2), so a stalled peer costs a
// bounded amount of wall clock instead of pinning the calling thread:
// connect_to gives up on unanswered handshakes, write_all on full send
// buffers, and LineReader::read_line treats its timeout as a total budget
// for delivering one complete frame — a peer dripping one byte per poll
// interval cannot hold a reader hostage.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace netd::svc {

/// A service address: "unix:/path/to.sock", "host:port", or ":port"
/// (binds/connects on 127.0.0.1). Port 0 asks the kernel for a free port
/// (the bound port is readable off the listening Fd).
struct Endpoint {
  enum class Kind { kTcp, kUnix };
  Kind kind = Kind::kTcp;
  std::string host = "127.0.0.1";
  int port = 0;
  std::string path;  ///< kUnix only

  [[nodiscard]] static std::optional<Endpoint> parse(const std::string& spec,
                                                     std::string* error);
  [[nodiscard]] std::string to_string() const;
};

/// Owning file descriptor (move-only).
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd();
  Fd(Fd&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Fd& operator=(Fd&& o) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  int release();
  void reset();

 private:
  int fd_ = -1;
};

/// Binds + listens. On TCP with port 0 the chosen port is returned via
/// `bound_port`. A unix path that already exists is probed first: if a
/// server still answers on it the bind is refused (never clobber a live
/// daemon), while a stale file left by a killed process (connect refused)
/// is unlinked and reclaimed.
[[nodiscard]] Fd listen_on(const Endpoint& ep, std::string* error,
                           int* bound_port = nullptr);

/// Connect with a deadline. timeout_ms < 0 blocks forever; otherwise an
/// unanswered handshake fails with a "timed out" error after roughly
/// timeout_ms. The returned descriptor is in blocking mode.
[[nodiscard]] Fd connect_to(const Endpoint& ep, std::string* error,
                            int timeout_ms = -1);

/// Writes all of `data`, retrying on short writes/EINTR. timeout_ms is a
/// total budget for the whole buffer (< 0 = block forever). False on
/// error or deadline exhaustion.
[[nodiscard]] bool write_all(int fd, std::string_view data,
                             int timeout_ms = -1);

/// Reads newline-terminated frames off a socket with a hard size cap.
class LineReader {
 public:
  explicit LineReader(int fd, std::size_t max_line) : fd_(fd), max_(max_line) {}

  enum class Status { kLine, kEof, kOversize, kError, kTimeout };

  /// Per-call deadline for read_line: the total budget, in milliseconds,
  /// for one complete frame to arrive (< 0 = block forever, the default).
  /// On kTimeout any partial frame stays buffered, so a later call may
  /// still complete it.
  void set_timeout_ms(int timeout_ms) { timeout_ms_ = timeout_ms; }

  /// Blocks for the next frame. The returned line excludes the '\n'.
  /// kOversize means the peer sent more than max_line bytes without a
  /// newline — the stream cannot be resynchronized and must be closed.
  Status read_line(std::string* out);

 private:
  int fd_;
  std::size_t max_;
  int timeout_ms_ = -1;
  std::string buf_;
  std::size_t start_ = 0;    ///< where the next line starts in buf_
  std::size_t scanned_ = 0;  ///< buf_ before this holds no unread '\n'
  bool eof_ = false;
};

}  // namespace netd::svc
