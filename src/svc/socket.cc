#include "svc/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace netd::svc {

namespace {

bool set_error(std::string* error, const std::string& what) {
  if (error != nullptr && error->empty()) {
    *error = what + " (" + std::strerror(errno) + ")";
  }
  return false;
}

using Clock = std::chrono::steady_clock;

/// Milliseconds left until `deadline`, clamped at 0; -1 for "no deadline".
int remaining_ms(bool has_deadline, Clock::time_point deadline) {
  if (!has_deadline) return -1;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  return left > 0 ? static_cast<int>(left) : 0;
}

/// poll(2) for `events` with EINTR retries. Returns 1 (ready), 0 (timed
/// out) or -1 (error).
int poll_fd(int fd, short events, int timeout_ms) {
  pollfd p{};
  p.fd = fd;
  p.events = events;
  while (true) {
    const int rc = ::poll(&p, 1, timeout_ms);
    if (rc < 0 && errno == EINTR) continue;
    return rc < 0 ? -1 : (rc == 0 ? 0 : 1);
  }
}

bool set_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  return ::fcntl(fd, F_SETFL, want) == 0;
}

}  // namespace

std::optional<Endpoint> Endpoint::parse(const std::string& spec,
                                        std::string* error) {
  Endpoint ep;
  if (spec.rfind("unix:", 0) == 0) {
    ep.kind = Kind::kUnix;
    ep.path = spec.substr(5);
    if (ep.path.empty()) {
      if (error != nullptr) *error = "empty unix socket path";
      return std::nullopt;
    }
    if (ep.path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      if (error != nullptr) *error = "unix socket path too long";
      return std::nullopt;
    }
    return ep;
  }
  const auto colon = spec.rfind(':');
  if (colon == std::string::npos) {
    if (error != nullptr) {
      *error = "expected 'unix:PATH', 'host:port' or ':port', got '" + spec +
               "'";
    }
    return std::nullopt;
  }
  ep.kind = Kind::kTcp;
  if (colon != 0) ep.host = spec.substr(0, colon);
  const std::string port = spec.substr(colon + 1);
  char* end = nullptr;
  const long p = std::strtol(port.c_str(), &end, 10);
  if (port.empty() || end == nullptr || *end != '\0' || p < 0 || p > 65535) {
    if (error != nullptr) *error = "invalid port '" + port + "'";
    return std::nullopt;
  }
  ep.port = static_cast<int>(p);
  return ep;
}

std::string Endpoint::to_string() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return host + ":" + std::to_string(port);
}

Fd::~Fd() { reset(); }

Fd& Fd::operator=(Fd&& o) noexcept {
  if (this != &o) {
    reset();
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

int Fd::release() {
  const int fd = fd_;
  fd_ = -1;
  return fd;
}

void Fd::reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

namespace {

bool fill_tcp_addr(const Endpoint& ep, sockaddr_in* addr, std::string* error) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(static_cast<std::uint16_t>(ep.port));
  const std::string host = ep.host == "localhost" ? "127.0.0.1" : ep.host;
  if (::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) != 1) {
    if (error != nullptr) *error = "invalid IPv4 address '" + ep.host + "'";
    return false;
  }
  return true;
}

void fill_unix_addr(const Endpoint& ep, sockaddr_un* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::strncpy(addr->sun_path, ep.path.c_str(), sizeof(addr->sun_path) - 1);
}

/// True when a socket file at `path` is stale: nothing accepts on it
/// anymore (connect refused / no such socket), so a new server may unlink
/// and reclaim the path. A live server answering the probe returns false.
bool unix_socket_is_stale(const Endpoint& ep) {
  Fd probe(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!probe.valid()) return false;
  sockaddr_un addr;
  fill_unix_addr(ep, &addr);
  if (::connect(probe.get(), reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) == 0) {
    return false;  // someone is serving; leave the path alone
  }
  return errno == ECONNREFUSED || errno == ENOENT;
}

}  // namespace

Fd listen_on(const Endpoint& ep, std::string* error, int* bound_port) {
  if (error != nullptr) error->clear();
  if (ep.kind == Endpoint::Kind::kUnix) {
    Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid()) {
      set_error(error, "socket()");
      return Fd();
    }
    sockaddr_un addr;
    fill_unix_addr(ep, &addr);
    int rc =
        ::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc != 0 && errno == EADDRINUSE) {
      // A leftover path from a killed server must not block restarts, but
      // a path a live server still answers on must never be clobbered.
      if (!unix_socket_is_stale(ep)) {
        if (error != nullptr) {
          *error = "bind(" + ep.path + "): a live server is already "
                   "listening on this path";
        }
        return Fd();
      }
      ::unlink(ep.path.c_str());
      rc = ::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    }
    if (rc != 0) {
      set_error(error, "bind(" + ep.path + ")");
      return Fd();
    }
    if (::listen(fd.get(), 64) != 0) {
      set_error(error, "listen(" + ep.path + ")");
      return Fd();
    }
    return fd;
  }

  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    set_error(error, "socket()");
    return Fd();
  }
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  if (!fill_tcp_addr(ep, &addr, error)) return Fd();
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    set_error(error, "bind(" + ep.to_string() + ")");
    return Fd();
  }
  if (::listen(fd.get(), 64) != 0) {
    set_error(error, "listen(" + ep.to_string() + ")");
    return Fd();
  }
  if (bound_port != nullptr) {
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&actual), &len) ==
        0) {
      *bound_port = ntohs(actual.sin_port);
    }
  }
  return fd;
}

namespace {

/// Shared timeout-aware connect: non-blocking connect + poll for
/// writability + SO_ERROR check, then back to blocking mode.
Fd finish_connect(Fd fd, const sockaddr* addr, socklen_t len,
                  const std::string& where, std::string* error,
                  int timeout_ms) {
  if (timeout_ms < 0) {
    if (::connect(fd.get(), addr, len) != 0) {
      set_error(error, "connect(" + where + ")");
      return Fd();
    }
    return fd;
  }
  if (!set_nonblocking(fd.get(), true)) {
    set_error(error, "fcntl(" + where + ")");
    return Fd();
  }
  if (::connect(fd.get(), addr, len) != 0) {
    if (errno != EINPROGRESS && errno != EAGAIN) {
      set_error(error, "connect(" + where + ")");
      return Fd();
    }
    const int rc = poll_fd(fd.get(), POLLOUT, timeout_ms);
    if (rc == 0) {
      if (error != nullptr && error->empty()) {
        *error = "connect(" + where + ") timed out after " +
                 std::to_string(timeout_ms) + " ms";
      }
      return Fd();
    }
    if (rc < 0) {
      set_error(error, "poll(" + where + ")");
      return Fd();
    }
    int so_error = 0;
    socklen_t so_len = sizeof(so_error);
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &so_error, &so_len) !=
            0 ||
        so_error != 0) {
      errno = so_error != 0 ? so_error : errno;
      set_error(error, "connect(" + where + ")");
      return Fd();
    }
  }
  if (!set_nonblocking(fd.get(), false)) {
    set_error(error, "fcntl(" + where + ")");
    return Fd();
  }
  return fd;
}

}  // namespace

Fd connect_to(const Endpoint& ep, std::string* error, int timeout_ms) {
  if (error != nullptr) error->clear();
  if (ep.kind == Endpoint::Kind::kUnix) {
    Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid()) {
      set_error(error, "socket()");
      return Fd();
    }
    sockaddr_un addr;
    fill_unix_addr(ep, &addr);
    return finish_connect(std::move(fd), reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr), ep.path, error, timeout_ms);
  }
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    set_error(error, "socket()");
    return Fd();
  }
  sockaddr_in addr;
  if (!fill_tcp_addr(ep, &addr, error)) return Fd();
  return finish_connect(std::move(fd), reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr), ep.to_string(), error, timeout_ms);
}

bool write_all(int fd, std::string_view data, int timeout_ms) {
  const bool has_deadline = timeout_ms >= 0;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!data.empty()) {
    const int flags =
        MSG_NOSIGNAL | (has_deadline ? MSG_DONTWAIT : 0);
    const ssize_t n = ::send(fd, data.data(), data.size(), flags);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (has_deadline && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        const int left = remaining_ms(true, deadline);
        if (left == 0 || poll_fd(fd, POLLOUT, left) != 1) return false;
        continue;
      }
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

LineReader::Status LineReader::read_line(std::string* out) {
  out->clear();
  const bool has_deadline = timeout_ms_ >= 0;
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms_);
  while (true) {
    // Bytes before scanned_ hold no newline, so each received byte is
    // searched once, however many chunks a frame spans.
    const auto nl = buf_.find('\n', scanned_);
    if (nl != std::string::npos) {
      // A complete line beyond the cap is just as oversized as an
      // unterminated one — it must not reach the parser.
      if (nl - start_ > max_) return Status::kOversize;
      out->assign(buf_, start_, nl - start_);
      start_ = scanned_ = nl + 1;
      return Status::kLine;
    }
    scanned_ = buf_.size();
    if (buf_.size() - start_ > max_) return Status::kOversize;
    if (eof_) return buf_.size() == start_ ? Status::kEof : Status::kError;
    if (has_deadline) {
      // The timeout is a budget for the whole frame: trickling bytes do
      // not extend it, so drip-feeding peers still hit the deadline.
      const int left = remaining_ms(true, deadline);
      const int rc = left == 0 ? 0 : poll_fd(fd_, POLLIN, left);
      if (rc == 0) return Status::kTimeout;
      if (rc < 0) return Status::kError;
    }
    if (start_ != 0) {
      // Lines already returned are dropped once per receive, not once per
      // line; what moves is the unfinished tail of one chunk.
      buf_.erase(0, start_);
      scanned_ -= start_;
      start_ = 0;
    }
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::kError;
    }
    if (n == 0) {
      eof_ = true;
      // A final unterminated fragment is a framing error, not a frame.
      if (!buf_.empty()) return Status::kError;
      return Status::kEof;
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace netd::svc
