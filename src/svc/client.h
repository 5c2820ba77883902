// Blocking protocol client used by `netdiag submit`, `netdiag replay`
// and the tests: one connection, strict request/response lockstep.
//
// With Options the client is resilient: connect and per-request deadlines
// bound every blocking step, transport failures trigger automatic
// reconnect with exponential backoff and deterministic (seeded) jitter,
// and retries are safe — observe requests carry a sequence number the
// server deduplicates against the session's observe watermark, so a
// round whose response was lost on the wire is answered again from
// session state instead of being fed twice. Seqs count from 1 per client,
// so give a session one retrying client between baselines. The
// structured transient errors are honored too: `bad_frame` is resent on
// the intact stream and `overloaded` waits the server's retry_after_ms.
// The zero-argument Options (no retries, no deadlines) behaves exactly
// like the pre-robustness client.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "svc/fault.h"
#include "svc/protocol.h"
#include "svc/socket.h"
#include "util/rng.h"

namespace netd::svc {

class Client {
 public:
  /// What kind of failure the last failed call()/connect() hit. The
  /// distinction matters operationally: kConnectRefused means the server
  /// is down or unreachable (spool and wait), while kClosedMidFrame means
  /// the server accepted the request and died mid-exchange — the request
  /// may or may not have been applied, so the caller must redeliver
  /// idempotently (seq dedup) rather than assume loss.
  enum class ErrorKind {
    kNone,           ///< last call succeeded (or none made yet)
    kConnectRefused, ///< no connection could be established
    kClosedMidFrame, ///< connection dropped between request and response
    kTimeout,        ///< deadline expired waiting for the response
    kProtocol,       ///< response arrived but did not parse / oversized
  };

  struct Options {
    /// Deadline for one connect attempt, ms (< 0 = block forever).
    int connect_timeout_ms = -1;
    /// Deadline for one request+response exchange, ms (< 0 = forever).
    int request_timeout_ms = -1;
    /// Extra attempts after the first; 0 = fail fast (legacy behavior).
    std::size_t max_retries = 0;
    int backoff_base_ms = 10;
    int backoff_max_ms = 1000;
    /// Seeds the jitter stream and makes retry schedules reproducible.
    std::uint64_t seed = 1;
    /// Chaos: faults injected on this client's own request frames.
    FaultPlan fault_plan;
  };

  /// Connects; std::nullopt (with `error`) when the endpoint is
  /// unreachable (after opts.max_retries reconnect attempts, if any).
  [[nodiscard]] static std::optional<Client> connect(const Endpoint& ep,
                                                     std::string* error);
  [[nodiscard]] static std::optional<Client> connect(const Endpoint& ep,
                                                     const Options& opts,
                                                     std::string* error);

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  /// Sends one request and blocks for its response. ErrorResponse carries
  /// server-side failures; transport failures (disconnect, unparseable
  /// response, deadline) come back as std::nullopt with `error` set —
  /// after the configured retries, each on a fresh connection, have been
  /// exhausted. A retried observe reuses its sequence number, so the
  /// server applies the round at most once.
  [[nodiscard]] std::optional<Response> call(const Request& req,
                                             std::string* error);

  /// Raw frame escape hatch for torture tests: writes `frame` + '\n'
  /// verbatim and reads one response line. Never retries.
  [[nodiscard]] std::optional<std::string> call_raw(const std::string& frame,
                                                    std::string* error);

  /// Tears down the connection. With retries configured a later call()
  /// transparently reconnects; otherwise subsequent calls fail.
  void close();

  /// Faults this client's own injector fired (chaos runs).
  [[nodiscard]] FaultCounters fault_counters() const;

  /// Classifies the most recent failure; kNone after a success. Reset at
  /// the start of every call()/call_raw()/connect attempt.
  [[nodiscard]] ErrorKind last_error_kind() const { return last_error_kind_; }

 private:
  Client(const Endpoint& ep, const Options& opts, Fd fd);

  [[nodiscard]] bool ensure_connected(std::string* error);
  void backoff(std::size_t attempt);
  /// One exchange on the current connection. Sets *transport when the
  /// failure poisoned the stream (reconnect required before retrying).
  [[nodiscard]] std::optional<Response> exchange(const std::string& frame,
                                                 std::string* error,
                                                 bool* transport);

  Endpoint ep_;
  Options opts_;
  Fd fd_;
  std::optional<LineReader> reader_;
  util::Rng rng_;
  std::uint64_t next_seq_ = 1;
  ErrorKind last_error_kind_ = ErrorKind::kNone;
  /// unique_ptr: the injector owns a mutex and must stay movable with us.
  std::unique_ptr<FaultInjector> injector_;
};

/// One-line convenience: true when `call` returned the non-error response
/// alternative `T`, which is then copied to `out`.
template <typename T>
[[nodiscard]] bool expect_response(std::optional<Response> rsp, T* out,
                                   std::string* error) {
  if (!rsp.has_value()) return false;
  if (const auto* err = std::get_if<ErrorResponse>(&*rsp)) {
    if (error != nullptr && error->empty()) *error = err->message;
    return false;
  }
  if (const auto* typed = std::get_if<T>(&*rsp)) {
    if (out != nullptr) *out = *typed;
    return true;
  }
  if (error != nullptr && error->empty()) *error = "unexpected response type";
  return false;
}

}  // namespace netd::svc
