// The netdiag service wire protocol, version 1.
//
// Newline-delimited JSON frames over a byte stream (TCP or a Unix-domain
// socket): one request per line, one response per line, strictly in order.
// Every frame carries {"v":1} and requests carry an "op". The ops mirror
// the in-process core::Troubleshooter facade so a remote observation feed
// drives exactly the deployment loop of paper §6:
//
//   hello         create-or-attach a named diagnosis session
//   set_baseline  install the healthy T− full-mesh snapshot
//   observe       feed one measurement round (+ optional control-plane
//                 observations); returns the diagnosis when an alarm fires
//   observe_batch feed several spooled rounds from one sensor agent in a
//                 single frame; per-(session, src) seq dedup + an ack
//                 watermark give redelivering agents exactly-once ingest
//   query         fetch the latest diagnosis of a session
//   stats         service request/latency counters (the server's registry)
//   metrics       Prometheus text-format exposition of the global obs
//                 registry plus the server's (operator scrape surface)
//   events        drain the server's structured event ring (slow
//                 requests, sheds, dedups, quarantines, fsync stalls)
//                 from a cursor, capped — the `netdiag tail` surface
//   shutdown      stop the server after responding
//
// Distributed tracing: hello/set_baseline/observe/observe_batch/query
// (and every batch item) carry an optional "trace" object — the
// obs::TraceContext stamped by the sender at measurement time — so the
// server can join its spans to the agent's. The field is omitted when
// absent; trace-less frames are byte-identical to protocol output from
// before the field existed (golden-pinned).
//
// serialize(parse(x)) is byte-identical for every message this module
// produced — the protocol tests pin that property per message type.
// Request frames are written and read by the typed codec (svc/codec.h),
// which carries meshes between bytes and probe::Mesh without a DOM;
// responses and the small members (config, cp, trace) go through the
// Json document type. Embedded diagnosis documents are spliced verbatim
// from core::to_json and survive round-trips unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "core/solver.h"
#include "core/troubleshooter.h"
#include "obs/events.h"
#include "obs/trace_context.h"
#include "probe/prober.h"
#include "svc/json.h"

namespace netd::svc {

inline constexpr int kProtocolVersion = 1;
/// Hard cap on one frame's bytes; oversized frames are a protocol error.
inline constexpr std::size_t kMaxFrameBytes = 64u << 20;

// Structured ErrorResponse codes. Errors without a code are semantic
// (bad config, mismatched mesh, ...) and must not be retried blindly;
// these name conditions a client reacts to mechanically:
//   bad_frame        the frame did not survive the wire (unparseable /
//                    oversized) — the stream is still in sync, resend
//   overloaded       the server shed the request; honor retry_after_ms
//   unknown_session  the named session does not exist — after a server
//                    restart this is how an agent learns its session (and
//                    every observation the old incarnation applied) is
//                    gone: re-hello and re-ship from the baseline
//   no_baseline      the session exists but holds no baseline yet; same
//                    remedy as unknown_session for a shipping agent
inline constexpr const char* kErrBadFrame = "bad_frame";
inline constexpr const char* kErrOverloaded = "overloaded";
inline constexpr const char* kErrUnknownSession = "unknown_session";
inline constexpr const char* kErrNoBaseline = "no_baseline";

/// The Troubleshooter configuration a session runs with, in wire/trace
/// form. `algo` selects the solver preset ("tomo", "nd-edge" or
/// "nd-bgpigp"; ND-LG needs a Looking Glass service and is not exposed
/// over the wire), `granularity` the logical-link expansion ("none",
/// "per-neighbor", "per-prefix").
struct SessionConfig {
  std::size_t alarm_threshold = 1;
  std::string algo = "nd-bgpigp";
  std::string granularity = "per-neighbor";

  /// Maps onto the in-process facade's config; std::nullopt (with a
  /// message in `error`) when algo/granularity name nothing.
  [[nodiscard]] std::optional<core::Troubleshooter::Config> resolve(
      std::string* error = nullptr) const;

  [[nodiscard]] bool operator==(const SessionConfig&) const = default;
};

// ---------------------------------------------------------------------------
// Requests.

struct HelloRequest {
  std::string session;
  SessionConfig config;
  /// Sender-stamped trace identity; omitted on the wire when absent.
  std::optional<obs::TraceContext> trace;
};

struct SetBaselineRequest {
  std::string session;
  probe::Mesh mesh;
  std::optional<obs::TraceContext> trace;
};

struct ObserveRequest {
  std::string session;
  probe::Mesh mesh;
  std::optional<core::ControlPlaneObs> cp;
  /// Sequence number (>= 1) for exactly-once rounds. An observe is a
  /// one-item batch from the reserved source "": a seq at or below that
  /// source's watermark was already applied, and is answered from session
  /// state instead of feeding the round twice. One seq-stamping client
  /// per session between baselines; a fleet uses observe_batch with its
  /// own `src`. Absent = no dedup (pre-retry clients).
  std::optional<std::uint64_t> seq;
  std::optional<obs::TraceContext> trace;

  ObserveRequest() = default;
  ObserveRequest(std::string s, probe::Mesh m,
                 std::optional<core::ControlPlaneObs> c,
                 std::optional<std::uint64_t> q = std::nullopt)
      : session(std::move(s)), mesh(std::move(m)), cp(std::move(c)), seq(q) {}
};

/// One spooled observation inside an ObserveBatchRequest. Unlike the
/// single-shot ObserveRequest the seq is mandatory: batched ingest exists
/// for agents that redeliver after crashes, and redelivery without a
/// dedup key would double-count rounds.
struct ObserveItem {
  std::uint64_t seq = 0;
  probe::Mesh mesh;
  std::optional<core::ControlPlaneObs> cp;
  /// Trace root the agent stamped when the round was measured. Derived
  /// deterministically from (agent seed, name, seq), so a redelivered
  /// item carries the *same* ids and joins the original trace.
  std::optional<obs::TraceContext> trace;
};

/// A spool drain from one sensor agent: observations in strictly
/// increasing seq order, deduplicated server-side against the per-
/// (session, src) ack watermark — items at or below the watermark were
/// applied by an earlier delivery and are skipped, so redelivering a
/// whole batch after a lost response is idempotent. An empty batch is a
/// watermark probe: it applies nothing and returns the current ack.
struct ObserveBatchRequest {
  std::string session;
  /// The shipping agent's identity; watermarks are tracked per source so
  /// several agents can feed one session without colliding seq spaces.
  std::string src;
  std::vector<ObserveItem> items;
  /// Trace of the shipping pass itself (items carry their own roots).
  std::optional<obs::TraceContext> trace;
};

struct QueryRequest {
  std::string session;
  std::optional<obs::TraceContext> trace;
};

struct StatsRequest {};

struct MetricsRequest {};

/// Drains the server's obs::EventRing from `cursor` (exclusive), oldest
/// first, at most `cap` events (0 = server default). Poll in a loop with
/// the returned next_cursor to tail the ring live.
struct EventsRequest {
  std::uint64_t cursor = 0;
  std::uint64_t cap = 0;
};

struct ShutdownRequest {};

using Request =
    std::variant<HelloRequest, SetBaselineRequest, ObserveRequest,
                 ObserveBatchRequest, QueryRequest, StatsRequest,
                 MetricsRequest, EventsRequest, ShutdownRequest>;

// ---------------------------------------------------------------------------
// Responses.

struct ErrorResponse {
  std::string message;
  /// Machine-readable code (kErrBadFrame, kErrOverloaded); empty for
  /// semantic errors.
  std::string code;
  /// With kErrOverloaded: how long the client should back off before
  /// retrying, in milliseconds.
  std::optional<std::uint64_t> retry_after_ms;

  ErrorResponse() = default;
  ErrorResponse(std::string msg, std::string c = "",
                std::optional<std::uint64_t> retry = std::nullopt)
      : message(std::move(msg)), code(std::move(c)), retry_after_ms(retry) {}
};

struct HelloResponse {
  std::string session;
  bool created = false;  ///< false = attached to an existing session
  SessionConfig config;  ///< the session's effective configuration
  /// The server's recovery epoch, bumped once per start when it runs
  /// with a durable state directory. 0 = ephemeral server (the field is
  /// omitted on the wire, so pre-durability frames are unchanged). A
  /// client that sees the epoch change across hellos knows it is talking
  /// to a restarted — but state-intact — server.
  std::uint64_t epoch = 0;
};

struct SetBaselineResponse {
  std::size_t pairs = 0;
};

struct ObserveResponse {
  std::size_t round = 0;   ///< 1-based round index within the session
  bool alarmed = false;    ///< any pair's alarm currently raised
  /// Present exactly when this round fired a diagnosis: the core::to_json
  /// document, verbatim.
  std::optional<std::string> diagnosis;
};

struct ObserveBatchResponse {
  /// Highest seq applied for (session, src) — the agent's durable ship
  /// watermark. Records at or below it may be deleted from the spool.
  std::uint64_t ack = 0;
  std::size_t applied = 0;  ///< items fed to the troubleshooter this call
  std::size_t deduped = 0;  ///< items skipped as already applied
  std::size_t round = 0;    ///< session round counter after the batch
  bool alarmed = false;
  /// Diagnosis document of the last applied item that fired one.
  std::optional<std::string> diagnosis;
};

struct QueryResponse {
  std::size_t round = 0;  ///< round of the latest diagnosis (0 = none yet)
  std::optional<std::string> diagnosis;
};

struct StatsResponse {
  std::string stats;  ///< Server::stats_json() document, verbatim
};

struct MetricsResponse {
  /// Prometheus text exposition document (\n-separated lines inside one
  /// JSON string on the wire).
  std::string text;
};

/// One page of the server's event ring. Events are obs::Event verbatim;
/// `kind` travels as its stable lowercase name, ids as hex strings.
struct EventsResponse {
  std::uint64_t next_cursor = 0;
  std::vector<obs::Event> events;
};

struct ShutdownResponse {};

using Response =
    std::variant<ErrorResponse, HelloResponse, SetBaselineResponse,
                 ObserveResponse, ObserveBatchResponse, QueryResponse,
                 StatsResponse, MetricsResponse, EventsResponse,
                 ShutdownResponse>;

// ---------------------------------------------------------------------------
// Frame serialization. Serializers emit one line *without* the trailing
// newline (the transport adds it); parsers accept exactly one document.

[[nodiscard]] std::string serialize(const Request& req);
[[nodiscard]] std::string serialize(const Response& rsp);

/// Parses + validates one request frame. On failure returns std::nullopt
/// with a diagnostic in `error` (never throws on hostile input).
[[nodiscard]] std::optional<Request> parse_request(std::string_view frame,
                                                   std::string* error);
[[nodiscard]] std::optional<Response> parse_response(std::string_view frame,
                                                     std::string* error);

// ---------------------------------------------------------------------------
// Payload codecs, shared with the event-trace format.

/// The mesh as a DOM, and back. The wire, the journal, traces and the
/// agent spool read and write meshes with the typed codec (svc/codec.h);
/// these two are its differential oracle.
[[nodiscard]] Json mesh_to_json(const probe::Mesh& mesh);
[[nodiscard]] std::optional<probe::Mesh> mesh_from_json(const Json& j,
                                                        std::string* error);

/// Whether `round` can be diagnosed against `baseline`: the diagnosis
/// graph pairs their paths by index, so the round must list the
/// baseline's (src, dst) pairs in the baseline's order. On false, `error`
/// names the first difference. The server's ingest and the trace reader
/// both admit rounds through it.
[[nodiscard]] bool round_fits_baseline(const probe::Mesh& baseline,
                                       const probe::Mesh& round,
                                       std::string* error);

[[nodiscard]] Json cp_to_json(const core::ControlPlaneObs& cp);
[[nodiscard]] std::optional<core::ControlPlaneObs> cp_from_json(
    const Json& j, std::string* error);

[[nodiscard]] Json session_config_to_json(const SessionConfig& cfg);
[[nodiscard]] std::optional<SessionConfig> session_config_from_json(
    const Json& j, std::string* error);

/// {"tid":"0x...","sid":"0x..."} — the wire form of a trace identity.
[[nodiscard]] Json trace_to_json(const obs::TraceContext& trace);
/// Reads an optional "trace" member of `obj` into `*out` (left untouched
/// when the field is absent). Returns false with `error` on a malformed
/// field.
[[nodiscard]] bool trace_from_json(const Json& obj,
                                   std::optional<obs::TraceContext>* out,
                                   std::string* error);

}  // namespace netd::svc
