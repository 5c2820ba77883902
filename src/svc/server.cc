#include "svc/server.h"

#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <type_traits>
#include <variant>
#include <vector>

#include "core/json_export.h"
#include "obs/events.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "svc/codec.h"

namespace netd::svc {

namespace {

using Labels = decltype(obs::Sample::labels);

/// The server's lifetime counters, each named once: `key` is its stats
/// document key and netd_svc_<key>_total its metric family. Registration,
/// both renderings and CounterId read this table; the stats document
/// lists the rows up to kDedupHits.
struct CounterSpec {
  const char* key;
  const char* help;
};
constexpr CounterSpec kCounters[] = {
    {"connections", "Accepted connections"},
    {"sessions_created", "Sessions created"},
    {"malformed_frames", "Frames that failed to parse"},
    {"oversized_frames", "Frames over the size cap"},
    {"disconnects_mid_request", "Connections lost mid-request"},
    {"idle_timeouts", "Connections cut by the idle deadline"},
    {"shed_requests", "Requests refused as overloaded"},
    {"dedup_hits", "Observations skipped as already applied"},
    {"journal_append_failures",
     "Journal writes that failed; the session degraded to ephemeral"},
    {"journal_sessions_quarantined",
     "Sessions whose journal was quarantined at recovery (amnesia)"},
    {"journal_replayed_records",
     "Journal records replayed into sessions at recovery"},
    {"journal_sessions_recovered",
     "Sessions rebuilt from their journal at server start"},
};
enum CounterId : std::size_t {
  kConnections, kSessionsCreated, kMalformedFrames, kOversizedFrames,
  kDisconnectsMidRequest, kIdleTimeouts, kShedRequests, kDedupHits,
  kJournalAppendFailures, kJournalSessionsQuarantined,
  kJournalReplayedRecords, kJournalSessionsRecovered, kNumCounters
};
static_assert(std::size(kCounters) == kNumCounters);

std::string family(const CounterSpec& c) {
  return std::string("netd_svc_") + c.key + "_total";
}

/// Op names in the order of Request's alternatives.
constexpr std::array<const char*, std::variant_size_v<Request>> kOpNames = {
    "hello",   "set_baseline", "observe", "observe_batch", "query",
    "stats",   "metrics",      "events",  "shutdown"};

constexpr const char* kRequestsFamily = "netd_svc_requests_total";
constexpr const char* kErrorsFamily = "netd_svc_request_errors_total";
constexpr const char* kLatencyFamily = "netd_svc_request_latency_us";

/// What both verbs compute per request instead of counting: the campaign
/// provider's document (queried outside any lock — it may read a
/// checkpoint) and its quarantined count, so neither verb ever serves a
/// stale count, and the injector's live fault counts.
struct ReadTime {
  std::optional<Json> campaign;
  std::uint64_t quarantined_trials = 0;
  FaultCounters faults;
};
ReadTime read_time(const Server::Options& opts,
                   const FaultInjector* injector) {
  ReadTime out;
  if (opts.campaign_stats) {
    out.campaign = opts.campaign_stats();
    const Json* q = out.campaign->find("quarantined");
    out.quarantined_trials = q != nullptr ? q->as_uint().value_or(0) : 0;
  }
  if (injector != nullptr) out.faults = injector->counters();
  return out;
}

/// The trace id a request carries, for tagging metrics exemplars and ring
/// events; 0 = untraced. A batch without a batch-level trace falls back to
/// its first traced item's — the ids all share one shipping pass in
/// practice.
template <typename R>
std::uint64_t trace_id_of(const R& r) {
  if constexpr (std::is_same_v<R, ObserveBatchRequest>) {
    if (r.trace.has_value()) return r.trace->trace_id;
    for (const ObserveItem& item : r.items) {
      if (item.trace.has_value()) return item.trace->trace_id;
    }
    return 0;
  } else if constexpr (requires { r.trace; }) {
    return r.trace.has_value() ? r.trace->trace_id : 0;
  }
  return 0;
}

/// An explicit span parent from a wire trace field; invalid (so the span
/// records nothing) when the frame carried no trace. Server-side spans
/// render on lane 0 — trace-merge separates processes by pid.
obs::SpanContext span_parent(const std::optional<obs::TraceContext>& trace) {
  obs::SpanContext ctx;
  if (trace.has_value()) {
    ctx.trace_id = trace->trace_id;
    ctx.span_id = trace->span_id;
  }
  return ctx;
}

}  // namespace

Server::Server(Options opts) : opts_(std::move(opts)) {
  if (opts_.num_threads == 0) opts_.num_threads = 1;
  // Registered up front: every series scrapes from the first request
  // (zero-valued), and counting never looks a name up.
  for (const CounterSpec& c : kCounters) {
    counters_.push_back(&metrics_.counter(family(c), c.help));
  }
  for (std::size_t i = 0; i < kOpNames.size(); ++i) {
    const Labels op{{"op", kOpNames[i]}};
    ops_[i].requests =
        &metrics_.counter(kRequestsFamily, "Requests handled, by op", op);
    ops_[i].errors = &metrics_.counter(
        kErrorsFamily, "Requests answered with an error, by op", op);
    ops_[i].latency_us = &metrics_.histogram(
        kLatencyFamily, "Request handling latency (microseconds), by op", op);
  }
}

Server::~Server() { stop(); }

bool Server::start(std::string* error) {
  start_time_ = std::chrono::steady_clock::now();
  // Eager registration: the journals' global netd_svc_journal_* families
  // scrape from the first request, zero-valued, instead of popping into
  // existence at their first increment (dashboards hate that).
  register_journal_metrics();
  int bound_port = opts_.endpoint.port;
  listener_ = listen_on(opts_.endpoint, error, &bound_port);
  if (!listener_.valid()) return false;
  opts_.endpoint.port = bound_port;
  if (!opts_.state_dir.empty()) {
    // Durable mode: bump the recovery epoch and rebuild every session
    // from its journal before the first connection can be accepted, so
    // a client never observes a half-recovered server.
    epoch_ = bump_epoch(opts_.state_dir, error);
    if (epoch_ == 0) return false;
    if (::mkdir((opts_.state_dir + "/sessions").c_str(), 0755) != 0 &&
        errno != EEXIST) {
      if (error != nullptr) {
        *error = "mkdir " + opts_.state_dir + "/sessions failed";
      }
      return false;
    }
    if (!recover_sessions(error)) return false;
  }
  if (opts_.fault_plan.enabled()) {
    injector_ = std::make_unique<FaultInjector>(opts_.fault_plan);
  }
  pool_ = std::make_unique<util::ThreadPool>(opts_.num_threads);
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    started_ = true;
  }
  acceptor_ = std::thread([this] { accept_loop(); });
  return true;
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(lifecycle_mu_);
  shutdown_cv_.wait(lock, [this] { return shutdown_requested_; });
}

void Server::stop() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (!started_ || stopped_) {
      stopped_ = true;
      return;
    }
    stopped_ = true;
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
  stopping_.store(true);
  // Unblock the acceptor (shutdown() makes a blocked accept() return on
  // Linux; close alone can leave it parked), then join it so no new
  // connections can be submitted to the pool.
  if (listener_.valid()) ::shutdown(listener_.get(), SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  listener_.reset();
  if (opts_.endpoint.kind == Endpoint::Kind::kUnix) {
    ::unlink(opts_.endpoint.path.c_str());
  }
  // Graceful drain: handlers poll in bounded chunks, notice stopping_ at
  // their next wakeup and exit after finishing the request in hand. Only
  // connections still alive past the drain budget are force-closed.
  if (opts_.drain_timeout_ms > 0) {
    std::unique_lock<std::mutex> lock(conns_mu_);
    conns_cv_.wait_for(lock,
                       std::chrono::milliseconds(opts_.drain_timeout_ms),
                       [this] { return live_conns_.empty(); });
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (int fd : live_conns_) ::shutdown(fd, SHUT_RDWR);
  }
  pool_.reset();  // drains remaining handlers
}

double Server::uptime_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_time_)
      .count();
}

Json stats_document(const std::vector<obs::Sample>& samples,
                    const FaultCounters& faults,
                    std::uint64_t quarantined_trials) {
  const obs::Sample absent;  // a series the samples lack reads as zero
  const auto find = [&samples, &absent](std::string_view name,
                                        const Labels& labels)
      -> const obs::Sample& {
    for (const obs::Sample& s : samples) {
      if (s.name == name && s.labels == labels) return s;
    }
    return absent;
  };
  const auto count = [](const obs::Sample& s) {
    return Json::uinteger(static_cast<std::uint64_t>(s.value));
  };
  Json j = Json::object();
  for (std::size_t i = 0; i <= kDedupHits; ++i) {
    j.set(kCounters[i].key, count(find(family(kCounters[i]), {})));
  }
  j.set("quarantined_trials", Json::uinteger(quarantined_trials));
  j.set("faults", faults.to_json());
  Json ops = Json::object();
  // Sorted samples list each family's ops in name order.
  for (const obs::Sample& req : samples) {
    if (req.name != kRequestsFamily || req.value < 1) continue;
    const auto& h = find(kLatencyFamily, req.labels).hist;
    Json op = Json::object();
    op.set("count", count(req));
    op.set("errors", count(find(kErrorsFamily, req.labels)));
    Json lat_us = Json::object();
    lat_us.set("p50", Json::number(h.percentile(0.5)));
    lat_us.set("p90", Json::number(h.percentile(0.9)));
    lat_us.set("p99", Json::number(h.percentile(0.99)));
    lat_us.set("max", Json::number(h.max()));
    op.set("lat_us", std::move(lat_us));
    ops.set(req.labels.at(0).second, std::move(op));
  }
  j.set("ops", std::move(ops));
  return j;
}

std::string Server::stats_json() const {
  ReadTime now = read_time(opts_, injector_.get());
  Json j = stats_document(metrics_.collect(), now.faults,
                          now.quarantined_trials);
  if (now.campaign) j.set("campaign", std::move(*now.campaign));
  // Appended after the pinned keys so pre-existing consumers see an
  // unchanged prefix. Millisecond resolution keeps the number lexeme
  // short; both values come from the steady clock.
  const double up = uptime_seconds();
  j.set("uptime_seconds", Json::number(std::round(up * 1000.0) / 1000.0));
  // Named to make the clock domain unmistakable: this is
  // steady_clock::time_since_epoch() (typically time since boot), not a
  // wall-clock Unix timestamp.
  j.set("start_monotonic_ms",
        Json::uinteger(static_cast<unsigned long long>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                start_time_.time_since_epoch())
                .count())));
  return j.dump();
}

std::string Server::metrics_prometheus() const {
  const ReadTime now = read_time(opts_, injector_.get());
  std::vector<obs::Sample> samples = metrics_.collect();
  // The only series built by hand: values read at request time.
  const auto add = [&samples](const char* name, const char* help,
                              double value) -> obs::Sample& {
    obs::Sample& s = samples.emplace_back();
    s.name = name;
    s.help = help;
    s.value = value;
    return s;
  };
  add("netd_svc_quarantined_trials_total",
      "Watchdog-quarantined trials in the fronted campaign",
      static_cast<double>(now.quarantined_trials));
  const std::pair<const char*, std::uint64_t> fault_kinds[] = {
      {"delay", now.faults.delays},
      {"drop", now.faults.drops},
      {"truncate", now.faults.truncations},
      {"corrupt", now.faults.corruptions},
      {"reset", now.faults.resets},
  };
  for (const auto& [kind, v] : fault_kinds) {
    add("netd_svc_faults_total", "Chaos faults injected into response frames",
        static_cast<double>(v))
        .labels = {{"kind", kind}};
  }
  add("netd_svc_uptime_seconds",
      "Seconds since the server started (monotonic clock)", uptime_seconds())
      .type = obs::SampleType::kGauge;
  return obs::render_global_prometheus(samples);
}

Response Server::overloaded_response() const {
  return ErrorResponse{"server overloaded, retry later", kErrOverloaded,
                       opts_.retry_after_ms};
}

void Server::accept_loop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listener_.get(), nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) break;
      if (errno == EINTR) continue;
      break;  // listener broken; nothing sensible left to do
    }
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    counters_[kConnections]->inc();
    // Overload shedding: every worker is busy and the waiting line is at
    // its cap — tell the peer to come back instead of queueing unbounded.
    if (opts_.max_pending > 0 && pending_.load() >= opts_.max_pending) {
      counters_[kShedRequests]->inc();
      obs::EventRing::record(obs::EventKind::kShed, "accept");
      (void)write_all(fd, serialize(Response{overloaded_response()}) + "\n",
                      1000);
      ::close(fd);
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      live_conns_.insert(fd);
    }
    pending_.fetch_add(1);
    pool_->submit([this, fd] { serve_connection(fd); });
  }
}

bool Server::send_frame(int fd, const std::string& line) {
  // Response writes get a bounded budget once deadlines are configured,
  // so a peer that stops reading cannot pin the worker in send().
  const int timeout_ms = opts_.idle_timeout_ms > 0 ? opts_.idle_timeout_ms : -1;
  if (injector_ != nullptr) {
    return injector_->write_frame(fd, line + "\n", timeout_ms);
  }
  return write_all(fd, line + "\n", timeout_ms);
}

void Server::serve_connection(int fd) {
  pending_.fetch_sub(1);  // this connection now holds a worker
  LineReader reader(fd, opts_.max_frame_bytes);
  // Poll in bounded chunks so the handler observes stop() promptly even
  // with no idle deadline configured; the deadline itself is accumulated
  // across chunks.
  const int chunk_ms =
      opts_.idle_timeout_ms > 0 ? std::min(opts_.idle_timeout_ms, 100) : 100;
  reader.set_timeout_ms(chunk_ms);
  int idle_ms = 0;
  std::string line;
  bool shutdown_after = false;
  while (!shutdown_after && !stopping_.load()) {
    const LineReader::Status status = reader.read_line(&line);
    if (status == LineReader::Status::kTimeout) {
      idle_ms += chunk_ms;
      if (opts_.idle_timeout_ms > 0 && idle_ms >= opts_.idle_timeout_ms) {
        // Slow loris: no complete frame within the budget. Cut the
        // connection and free this worker for peers that do talk.
        counters_[kIdleTimeouts]->inc();
        break;
      }
      continue;
    }
    idle_ms = 0;
    if (status == LineReader::Status::kEof) break;
    if (status == LineReader::Status::kError) {
      counters_[kDisconnectsMidRequest]->inc();
      break;
    }
    if (status == LineReader::Status::kOversize) {
      counters_[kOversizedFrames]->inc();
      // The stream cannot be resynchronized past an unterminated giant
      // frame; report and drop the connection.
      (void)send_frame(fd, serialize(Response{ErrorResponse{
                               "frame exceeds size cap", kErrBadFrame,
                               std::nullopt}}));
      break;
    }

    const auto t0 = std::chrono::steady_clock::now();
    std::string parse_error;
    const auto req = parse_request(line, &parse_error);
    if (!req) {
      counters_[kMalformedFrames]->inc();
      // bad_frame: the stream is still framed correctly, so a retrying
      // client may resend on this same connection.
      if (!send_frame(fd, serialize(Response{ErrorResponse{
                              "bad request: " + parse_error, kErrBadFrame,
                              std::nullopt}}))) {
        break;
      }
      continue;
    }

    Response rsp;
    try {
      rsp = dispatch(*req);
    } catch (const std::exception& e) {
      rsp = ErrorResponse{std::string("internal error: ") + e.what()};
    } catch (...) {
      rsp = ErrorResponse{"internal error"};
    }
    const bool ok = !std::holds_alternative<ErrorResponse>(rsp);
    shutdown_after = std::holds_alternative<ShutdownRequest>(*req) && ok;
    const bool written = send_frame(fd, serialize(rsp));
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    const std::uint64_t trace_id =
        std::visit([](const auto& r) { return trace_id_of(r); }, *req);
    const OpSeries& op = ops_[req->index()];
    op.latency_us->observe(us);
    if (!ok) op.errors->inc();
    op.requests->inc(1, trace_id);
    if (opts_.slow_request_ms > 0 &&
        us >= static_cast<double>(opts_.slow_request_ms) * 1000.0) {
      obs::EventRing::record(obs::EventKind::kSlowRequest,
                             kOpNames[req->index()], trace_id,
                             static_cast<std::uint64_t>(us));
    }
    if (!written) break;
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    live_conns_.erase(fd);
  }
  conns_cv_.notify_all();
  ::close(fd);
  if (shutdown_after) {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    shutdown_requested_ = true;
    shutdown_cv_.notify_all();
  }
}

Response Server::dispatch(const Request& req) {
  return std::visit([this](const auto& r) { return handle(r); }, req);
}

std::shared_ptr<Server::Session> Server::find_session(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto it = sessions_.find(name);
  return it == sessions_.end() ? nullptr : it->second;
}

// ---------------------------------------------------------------------------
// Durability.

namespace {

/// The source the observe verb's seqs count under. observe_batch rejects
/// an empty `src`, so no agent can share its watermark.
const std::string kObserveSrc;

}  // namespace

Server::Ingested Server::ingest(Session& s, const std::string& src,
                                std::optional<std::uint64_t> seq,
                                const probe::Mesh& mesh,
                                const core::ControlPlaneObs* cp, bool live) {
  Ingested out;
  if (live && seq.has_value()) {
    // Checked before admission: a redelivered round was admitted once,
    // whatever the retry carries.
    const auto it = s.src_acks.find(src);
    if (it != s.src_acks.end() && *seq <= it->second) {
      out.deduped = true;
      return out;
    }
  }
  if (!s.ts.has_baseline()) {
    out.rejected = ErrorResponse{"session has no baseline", kErrNoBaseline};
    return out;
  }
  if (std::string why; !round_fits_baseline(s.ts.baseline(), mesh, &why)) {
    out.rejected = ErrorResponse{std::move(why)};
    return out;
  }
  ++s.round;
  if (const auto diag = s.ts.observe(mesh, cp)) {
    s.diagnosis = core::to_json(diag->graph, diag->result);
    s.diagnosis_round = s.round;
    out.fired = true;
  }
  if (!live) return out;
  if (seq.has_value()) s.src_acks[src] = *seq;
  // Journaled before the response leaves the process: a crash after this
  // point redelivers into the watermark, a crash before it into a round
  // the recovered server never saw — either way applied exactly once as
  // observed by the client. One record per applied batch item (not per
  // batch), so a crash mid-batch keeps exactly the applied prefix.
  if (s.journal != nullptr) {
    journal_append(s, observation_record(src, seq, mesh, cp));
  }
  return out;
}

void Server::set_baseline(Session& s, probe::Mesh mesh) {
  s.ts.set_baseline(std::move(mesh));
  s.round = 0;
  s.diagnosis_round = 0;
  s.diagnosis.clear();
  // New epoch: agents that re-ship a baseline re-ship every observation
  // after it, so stale watermarks must not swallow the redelivery.
  s.src_acks.clear();
}

void Server::count_dedups(const std::string& session, const std::string& src,
                          std::uint64_t trace_id, std::size_t n) {
  counters_[kDedupHits]->inc(n);
  // The deduplicated count rides in the event's dur_us.
  obs::EventRing::record(obs::EventKind::kDedup,
                         src == kObserveSrc ? session : session + "/" + src,
                         trace_id, n);
}

void Server::journal_append(Session& s, const std::string& payload) {
  // Ambient: nests under the handler's rx_* span, so a traced frame's
  // timeline shows how long the WAL write (and its fsync) took.
  obs::Span span("journal_append");
  std::string error;
  if (s.journal->append(payload, &error) == 0) {
    // Durability is best-effort once the disk misbehaves: the session
    // keeps serving from memory (agents see nothing), but a restart now
    // loses it — counted loudly instead of failing the request.
    counters_[kJournalAppendFailures]->inc();
    s.journal.reset();
    return;
  }
  if (s.journal->snapshot_due()) {
    // A failed snapshot commit is survivable (longer replay next start);
    // commit_snapshot itself degrades to continued journaling.
    (void)s.journal->commit_snapshot(
        snapshot_document(s.journal->last_lsn(), s, s.ts), &error);
  }
}

std::unique_ptr<SessionJournal> Server::open_journal(
    const std::string& dir_name, SessionJournal::RecoveryStats* stats,
    std::string* error) const {
  SessionJournal::Options jopts;
  jopts.dir = opts_.state_dir + "/sessions/" + dir_name;
  jopts.fsync = opts_.fsync;
  jopts.snapshot_every = opts_.snapshot_every;
  return SessionJournal::open(std::move(jopts), error, stats);
}

std::shared_ptr<Server::Session> Server::recover_one_session(
    std::unique_ptr<SessionJournal> journal) {
  // open judged the framing; the reader judges the content.
  SessionReader reader(journal->snapshot());
  std::shared_ptr<Session> s;
  auto create = [&s](const SessionConfig& config) {  // decoding resolved it
    s = std::make_shared<Session>(config, config.resolve(nullptr).value());
  };
  if (auto& snap = reader.snapshot) {
    create(snap->state.config);
    static_cast<SessionState&>(*s) = std::move(snap->state);
    if (snap->baseline) {
      s->ts.restore(std::move(*snap->baseline), std::move(snap->fails),
                    std::move(snap->alarmed));
    }
  }
  for (const auto& [lsn, payload] : journal->records()) {
    auto rec = reader.next(lsn, payload);
    if (!rec) break;
    // Admitted, so ingest admits a round too; journals hold no diagnoses.
    if (rec->type == TraceRecord::Type::kConfig) {
      create(rec->config);
    } else if (rec->type == TraceRecord::Type::kBaseline) {
      set_baseline(*s, std::move(rec->mesh));
    } else {
      (void)ingest(*s, kObserveSrc, std::nullopt, rec->mesh,
                   rec->cp ? &*rec->cp : nullptr, /*live=*/false);
    }
    counters_[kJournalReplayedRecords]->inc();
  }
  if (!reader.damage().empty()) {
    std::string error;
    (void)journal->quarantine_all(&error);
    return nullptr;
  }
  s->src_acks = std::move(reader.rules.watermarks);
  journal->drop_replay_buffer();
  s->journal = std::move(journal);
  return s;
}

bool Server::recover_sessions(std::string* error) {
  for (const auto& dir_name : list_session_dirs(opts_.state_dir)) {
    const auto session_name = decode_session_dir(dir_name);
    if (!session_name.has_value()) continue;  // not a directory we wrote
    SessionJournal::RecoveryStats stats;
    std::string open_error;
    auto journal = open_journal(dir_name, &stats, &open_error);
    if (journal == nullptr && !stats.quarantined) {
      if (error != nullptr) *error = open_error;
      return false;
    }
    auto session =
        journal != nullptr ? recover_one_session(std::move(journal)) : nullptr;
    if (session == nullptr) {
      // Damaged framing or content: every file is renamed aside, and this
      // session's agents will re-hello and re-ship.
      counters_[kJournalSessionsQuarantined]->inc();
      obs::EventRing::record(obs::EventKind::kQuarantine, dir_name);
      continue;
    }
    sessions_.emplace(*session_name, std::move(session));
    counters_[kJournalSessionsRecovered]->inc();
  }
  // Recovered sessions count toward sessions_created so the stats verb
  // keeps describing "sessions this server knows", not "hellos served".
  counters_[kSessionsCreated]->inc(sessions_.size());
  return true;
}

Response Server::handle(const HelloRequest& req) {
  obs::Span span("rx_hello", span_parent(req.trace), 0);
  std::string error;
  const auto resolved = req.config.resolve(&error);
  if (!resolved) return ErrorResponse{error};
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto it = sessions_.find(req.session);
  if (it != sessions_.end()) {
    // Attach. A conflicting config would silently change the semantics of
    // everyone else's session, so it is refused rather than adopted.
    if (!(it->second->config == req.config)) {
      return ErrorResponse{"session '" + req.session +
                           "' exists with a different config"};
    }
    return HelloResponse{req.session, false, it->second->config, epoch_};
  }
  if (opts_.max_sessions > 0 && sessions_.size() >= opts_.max_sessions) {
    counters_[kShedRequests]->inc();
    obs::EventRing::record(obs::EventKind::kShed, "hello:" + req.session,
                           trace_id_of(req));
    return overloaded_response();
  }
  auto session = std::make_shared<Session>(req.config, *resolved);
  if (!opts_.state_dir.empty()) {
    // The hello record is the journal's genesis: it carries the config
    // a restarted server needs to re-create the session before replay.
    session->journal =
        open_journal(encode_session_dir(req.session), nullptr, &error);
    if (session->journal != nullptr) {
      journal_append(*session, hello_record(req.config));
    } else {
      // Either IO trouble or a quarantined predecessor; the session runs
      // ephemeral (and a quarantine was already counted by open()).
      counters_[kJournalAppendFailures]->inc();
    }
  }
  sessions_.emplace(req.session, std::move(session));
  counters_[kSessionsCreated]->inc();
  return HelloResponse{req.session, true, req.config, epoch_};
}

Response Server::handle(const SetBaselineRequest& req) {
  obs::Span span("rx_set_baseline", span_parent(req.trace), 0);
  auto session = find_session(req.session);
  if (session == nullptr) {
    return ErrorResponse{"unknown session '" + req.session + "' (hello first)",
                         kErrUnknownSession};
  }
  std::lock_guard<std::mutex> lock(session->mu);
  set_baseline(*session, req.mesh);
  if (session->journal != nullptr) {
    journal_append(*session, baseline_record(req.mesh));
  }
  return SetBaselineResponse{req.mesh.paths.size()};
}

Response Server::handle(const ObserveRequest& req) {
  auto session = find_session(req.session);
  if (session == nullptr) {
    return ErrorResponse{"unknown session '" + req.session + "' (hello first)",
                         kErrUnknownSession};
  }
  // Joins the sender's trace: the explicit parent makes this span (and
  // the ambient observe/solve spans core emits underneath) share the
  // trace id the agent stamped at measurement time.
  obs::Span span("rx_observe", span_parent(req.trace),
                 req.seq.value_or(0));
  const core::ControlPlaneObs* cp = req.cp.has_value() ? &*req.cp : nullptr;
  std::lock_guard<std::mutex> lock(session->mu);
  const Ingested in =
      ingest(*session, kObserveSrc, req.seq, req.mesh, cp, /*live=*/true);
  if (in.rejected) return *in.rejected;
  if (in.deduped) {
    count_dedups(req.session, kObserveSrc, trace_id_of(req), 1);
  }
  // Answered from session state, so a deduplicated retry gets what its
  // round earned: that round is still the latest.
  ObserveResponse rsp{session->round, session->ts.alarmed(), std::nullopt};
  if (!session->diagnosis.empty() &&
      session->diagnosis_round == session->round) {
    rsp.diagnosis = session->diagnosis;
  }
  return rsp;
}

Response Server::handle(const ObserveBatchRequest& req) {
  obs::Span span("rx_observe_batch", span_parent(req.trace), 0);
  auto session = find_session(req.session);
  if (session == nullptr) {
    return ErrorResponse{"unknown session '" + req.session + "' (hello first)",
                         kErrUnknownSession};
  }
  ObserveBatchResponse rsp;
  {
    std::lock_guard<std::mutex> lock(session->mu);
    // The watermark entry is created on first contact so even an empty
    // probe batch from a new source answers ack=0 rather than erroring.
    const std::uint64_t& watermark = session->src_acks[req.src];
    for (const auto& item : req.items) {
      // Each item opens its own span under the trace the agent stamped
      // when the round was measured, so one observation's ship→journal→
      // solve timeline carries one trace id end to end.
      obs::Span item_span("rx_batch_item", span_parent(item.trace),
                          item.seq);
      const core::ControlPlaneObs* cp =
          item.cp.has_value() ? &*item.cp : nullptr;
      const Ingested in =
          ingest(*session, req.src, item.seq, item.mesh, cp, /*live=*/true);
      if (in.rejected) {
        ErrorResponse err = *in.rejected;
        err.message = "batch item seq " + std::to_string(item.seq) + ": " +
                      err.message;
        return err;
      }
      if (in.deduped) {
        ++rsp.deduped;
        continue;
      }
      ++rsp.applied;
      if (in.fired) rsp.diagnosis = session->diagnosis;
    }
    rsp.ack = watermark;
    rsp.round = session->round;
    rsp.alarmed = session->ts.alarmed();
  }
  if (rsp.deduped > 0) {
    count_dedups(req.session, req.src, trace_id_of(req), rsp.deduped);
  }
  return rsp;
}

Response Server::handle(const QueryRequest& req) {
  obs::Span span("rx_query", span_parent(req.trace), 0);
  auto session = find_session(req.session);
  if (session == nullptr) {
    return ErrorResponse{"unknown session '" + req.session + "' (hello first)",
                         kErrUnknownSession};
  }
  std::lock_guard<std::mutex> lock(session->mu);
  QueryResponse rsp{session->diagnosis_round, std::nullopt};
  if (!session->diagnosis.empty()) rsp.diagnosis = session->diagnosis;
  return rsp;
}

Response Server::handle(const StatsRequest&) {
  return StatsResponse{stats_json()};
}

Response Server::handle(const MetricsRequest&) {
  return MetricsResponse{metrics_prometheus()};
}

Response Server::handle(const EventsRequest& req) {
  EventsResponse rsp;
  // The cap bounds one response frame; a tailing client pages with the
  // returned cursor. 0 picks a default small enough for interactive use.
  const std::size_t cap =
      req.cap == 0
          ? 256
          : static_cast<std::size_t>(
                std::min<std::uint64_t>(req.cap, obs::EventRing::kCapacity));
  rsp.events = obs::EventRing::since(req.cursor, cap, &rsp.next_cursor);
  return rsp;
}

Response Server::handle(const ShutdownRequest&) { return ShutdownResponse{}; }

}  // namespace netd::svc
