// The diagnosis service daemon: accepts protocol connections and drives
// one core::Troubleshooter per named session.
//
// Threading model: a dedicated acceptor thread hands each connection to
// the shared util::ThreadPool; a connection occupies one worker for its
// lifetime (blocking line IO), so `num_threads` bounds the number of
// concurrently served connections — further connections queue in the
// pool. Sessions are create-or-attach by name: any connection may feed or
// query any session, which is what lets a prober fleet share one
// troubleshooter state. Per-session mutexes serialize observation rounds;
// a registry mutex guards the name table; counting takes no lock (the
// server's own obs::Registry). Nothing a peer sends — malformed frames,
// oversized frames, a disconnect mid-request — can take the server down:
// bad frames earn an ErrorResponse (or a teardown of that one connection),
// never a crash.
//
// Fault tolerance on top of that baseline:
//   - idle deadline: a worker polls instead of blocking; a peer that
//     fails to deliver a complete frame within idle_timeout_ms (stalled,
//     drip-feeding, or simply silent) is disconnected and the worker
//     freed, so slow-loris peers cannot pin the pool.
//   - overload shedding: connections beyond the bounded pending queue
//     and sessions beyond max_sessions earn a structured `overloaded`
//     ErrorResponse carrying retry_after_ms instead of unbounded queueing.
//   - exactly-once ingest: each session keeps one ack watermark per
//     source — an agent's `src`, or "" for the observe verb — and skips a
//     sequenced observation at or below it, so retries and redeliveries
//     apply each round once. This holds for one seq-stamping observe
//     client per session between baselines; a fleet ships observe_batch,
//     each agent under its own `src`.
//   - graceful drain: stop() lets in-flight requests finish (workers
//     notice the stop at their next poll wakeup) before force-closing
//     whatever remains past drain_timeout_ms.
//   - chaos: an optional FaultPlan injects seeded faults into every
//     response written, with counts surfaced through the stats verb.
//   - durability: with a state directory configured, every session
//     mutation is appended to a per-session write-ahead journal (and
//     periodically folded into a snapshot) before the response is sent,
//     so a restarted server recovers every session to byte-identical
//     diagnosis state — including the per-(session, src) ack watermarks
//     that make redelivered batches dedup with zero re-ingest. A corrupt
//     journal is quarantined (never deleted) and that one session falls
//     back to the protocol's amnesia path (unknown_session → re-hello →
//     re-ship); a journal that stops accepting writes degrades the
//     session to ephemeral rather than failing requests.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <optional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/troubleshooter.h"
#include "obs/registry.h"
#include "svc/fault.h"
#include "svc/journal.h"
#include "svc/protocol.h"
#include "svc/socket.h"
#include "util/thread_pool.h"

namespace netd::svc {

class Server {
 public:
  struct Options {
    Endpoint endpoint;
    /// Worker threads (= max concurrently served connections).
    std::size_t num_threads = 8;
    /// Per-frame byte cap (connection is closed when exceeded).
    std::size_t max_frame_bytes = kMaxFrameBytes;
    /// Budget, per connection, for one complete request frame to arrive;
    /// exceeded => the connection is cut and its worker freed. 0 = never.
    int idle_timeout_ms = 0;
    /// Accepted connections allowed to wait for a free worker; beyond
    /// this the acceptor sheds with `overloaded` + retry_after_ms.
    /// 0 = unbounded (legacy behavior).
    std::size_t max_pending = 0;
    /// Cap on concurrently existing sessions; further hellos that would
    /// create one are shed with `overloaded`. 0 = unbounded.
    std::size_t max_sessions = 0;
    /// stop(): how long in-flight requests may finish before their
    /// connections are force-closed.
    int drain_timeout_ms = 2000;
    /// Advertised in `overloaded` responses.
    std::uint64_t retry_after_ms = 100;
    /// Requests slower than this land in the obs::EventRing (tagged with
    /// their trace id) for `netdiag tail`. 0 = no slow-request events.
    int slow_request_ms = 0;
    /// Chaos: seeded faults injected into every response frame written.
    /// Disabled (all probabilities zero) in production.
    FaultPlan fault_plan;
    /// Durability root. Empty = ephemeral server (legacy behavior).
    /// Non-empty: sessions are journaled under <state_dir>/sessions and
    /// recovered on start(); the recovery epoch is advertised in hello.
    std::string state_dir;
    /// When journal appends reach the disk (see FsyncPolicy). kBatch
    /// survives SIGKILL; kAlways additionally survives power loss.
    FsyncPolicy fsync = FsyncPolicy::kBatch;
    /// Journal records between snapshots; bounds replay time on restart.
    std::size_t snapshot_every = 256;
    /// When set, the stats verb merges this provider's document under a
    /// "campaign" key, and both verbs mirror its "quarantined" count as
    /// quarantined_trials — how a server fronting a checkpointed
    /// experiment campaign surfaces its progress. Called outside any lock
    /// on every stats and metrics request; must be thread-safe.
    std::function<Json()> campaign_stats;
  };

  explicit Server(Options opts);
  /// Stops and joins everything still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the acceptor. False (with `error`) when the
  /// endpoint cannot be bound.
  [[nodiscard]] bool start(std::string* error);

  /// Blocks until stop() is called or a client sends `shutdown`.
  void wait();

  /// Idempotent; unblocks wait(), closes the listener and all live
  /// connections, drains the pool.
  void stop();

  /// Endpoint actually bound (TCP port resolved when 0 was requested).
  [[nodiscard]] const Endpoint& endpoint() const { return opts_.endpoint; }

  /// Current metrics as the stats-verb JSON document: stats_document over
  /// this server's registry, then the campaign document (when a provider
  /// is set), then `uptime_seconds` and `start_monotonic_ms` (both
  /// steady-clock derived, so replay determinism is unaffected; the name
  /// says monotonic so nobody reads it as a Unix timestamp).
  [[nodiscard]] std::string stats_json() const;

  /// Current metrics in Prometheus text exposition format: the global
  /// obs registry merged with this server's (netd_svc_*), plus the
  /// read-time quarantined, fault and uptime series. Backs the `metrics`
  /// verb.
  [[nodiscard]] std::string metrics_prometheus() const;

 private:
  /// The state a SNAPSHOT stores, troubleshooter and journal, under `mu`.
  struct Session : SessionState {
    std::mutex mu;
    core::Troubleshooter ts;
    /// Write-ahead journal. Null when the server is ephemeral or this
    /// session's journal failed and was degraded to in-memory-only.
    std::unique_ptr<SessionJournal> journal;

    Session(SessionConfig cfg, core::Troubleshooter::Config resolved)
        : ts(resolved) {
      config = std::move(cfg);
    }
  };

  void accept_loop();
  void serve_connection(int fd);
  /// Response write path; routes through the fault injector when chaos
  /// is armed. False = connection must be torn down.
  [[nodiscard]] bool send_frame(int fd, const std::string& line);
  [[nodiscard]] Response dispatch(const Request& req);
  [[nodiscard]] Response overloaded_response() const;

  Response handle(const HelloRequest& req);
  Response handle(const SetBaselineRequest& req);
  Response handle(const ObserveRequest& req);
  Response handle(const ObserveBatchRequest& req);
  Response handle(const QueryRequest& req);
  Response handle(const StatsRequest& req);
  Response handle(const MetricsRequest& req);
  Response handle(const EventsRequest& req);
  Response handle(const ShutdownRequest& req);

  [[nodiscard]] std::shared_ptr<Session> find_session(const std::string& name);

  // --- ingest and durability ---------------------------------------------
  /// What ingest() did with one observation.
  struct Ingested {
    bool deduped = false;  ///< skipped: its seq is at or below the watermark
    bool fired = false;    ///< applied, and the round fired `s.diagnosis`
    std::optional<ErrorResponse> rejected;  ///< not admitted; nothing changed
  };
  /// The one path an observation takes into a session: an observe (from
  /// the reserved source ""), each observe_batch item, and each journal
  /// record replayed at recovery. A `live` observation whose seq is at or
  /// below its source's watermark is skipped. Otherwise it must be
  /// admitted — the session holds a baseline and the mesh covers the
  /// baseline's (src, dst) pairs in the baseline's order — and is
  /// applied; a live one then moves its source's watermark and is
  /// journaled (recovery takes the watermarks SessionReader folds).
  /// Caller holds `s.mu`.
  Ingested ingest(Session& s, const std::string& src,
                  std::optional<std::uint64_t> seq, const probe::Mesh& mesh,
                  const core::ControlPlaneObs* cp, bool live);
  /// Starts a new epoch on `mesh`: the live set_baseline and its replay.
  static void set_baseline(Session& s, probe::Mesh mesh);
  /// Counts `n` sequenced observations from `src` skipped as already
  /// applied: the dedup_hits counter and one event-ring entry.
  void count_dedups(const std::string& session, const std::string& src,
                    std::uint64_t trace_id, std::size_t n);
  /// Appends one record to the session's journal, which must be set, and
  /// commits a snapshot when one is due. An append failure degrades the
  /// session to ephemeral — requests keep working, durability stops.
  /// Caller holds `s.mu` (or owns the session exclusively). Callers build
  /// the record only for a journaled session.
  void journal_append(Session& s, const std::string& payload);
  /// start()-time recovery: sweeps <state_dir>/sessions and rebuilds
  /// every recoverable session; corrupt journals are quarantined and
  /// their sessions left unregistered (amnesia). Only IO failures that
  /// make the state dir unusable return false.
  [[nodiscard]] bool recover_sessions(std::string* error);
  /// Rebuilds one session from its journal, judged and applied one
  /// record at a time by a SessionReader; nullptr = quarantined.
  [[nodiscard]] std::shared_ptr<Session> recover_one_session(
      std::unique_ptr<SessionJournal> journal);
  /// Opens the journal under <state_dir>/sessions/<dir_name>.
  [[nodiscard]] std::unique_ptr<SessionJournal> open_journal(
      const std::string& dir_name, SessionJournal::RecoveryStats* stats,
      std::string* error) const;

  [[nodiscard]] double uptime_seconds() const;

  /// One op's series, labeled {op="..."}; indexed by Request::index().
  struct OpSeries {
    obs::Counter* requests;
    obs::Counter* errors;
    obs::Histogram* latency_us;
  };

  Options opts_;
  /// This server's instruments, all registered by the constructor;
  /// declared before everything that counts into them.
  obs::Registry metrics_;
  std::vector<obs::Counter*> counters_;
  std::array<OpSeries, std::variant_size_v<Request>> ops_{};
  Fd listener_;
  /// Recovery epoch (0 = ephemeral server); bumped in start().
  std::uint64_t epoch_ = 0;
  /// Monotonic birth time: uptime_seconds and the stats verb's
  /// `start_monotonic_ms` derive from the steady clock, never wall
  /// clock.
  std::chrono::steady_clock::time_point start_time_{};
  std::unique_ptr<util::ThreadPool> pool_;
  std::thread acceptor_;
  std::unique_ptr<FaultInjector> injector_;  ///< armed only under chaos
  /// Accepted connections still waiting for a worker to pick them up.
  std::atomic<std::size_t> pending_{0};

  std::mutex registry_mu_;
  std::map<std::string, std::shared_ptr<Session>> sessions_;

  std::mutex lifecycle_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  bool stopped_ = false;

  std::mutex conns_mu_;
  std::condition_variable conns_cv_;  ///< signaled when a connection ends
  std::set<int> live_conns_;
};

/// The stats verb's document over a server registry's samples (sorted, as
/// Registry::collect() returns them) and two values read per request:
/// {"connections":N,...,"quarantined_trials":Q,"faults":{...},"ops":{"<op>":
/// {"count":n,"errors":e,"lat_us":{"p50":..,"p90":..,"p99":..,"max":..}},...}}
/// with ops in name order once requested. A golden test pins the bytes.
[[nodiscard]] Json stats_document(const std::vector<obs::Sample>& samples,
                                  const FaultCounters& faults,
                                  std::uint64_t quarantined_trials);

}  // namespace netd::svc
