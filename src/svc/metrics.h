// Request/latency accounting for the diagnosis service, surfaced by the
// protocol's `stats` verb.
//
// One util::Histogram per op keeps latency percentiles in fixed memory
// (the server is long-lived; a sample-keeping Summary would grow without
// bound). The server serializes access with its own mutex; this type is
// plain data plus formatting.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "svc/fault.h"
#include "svc/json.h"
#include "util/stats.h"

namespace netd::svc {

struct ServiceMetrics {
  struct PerOp {
    std::uint64_t count = 0;
    std::uint64_t errors = 0;
    /// Wall-clock request handling time in microseconds.
    util::Histogram latency_us;
    /// Trace id of the most recent traced request for this op (0 = none
    /// seen); rendered as an exemplar on the Prometheus families so a
    /// dashboard spike links straight to one concrete trace.
    std::uint64_t exemplar_trace_id = 0;
  };

  /// Keyed by op name; ordered so stats output is stable.
  std::map<std::string, PerOp> ops;
  std::uint64_t connections = 0;        ///< accepted connections, lifetime
  std::uint64_t sessions_created = 0;
  std::uint64_t malformed_frames = 0;   ///< frames that failed to parse
  std::uint64_t oversized_frames = 0;   ///< frames over the size cap
  std::uint64_t disconnects_mid_request = 0;
  std::uint64_t idle_timeouts = 0;      ///< connections cut by the idle deadline
  std::uint64_t shed_requests = 0;      ///< refused with `overloaded`
  /// Sequenced observations (observe or batch item) skipped because their
  /// seq was at or below their source's watermark: already applied.
  std::uint64_t dedup_hits = 0;
  /// Watchdog-quarantined trials in the campaign this server fronts
  /// (mirrored from the campaign checkpoint; 0 when none is attached).
  std::uint64_t quarantined_trials = 0;
  /// Faults the server's own injector fired (chaos runs; all zero in
  /// production).
  FaultCounters faults;

  void record(const std::string& op, bool ok, double latency_us,
              std::uint64_t trace_id = 0);

  /// {"connections":N,...,"faults":{...},"ops":{"observe":{"count":n,
  ///   "errors":e,"lat_us":{"p50":..,"p90":..,"p99":..,"max":..}},...}}
  /// This rendering is pinned byte-for-byte by a golden test — the stats
  /// verb's document must not drift across releases.
  [[nodiscard]] Json to_json() const;

  /// The same numbers as obs samples ("netd_svc_*"), the bridge that lets
  /// the Prometheus `metrics` verb expose a server's ServiceMetrics next
  /// to the registry instruments: lifetime counters, per-op
  /// count/error/latency series labeled {op="..."}, fault counters
  /// labeled {kind="..."}.
  [[nodiscard]] std::vector<obs::Sample> to_samples() const;
};

}  // namespace netd::svc
