// Process-wide metrics registry: counters, gauges and fixed-memory
// histograms registered by name (+ optional labels), rendered in
// Prometheus text exposition format.
//
// Design constraints, in order:
//   1. Hot-path cost. Counter::inc is one relaxed fetch_add; Gauge::set
//      one relaxed store. Histogram::observe locks, but the lock is
//      sharded by thread (8 cache-line-aligned shards).
//      Instruments are looked up once (function-local static references
//      at the call site) so the registry mutex is off the steady path.
//   2. Compile-out. Configuring with -DNETD_OBS=OFF defines
//      NETD_OBS_DISABLED, turning every mutating fast path into an empty
//      inline function the optimizer deletes. Registration, collection
//      and rendering keep working (instruments simply read as zero), so
//      the `metrics` wire verb and --metrics-out stay functional in both
//      configurations — only the numbers go dark.
//   3. No teardown hazards. The global registry is a leaky function-local
//      static; its instruments live forever once registered, so references
//      cached at call sites never dangle, including during static
//      destruction of other objects. An owned registry (one per
//      svc::Server) keeps its instruments exactly as long as it lives.
//
// Gauges and counters are safe to mutate from any thread with no external
// locking; collect() takes a consistent-enough snapshot (each value is
// read atomically; cross-metric skew is acceptable for monitoring).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/stats.h"

namespace netd::obs {

/// Monotonically increasing event count, optionally carrying an exemplar:
/// the trace id of its last traced increment.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) noexcept {
#ifndef NETD_OBS_DISABLED
    v_.fetch_add(delta, std::memory_order_relaxed);
#else
    (void)delta;
#endif
  }
  /// inc(delta) that also makes a nonzero `trace_id` the exemplar; a zero
  /// id keeps the previous one.
  void inc(std::uint64_t delta, std::uint64_t trace_id) noexcept {
    inc(delta);
#ifndef NETD_OBS_DISABLED
    if (trace_id != 0) exemplar_.store(trace_id, std::memory_order_relaxed);
#endif
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  /// Trace id of the last traced increment; 0 = none yet.
  [[nodiscard]] std::uint64_t exemplar() const noexcept {
    return exemplar_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
  std::atomic<std::uint64_t> exemplar_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) noexcept {
#ifndef NETD_OBS_DISABLED
    v_.store(v, std::memory_order_relaxed);
#else
    (void)v;
#endif
  }
  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

/// Lock-sharded distribution built on util::Histogram (fixed memory,
/// exponential buckets). Each thread hashes to one of kShards shards, so
/// concurrent observers rarely contend; snapshot() merges the shards.
class Histogram {
 public:
  static constexpr std::size_t kShards = 8;

  Histogram(double lo, double growth, std::size_t buckets);

  /// Records x into the calling thread's shard.
  void observe(double x) noexcept;

  /// Merged view of all shards.
  [[nodiscard]] util::Histogram snapshot() const;

 private:
  struct alignas(64) Shard {
    mutable std::mutex mu;
    util::Histogram h;
    explicit Shard(double lo, double growth, std::size_t buckets)
        : h(lo, growth, buckets) {}
  };

  double lo_, growth_;
  std::size_t buckets_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

enum class SampleType { kCounter, kGauge, kHistogram };

/// One collected time-series point, decoupled from the live instruments
/// so renderers can mix several registries' output (the global one and a
/// server's own) with the few values computed at read time (a server's
/// uptime, fault and quarantine counts).
struct Sample {
  std::string name;  ///< Prometheus metric name, e.g. "netd_solve_total"
  std::string help;  ///< one-line # HELP text ("" = omit)
  SampleType type = SampleType::kCounter;
  /// Label pairs, rendered in the order given, e.g. {{"op","observe"}}.
  std::vector<std::pair<std::string, std::string>> labels;
  double value = 0.0;             ///< counters and gauges
  util::Histogram hist;           ///< histograms (value unused)
  /// Nonzero => the sample line carries an OpenMetrics-style exemplar
  /// (` # {trace_id="0x..."} 1`) linking the series to one concrete
  /// trace; collect() copies it from Counter::exemplar(). Counters and
  /// gauges only; the numeric value stays the last space-separated
  /// token, so plain Prometheus line parsers keep working if they strip
  /// everything from " # " on.
  std::uint64_t exemplar_trace_id = 0;
};

/// Name + labels registry. register-once, mutate-forever: repeated calls
/// with the same (name, labels) return the same instrument. Re-registering
/// an existing (name, labels) under a different type is a programmer error
/// and aborts — silently reusing the entry would emit a TYPE line that
/// lies about the value shape.
class Registry {
 public:
  /// The process-wide registry every instrumented subsystem uses.
  [[nodiscard]] static Registry& global();

  /// A registry of the caller's own (one per svc::Server, so two servers
  /// in one process never share counts); its instruments die with it.
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  [[nodiscard]] Counter& counter(
      std::string_view name, std::string_view help,
      std::vector<std::pair<std::string, std::string>> labels = {});
  [[nodiscard]] Gauge& gauge(
      std::string_view name, std::string_view help,
      std::vector<std::pair<std::string, std::string>> labels = {});
  /// Bucket shape as util::Histogram: lo/growth/buckets.
  [[nodiscard]] Histogram& histogram(
      std::string_view name, std::string_view help,
      std::vector<std::pair<std::string, std::string>> labels = {},
      double lo = 1.0, double growth = 2.0, std::size_t buckets = 28);

  /// Snapshot of every registered instrument, ordered by (name, labels)
  /// so rendering is deterministic.
  [[nodiscard]] std::vector<Sample> collect() const;

 private:
  struct Entry {
    std::string name;
    std::string help;
    SampleType type;
    std::vector<std::pair<std::string, std::string>> labels;
    std::string key;  ///< name + rendered labels, the identity
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> hist;
  };

  Entry& find_or_create(
      std::string_view name, std::string_view help, SampleType type,
      std::vector<std::pair<std::string, std::string>> labels);

  mutable std::mutex mu_;
  /// unique_ptr entries so instrument addresses are stable across growth.
  std::vector<std::unique_ptr<Entry>> entries_;
};

/// Renders samples in Prometheus text exposition format (# HELP / # TYPE,
/// families grouped, histograms as cumulative _bucket{le=}/_sum/_count).
/// Input order is preserved within a family; families appear in first-seen
/// order. A trailing newline terminates the document.
[[nodiscard]] std::string render_prometheus(const std::vector<Sample>& samples);

/// Registry::global().collect() + extras, merged, re-sorted by
/// (name, labels) so families stay contiguous even when extras share a
/// namespace with registry instruments, and rendered.
[[nodiscard]] std::string render_global_prometheus(
    const std::vector<Sample>& extras = {});

}  // namespace netd::obs
