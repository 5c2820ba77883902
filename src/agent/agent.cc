#include "agent/agent.h"

#include <algorithm>
#include <utility>
#include <variant>
#include <vector>

#include "obs/registry.h"
#include "obs/span.h"
#include "obs/trace_context.h"
#include "probe/sensors.h"
#include "probe/synthetic.h"
#include "svc/codec.h"
#include "svc/socket.h"
#include "topo/generator.h"
#include "util/atomic_file.h"
#include "util/rng.h"

namespace netd::agent {

namespace {

constexpr const char* kBaselineFile = "BASELINE";

struct Counters {
  obs::Counter& rounds;
  obs::Counter& appended;
  obs::Counter& batches;
  obs::Counter& applied;
  obs::Counter& deduped;
  obs::Counter& ship_failures;
  obs::Counter& rehellos;
  obs::Counter& recovered;
  obs::Counter& torn_tails;
  obs::Counter& quarantined;
  obs::Counter& dropped_records;
  obs::Counter& dropped_bytes;
  obs::Gauge& spool_bytes;

  static Counters& get() {
    auto& r = obs::Registry::global();
    static Counters c{
        r.counter("netd_agent_rounds_measured_total",
                  "Observation rounds measured by this agent process"),
        r.counter("netd_agent_records_appended_total",
                  "Records appended to the spool"),
        r.counter("netd_agent_batches_shipped_total",
                  "observe_batch frames acknowledged by the server"),
        r.counter("netd_agent_items_applied_total",
                  "Batch items the server newly applied"),
        r.counter("netd_agent_items_deduped_total",
                  "Batch items the server recognized as redelivery"),
        r.counter("netd_agent_ship_failures_total",
                  "Transport-level ship failures (after client retries)"),
        r.counter("netd_agent_rehellos_total",
                  "Session re-establishments after server amnesia"),
        r.counter("netd_agent_spool_recovered_records_total",
                  "Records recovered from the spool at startup"),
        r.counter("netd_agent_spool_torn_tails_total",
                  "Spool segments truncated at a torn tail during recovery"),
        r.counter("netd_agent_spool_quarantined_total",
                  "Spool segments quarantined as corrupt during recovery"),
        r.counter("netd_agent_spool_dropped_records_total",
                  "Records shed to stay under the spool disk budget"),
        r.counter("netd_agent_spool_dropped_bytes_total",
                  "Bytes shed to stay under the spool disk budget"),
        r.gauge("netd_agent_spool_bytes", "Current spool size on disk"),
    };
    return c;
  }
};

/// The seeded measurement world, built identically by every incarnation
/// of the same agent config.
struct World {
  topo::Topology topology;
  probe::Mesh baseline;
  std::vector<probe::Sensor> sensors;
  topo::LinkId victim{};
  bool has_victim = false;
};

World build_world(const AgentConfig& cfg) {
  topo::GeneratorParams p;
  p.seed = cfg.topo_seed;
  p.target_ases = cfg.ases;
  p.pool_tier2 = cfg.tier2;
  p.pool_stubs = cfg.stubs;
  World w{topo::generate(p), {}, {}, {}, false};
  util::Rng prng(cfg.placement_seed);
  const std::size_t n = std::min(
      cfg.sensors,
      probe::placement_capacity(w.topology, probe::PlacementKind::kRandomStub));
  w.sensors = probe::place_sensors(w.topology,
                                   probe::PlacementKind::kRandomStub, n, prng);
  {
    const probe::SyntheticProber prober(w.topology, w.sensors);
    w.baseline = prober.measure();
  }
  if (cfg.fail_round > 0) {
    const auto pool = w.baseline.probed_links();
    if (!pool.empty()) {
      util::Rng frng(cfg.fail_seed);
      w.victim = frng.pick(pool);
      w.has_victim = true;
    }
    // Prefer a single-homed sensor's only uplink: failing a random probed
    // link usually just reroutes, and raises no alarm.
    if (const auto lone = probe::lone_uplink(w.topology, w.sensors)) {
      w.victim = *lone;
      w.has_victim = true;
    }
  }
  return w;
}

/// Seed of this agent's per-round trace roots. Derived from (client
/// seed, agent name) so every incarnation of the same agent config —
/// including one restarted after a crash — re-derives the *same* trace
/// id for a given round: a redelivered item joins the trace the
/// original measurement started.
std::uint64_t trace_seed(const AgentConfig& cfg) {
  return obs::ids::combine(cfg.client.seed, obs::ids::fnv1a(cfg.name.c_str()));
}

/// The round's trace root as a span parent (lane 0).
obs::SpanContext trace_parent(const obs::TraceContext& tc) {
  return obs::SpanContext{tc.trace_id, tc.span_id, 0};
}

std::string round_payload(std::size_t round, const probe::Mesh& mesh) {
  std::string out = "{\"round\":";
  util::append_json_uint(out, round);
  out += ",\"mesh\":";
  svc::append_mesh(out, mesh);
  out += '}';
  return out;
}

std::optional<probe::Mesh> payload_mesh(std::string_view payload,
                                        std::string* error) {
  auto doc = svc::parse_mesh_doc(payload, "mesh", /*items=*/false, error);
  if (!doc.has_value()) return std::nullopt;
  if (doc->mesh.state == svc::MeshMember::State::kAbsent) {
    if (error != nullptr) *error = "spool payload has no mesh";
    return std::nullopt;
  }
  return doc->mesh.take(error);
}

}  // namespace

std::optional<probe::Mesh> Agent::load_baseline(std::string* error) const {
  const auto doc =
      util::read_file(cfg_.spool_dir + "/" + kBaselineFile, error);
  if (!doc.has_value()) return std::nullopt;
  return svc::parse_mesh(*doc, error);
}

bool Agent::generate(Spool& spool, std::string* error) {
  auto& counters = Counters::get();
  const std::uint64_t done = spool.last_seq();
  const std::string baseline_path = cfg_.spool_dir + "/" + kBaselineFile;
  const bool have_baseline = util::file_size(baseline_path).has_value();
  if (done >= cfg_.rounds && have_baseline) return true;

  World w = build_world(cfg_);
  if (!have_baseline) {
    // Durable before any round: an epoch reset re-ships baseline-first,
    // so the baseline must survive every crash the spool survives.
    std::string baseline;
    svc::append_mesh(baseline, w.baseline);
    if (!util::atomic_write_file(baseline_path, baseline, error)) {
      return false;
    }
  }
  const probe::SyntheticProber prober(w.topology, w.sensors);
  for (std::size_t r = 1; r <= cfg_.rounds; ++r) {
    // Replay the failure schedule even for rounds an earlier incarnation
    // measured: the topology state at round r must not depend on where
    // the previous process died.
    if (w.has_victim && r == cfg_.fail_round) {
      w.topology.set_link_up(w.victim, false);
    }
    if (r <= done) continue;
    // The round's trace starts here: measure + spool-append under the
    // same deterministic root its batch item (and the server's rx_*
    // spans) will carry.
    const obs::TraceContext tc = obs::TraceContext::root(trace_seed(cfg_), r);
    obs::Span span("spool", trace_parent(tc), r);
    const probe::Mesh mesh = prober.measure();
    counters.rounds.inc();
    const std::uint64_t seq = spool.append(round_payload(r, mesh), error);
    if (seq == 0) return false;
    counters.appended.inc();
    ++summary_.generated;
  }
  counters.spool_bytes.set(static_cast<double>(spool.bytes()));
  return true;
}

bool Agent::ship(Spool& spool, std::string* error, bool* fatal) {
  auto& counters = Counters::get();
  *fatal = false;
  std::string ep_error;
  const auto ep = svc::Endpoint::parse(cfg_.endpoint, &ep_error);
  if (!ep.has_value()) {
    if (error != nullptr) *error = ep_error;
    *fatal = true;
    return false;
  }
  svc::SessionConfig scfg;
  scfg.alarm_threshold = cfg_.alarm_threshold;
  scfg.algo = cfg_.algo;
  scfg.granularity = cfg_.granularity;

  std::string cerror;
  auto client = svc::Client::connect(*ep, cfg_.client, &cerror);
  if (!client.has_value()) {
    counters.ship_failures.inc();
    if (error != nullptr) *error = cerror;
    return false;
  }

  const std::uint64_t target = spool.last_seq();
  bool need_hello = true;
  bool need_baseline = false;
  bool have_ack = false;
  std::uint64_t ack = 0;
  std::size_t failures = 0;

  const auto transport_failed = [&](const std::string& what) {
    counters.ship_failures.inc();
    ++failures;
    // The batch may have been applied before the response was lost;
    // re-probe the watermark rather than trusting the local ack.
    have_ack = false;
    if (failures >= cfg_.ship_max_failures) {
      if (error != nullptr) *error = what;
      return true;  // give up
    }
    return false;
  };
  // Handles the two server-amnesia codes every ship-path response can
  // carry. Returns true when the error was absorbed into the state
  // machine; false means it is fatal.
  const auto absorb_error = [&](const svc::ErrorResponse& err) {
    if (err.code == svc::kErrUnknownSession) {
      need_hello = true;
      have_ack = false;
      ++summary_.rehellos;
      counters.rehellos.inc();
      return true;
    }
    if (err.code == svc::kErrNoBaseline) {
      need_baseline = true;
      have_ack = false;
      return true;
    }
    return false;
  };

  for (;;) {
    if (need_hello) {
      std::string herror;
      auto rsp = client->call(
          svc::Request{svc::HelloRequest{
              cfg_.session, scfg,
              obs::TraceContext::root(trace_seed(cfg_), 0)}},
          &herror);
      if (!rsp.has_value()) {
        if (transport_failed(herror)) return false;
        continue;
      }
      if (const auto* err = std::get_if<svc::ErrorResponse>(&*rsp)) {
        if (error != nullptr) *error = "hello: " + err->message;
        *fatal = true;
        return false;
      }
      need_hello = false;
      failures = 0;
      continue;
    }
    if (need_baseline) {
      std::string berror;
      const auto mesh = load_baseline(&berror);
      if (!mesh.has_value()) {
        if (error != nullptr) *error = "baseline: " + berror;
        *fatal = true;
        return false;
      }
      auto rsp = client->call(
          svc::Request{svc::SetBaselineRequest{
              cfg_.session, *mesh,
              obs::TraceContext::root(trace_seed(cfg_), 0)}},
          &berror);
      if (!rsp.has_value()) {
        if (transport_failed(berror)) return false;
        continue;
      }
      if (const auto* err = std::get_if<svc::ErrorResponse>(&*rsp)) {
        if (absorb_error(*err)) continue;
        if (error != nullptr) *error = "set_baseline: " + err->message;
        *fatal = true;
        return false;
      }
      // Epoch reset: the baseline cleared every watermark; re-probe.
      need_baseline = false;
      have_ack = false;
      failures = 0;
      continue;
    }

    // Watermark probe (empty batch) or a real drain batch.
    svc::ObserveBatchRequest req{cfg_.session, cfg_.name, {}, std::nullopt};
    if (have_ack && ack < target) {
      std::string serror;
      bool parse_failed = false;
      const bool ok = spool.for_each(
          ack,
          [&](std::uint64_t seq, std::string_view payload) {
            std::string perror;
            auto mesh = payload_mesh(payload, &perror);
            if (!mesh.has_value()) {
              serror = "spool seq " + std::to_string(seq) + ": " + perror;
              parse_failed = true;
              return false;
            }
            req.items.push_back(svc::ObserveItem{
                seq, std::move(*mesh), std::nullopt,
                obs::TraceContext::root(trace_seed(cfg_), seq)});
            return req.items.size() < cfg_.batch_max_items;
          },
          &serror);
      if (!ok || parse_failed) {
        if (error != nullptr) *error = serror;
        *fatal = true;
        return false;
      }
      if (req.items.empty()) {
        // Everything above the ack was shed from the spool: nothing left
        // to deliver. The drop counters already told the story.
        break;
      }
    }
    std::string xerror;
    std::optional<svc::Response> rsp;
    if (!req.items.empty() && req.items.front().trace.has_value()) {
      // The ship span joins the first item's trace, so one trace id links
      // spool → ship on the agent to rx_* → journal → solve on the server.
      req.trace = req.items.front().trace;
      obs::Span ship_span("ship", trace_parent(*req.trace),
                          req.items.front().seq);
      rsp = client->call(svc::Request{req}, &xerror);
    } else {
      rsp = client->call(svc::Request{req}, &xerror);
    }
    if (!rsp.has_value()) {
      if (transport_failed(xerror)) return false;
      continue;
    }
    if (const auto* err = std::get_if<svc::ErrorResponse>(&*rsp)) {
      if (absorb_error(*err)) continue;
      if (error != nullptr) *error = "observe_batch: " + err->message;
      *fatal = true;
      return false;
    }
    const auto* batch = std::get_if<svc::ObserveBatchResponse>(&*rsp);
    if (batch == nullptr) {
      if (error != nullptr) *error = "observe_batch: unexpected response";
      *fatal = true;
      return false;
    }
    failures = 0;
    ack = batch->ack;
    have_ack = true;
    summary_.acked = ack;
    summary_.round = batch->round;
    summary_.alarmed = batch->alarmed;
    if (batch->diagnosis.has_value()) summary_.diagnosis = batch->diagnosis;
    if (!req.items.empty()) {
      ++summary_.batches;
      counters.batches.inc();
      summary_.applied += batch->applied;
      counters.applied.inc(batch->applied);
      summary_.deduped += batch->deduped;
      counters.deduped.inc(batch->deduped);
      std::string merror;
      if (!spool.mark_shipped(ack, &merror)) {
        if (error != nullptr) *error = merror;
        *fatal = true;
        return false;
      }
    }
    if (ack >= target) break;
  }

  // Best-effort: surface the session's diagnosis even when it fired in a
  // previous incarnation's batch.
  if (!summary_.diagnosis.has_value()) {
    std::string qerror;
    auto rsp = client->call(
        svc::Request{svc::QueryRequest{cfg_.session, std::nullopt}}, &qerror);
    if (rsp.has_value()) {
      if (const auto* q = std::get_if<svc::QueryResponse>(&*rsp)) {
        summary_.diagnosis = q->diagnosis;
      }
    }
  }
  counters.spool_bytes.set(static_cast<double>(spool.bytes()));
  return true;
}

int Agent::run(std::string* error) {
  auto& counters = Counters::get();
  if (cfg_.spool_dir.empty()) {
    if (error != nullptr) *error = "agent requires a spool directory";
    return kExitError;
  }
  Spool::Options sopts;
  sopts.dir = cfg_.spool_dir;
  sopts.max_segment_bytes = cfg_.spool_segment_bytes;
  sopts.max_spool_bytes = cfg_.spool_budget_bytes;
  sopts.fsync_each = cfg_.spool_fsync_each;
  sopts.retain_acked = cfg_.retain_acked;
  auto spool = Spool::open(std::move(sopts), error, &summary_.recovery);
  if (spool == nullptr) return kExitError;
  counters.recovered.inc(summary_.recovery.records);
  counters.torn_tails.inc(summary_.recovery.torn_tails);
  counters.quarantined.inc(summary_.recovery.quarantined);

  if (!generate(*spool, error)) return kExitError;
  summary_.spooled = spool->last_seq();
  summary_.dropped = spool->dropped();
  counters.dropped_records.inc(spool->dropped().records);
  counters.dropped_bytes.inc(spool->dropped().bytes);
  if (cfg_.generate_only) return kExitOk;

  bool fatal = false;
  const bool shipped = ship(*spool, error, &fatal);
  summary_.dropped = spool->dropped();
  if (!shipped) return fatal ? kExitError : kExitUnreachable;
  return kExitOk;
}

}  // namespace netd::agent
