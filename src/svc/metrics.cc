#include "svc/metrics.h"

#include "obs/trace_context.h"

namespace netd::svc {

void ServiceMetrics::record(const std::string& op, bool ok, double latency_us,
                            std::uint64_t trace_id) {
  PerOp& p = ops[op];
  ++p.count;
  if (!ok) ++p.errors;
  p.latency_us.add(latency_us);
  if (trace_id != 0) p.exemplar_trace_id = trace_id;
}

Json ServiceMetrics::to_json() const {
  Json j = Json::object();
  j.set("connections", Json::uinteger(connections));
  j.set("sessions_created", Json::uinteger(sessions_created));
  j.set("malformed_frames", Json::uinteger(malformed_frames));
  j.set("oversized_frames", Json::uinteger(oversized_frames));
  j.set("disconnects_mid_request", Json::uinteger(disconnects_mid_request));
  j.set("idle_timeouts", Json::uinteger(idle_timeouts));
  j.set("shed_requests", Json::uinteger(shed_requests));
  j.set("dedup_hits", Json::uinteger(dedup_hits));
  j.set("quarantined_trials", Json::uinteger(quarantined_trials));
  j.set("faults", faults.to_json());
  Json ops_json = Json::object();
  for (const auto& [name, p] : ops) {
    Json op = Json::object();
    op.set("count", Json::uinteger(p.count));
    op.set("errors", Json::uinteger(p.errors));
    Json lat = Json::object();
    lat.set("p50", Json::number(p.latency_us.percentile(0.5)));
    lat.set("p90", Json::number(p.latency_us.percentile(0.9)));
    lat.set("p99", Json::number(p.latency_us.percentile(0.99)));
    lat.set("max", Json::number(p.latency_us.max()));
    op.set("lat_us", std::move(lat));
    ops_json.set(name, std::move(op));
  }
  j.set("ops", std::move(ops_json));
  return j;
}

std::vector<obs::Sample> ServiceMetrics::to_samples() const {
  std::vector<obs::Sample> out;
  const auto counter = [&out](const char* name, const char* help,
                              std::uint64_t v) {
    obs::Sample s;
    s.name = name;
    s.help = help;
    s.type = obs::SampleType::kCounter;
    s.value = static_cast<double>(v);
    out.push_back(std::move(s));
  };
  counter("netd_svc_connections_total", "Accepted connections", connections);
  counter("netd_svc_sessions_created_total", "Sessions created",
          sessions_created);
  counter("netd_svc_malformed_frames_total", "Frames that failed to parse",
          malformed_frames);
  counter("netd_svc_oversized_frames_total", "Frames over the size cap",
          oversized_frames);
  counter("netd_svc_disconnects_mid_request_total",
          "Connections lost mid-request", disconnects_mid_request);
  counter("netd_svc_idle_timeouts_total",
          "Connections cut by the idle deadline", idle_timeouts);
  counter("netd_svc_shed_requests_total", "Requests refused as overloaded",
          shed_requests);
  counter("netd_svc_dedup_hits_total",
          "Observations skipped as already applied", dedup_hits);
  counter("netd_svc_quarantined_trials_total",
          "Watchdog-quarantined trials in the fronted campaign",
          quarantined_trials);
  const std::pair<const char*, std::uint64_t> fault_kinds[] = {
      {"delay", faults.delays},
      {"drop", faults.drops},
      {"truncate", faults.truncations},
      {"corrupt", faults.corruptions},
      {"reset", faults.resets},
  };
  for (const auto& [kind, v] : fault_kinds) {
    obs::Sample s;
    s.name = "netd_svc_faults_total";
    s.help = "Chaos faults injected into response frames";
    s.type = obs::SampleType::kCounter;
    s.labels = {{"kind", kind}};
    s.value = static_cast<double>(v);
    out.push_back(std::move(s));
  }
  // One loop per family, not one per op: Prometheus requires every
  // sample of a family to be contiguous under a single # TYPE line, and
  // real parsers (prometheus/common expfmt) reject a repeated TYPE.
  for (const auto& [name, p] : ops) {
    obs::Sample c;
    c.name = "netd_svc_requests_total";
    c.help = "Requests handled, by op";
    c.type = obs::SampleType::kCounter;
    c.labels = {{"op", name}};
    c.value = static_cast<double>(p.count);
    c.exemplar_trace_id = p.exemplar_trace_id;
    out.push_back(std::move(c));
  }
  for (const auto& [name, p] : ops) {
    obs::Sample e;
    e.name = "netd_svc_request_errors_total";
    e.help = "Requests answered with an error, by op";
    e.type = obs::SampleType::kCounter;
    e.labels = {{"op", name}};
    e.value = static_cast<double>(p.errors);
    out.push_back(std::move(e));
  }
  for (const auto& [name, p] : ops) {
    obs::Sample h;
    h.name = "netd_svc_request_latency_us";
    h.help = "Request handling latency (microseconds), by op";
    h.type = obs::SampleType::kHistogram;
    h.labels = {{"op", name}};
    h.hist = p.latency_us;
    out.push_back(std::move(h));
  }
  return out;
}

}  // namespace netd::svc
