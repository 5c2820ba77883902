#include "exp/checkpoint.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <ostream>

#include "util/atomic_file.h"

namespace netd::exp {

namespace {

constexpr const char* kKind = "netd-campaign-checkpoint";

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr && error->empty()) *error = what;
  return false;
}

svc::Json json_double(double v) {
  return svc::Json::number_from_lexeme(format_double17(v));
}

/// u64 values (seeds, byte offsets) travel as decimal strings: the Json
/// accessors go through strtoll and would clamp the upper half of the
/// range.
svc::Json json_u64(std::uint64_t v) {
  return svc::Json::string(std::to_string(v));
}

bool parse_u64(const svc::Json* j, std::uint64_t* out, std::string* error,
               const char* what) {
  if (j == nullptr || !j->is_string() || j->as_string().empty()) {
    return fail(error, std::string("missing ") + what);
  }
  const std::string& s = j->as_string();
  for (char c : s) {
    if (c < '0' || c > '9') return fail(error, std::string("bad ") + what);
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) {
    return fail(error, std::string("bad ") + what);
  }
  *out = static_cast<std::uint64_t>(v);
  return true;
}

bool parse_size(const svc::Json* j, std::size_t* out, std::string* error,
                const char* what) {
  const auto v = j != nullptr ? j->as_uint() : std::nullopt;
  if (!v) return fail(error, std::string("missing ") + what);
  *out = *v;
  return true;
}

bool parse_double(const svc::Json* j, double* out, std::string* error,
                  const char* what) {
  if (j == nullptr || !j->is_number()) {
    return fail(error, std::string("missing ") + what);
  }
  *out = j->as_double();
  return true;
}

bool parse_bool(const svc::Json* j, bool* out, std::string* error,
                const char* what) {
  if (j == nullptr || !j->is_bool()) {
    return fail(error, std::string("missing ") + what);
  }
  *out = j->as_bool();
  return true;
}

svc::Json link_metrics_to_json(const core::LinkMetrics& m) {
  svc::Json j = svc::Json::array();
  j.push_back(json_double(m.sensitivity));
  j.push_back(json_double(m.specificity));
  j.push_back(svc::Json::uinteger(m.hypothesis_size));
  j.push_back(svc::Json::uinteger(m.num_probed));
  return j;
}

svc::Json as_metrics_to_json(const core::AsMetrics& m) {
  svc::Json j = svc::Json::array();
  j.push_back(json_double(m.sensitivity));
  j.push_back(json_double(m.specificity));
  j.push_back(svc::Json::uinteger(m.hypothesis_size));
  return j;
}

svc::Json trial_to_json(const ScoredTrial& st) {
  svc::Json j = svc::Json::object();
  j.set("t", svc::Json::uinteger(st.trial));
  j.set("d", json_double(st.result.diagnosability));
  j.set("rd", svc::Json::boolean(st.result.router_detected));
  svc::Json link = svc::Json::object();
  for (const auto& [algo, m] : st.result.link) {
    link.set(to_string(algo), link_metrics_to_json(m));
  }
  j.set("link", std::move(link));
  svc::Json as = svc::Json::object();
  for (const auto& [algo, m] : st.result.as_level) {
    as.set(to_string(algo), as_metrics_to_json(m));
  }
  j.set("as", std::move(as));
  return j;
}

std::optional<ScoredTrial> trial_from_json(const svc::Json& j,
                                           std::size_t placement,
                                           std::string* error) {
  if (!j.is_object()) {
    fail(error, "trial is not an object");
    return std::nullopt;
  }
  ScoredTrial st;
  st.placement = placement;
  if (!parse_size(j.find("t"), &st.trial, error, "trial index") ||
      !parse_double(j.find("d"), &st.result.diagnosability, error,
                    "diagnosability") ||
      !parse_bool(j.find("rd"), &st.result.router_detected, error,
                  "router_detected")) {
    return std::nullopt;
  }
  const svc::Json* link = j.find("link");
  const svc::Json* as = j.find("as");
  if (link == nullptr || !link->is_object() || as == nullptr ||
      !as->is_object()) {
    fail(error, "trial needs link + as metric objects");
    return std::nullopt;
  }
  for (const auto& [name, m] : link->members()) {
    const auto algo = algo_from_string(name);
    if (!algo || !m.is_array() || m.size() != 4) {
      fail(error, "bad link metrics for '" + name + "'");
      return std::nullopt;
    }
    core::LinkMetrics lm;
    if (!parse_double(&m[0], &lm.sensitivity, error, "link sensitivity") ||
        !parse_double(&m[1], &lm.specificity, error, "link specificity") ||
        !parse_size(&m[2], &lm.hypothesis_size, error, "link |H|") ||
        !parse_size(&m[3], &lm.num_probed, error, "link |E|")) {
      return std::nullopt;
    }
    st.result.link[*algo] = lm;
  }
  for (const auto& [name, m] : as->members()) {
    const auto algo = algo_from_string(name);
    if (!algo || !m.is_array() || m.size() != 3) {
      fail(error, "bad AS metrics for '" + name + "'");
      return std::nullopt;
    }
    core::AsMetrics am;
    if (!parse_double(&m[0], &am.sensitivity, error, "AS sensitivity") ||
        !parse_double(&m[1], &am.specificity, error, "AS specificity") ||
        !parse_size(&m[2], &am.hypothesis_size, error, "AS |H|")) {
      return std::nullopt;
    }
    st.result.as_level[*algo] = am;
  }
  return st;
}

}  // namespace

std::string format_double17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

svc::Json scenario_to_json(const ScenarioConfig& cfg) {
  svc::Json topo = svc::Json::object();
  topo.set("seed", json_u64(cfg.topo_params.seed));
  topo.set("target_ases", svc::Json::uinteger(cfg.topo_params.target_ases));
  topo.set("pool_tier2", svc::Json::uinteger(cfg.topo_params.pool_tier2));
  topo.set("pool_stubs", svc::Json::uinteger(cfg.topo_params.pool_stubs));
  topo.set("tier2_multihomed",
           json_double(cfg.topo_params.tier2_multihomed_frac));
  topo.set("stub_multihomed",
           json_double(cfg.topo_params.stub_multihomed_frac));
  topo.set("stub_on_core", json_double(cfg.topo_params.stub_on_core_frac));
  topo.set("tier2_spokes", svc::Json::uinteger(cfg.topo_params.tier2_spokes));
  topo.set("core_peer_links",
           svc::Json::uinteger(cfg.topo_params.core_peer_links));
  topo.set("tier2_peering", json_double(cfg.topo_params.tier2_peering_frac));

  svc::Json j = svc::Json::object();
  j.set("topo", std::move(topo));
  j.set("sensors", svc::Json::uinteger(cfg.num_sensors));
  j.set("placement", svc::Json::integer(static_cast<int>(cfg.placement)));
  // Emitted only when non-default so checkpoints written before planned
  // placement existed keep their fingerprint bytes.
  if (cfg.placement_strategy != PlacementStrategy::kRandom) {
    j.set("strategy", svc::Json::string(to_string(cfg.placement_strategy)));
    j.set("plan_pool", svc::Json::uinteger(cfg.plan_pool));
  }
  j.set("placements", svc::Json::uinteger(cfg.num_placements));
  j.set("trials", svc::Json::uinteger(cfg.trials_per_placement));
  j.set("mode", svc::Json::integer(static_cast<int>(cfg.mode)));
  j.set("link_failures", svc::Json::uinteger(cfg.num_link_failures));
  j.set("blocked", json_double(cfg.frac_blocked));
  j.set("lg", json_double(cfg.frac_lg));
  j.set("operator_core", svc::Json::boolean(cfg.operator_at_core));
  j.set("seed", json_u64(cfg.seed));
  j.set("max_attempts", svc::Json::uinteger(cfg.max_attempts_per_trial));
  return j;
}

std::optional<ScenarioConfig> scenario_from_json(const svc::Json& j,
                                                 std::string* error) {
  if (!j.is_object()) {
    fail(error, "scenario is not an object");
    return std::nullopt;
  }
  ScenarioConfig cfg;
  const svc::Json* topo = j.find("topo");
  if (topo == nullptr || !topo->is_object()) {
    fail(error, "missing scenario topo");
    return std::nullopt;
  }
  std::size_t placement = 0, mode = 0;
  if (!parse_u64(topo->find("seed"), &cfg.topo_params.seed, error,
                 "topo seed") ||
      !parse_size(topo->find("target_ases"), &cfg.topo_params.target_ases,
                  error, "target_ases") ||
      !parse_size(topo->find("pool_tier2"), &cfg.topo_params.pool_tier2,
                  error, "pool_tier2") ||
      !parse_size(topo->find("pool_stubs"), &cfg.topo_params.pool_stubs,
                  error, "pool_stubs") ||
      !parse_double(topo->find("tier2_multihomed"),
                    &cfg.topo_params.tier2_multihomed_frac, error,
                    "tier2_multihomed") ||
      !parse_double(topo->find("stub_multihomed"),
                    &cfg.topo_params.stub_multihomed_frac, error,
                    "stub_multihomed") ||
      !parse_double(topo->find("stub_on_core"),
                    &cfg.topo_params.stub_on_core_frac, error,
                    "stub_on_core") ||
      !parse_size(topo->find("tier2_spokes"), &cfg.topo_params.tier2_spokes,
                  error, "tier2_spokes") ||
      !parse_size(topo->find("core_peer_links"),
                  &cfg.topo_params.core_peer_links, error,
                  "core_peer_links") ||
      !parse_double(topo->find("tier2_peering"),
                    &cfg.topo_params.tier2_peering_frac, error,
                    "tier2_peering") ||
      !parse_size(j.find("sensors"), &cfg.num_sensors, error, "sensors") ||
      !parse_size(j.find("placement"), &placement, error, "placement") ||
      !parse_size(j.find("placements"), &cfg.num_placements, error,
                  "placements") ||
      !parse_size(j.find("trials"), &cfg.trials_per_placement, error,
                  "trials") ||
      !parse_size(j.find("mode"), &mode, error, "mode") ||
      !parse_size(j.find("link_failures"), &cfg.num_link_failures, error,
                  "link_failures") ||
      !parse_double(j.find("blocked"), &cfg.frac_blocked, error, "blocked") ||
      !parse_double(j.find("lg"), &cfg.frac_lg, error, "lg") ||
      !parse_bool(j.find("operator_core"), &cfg.operator_at_core, error,
                  "operator_core") ||
      !parse_u64(j.find("seed"), &cfg.seed, error, "seed") ||
      !parse_size(j.find("max_attempts"), &cfg.max_attempts_per_trial, error,
                  "max_attempts")) {
    return std::nullopt;
  }
  if (placement > static_cast<std::size_t>(
                      probe::PlacementKind::kDistantAsSplit)) {
    fail(error, "unknown placement kind");
    return std::nullopt;
  }
  if (mode > static_cast<std::size_t>(FailureMode::kMisconfigPrefix)) {
    fail(error, "unknown failure mode");
    return std::nullopt;
  }
  cfg.placement = static_cast<probe::PlacementKind>(placement);
  cfg.mode = static_cast<FailureMode>(mode);
  if (const svc::Json* strategy = j.find("strategy"); strategy != nullptr) {
    if (!strategy->is_string()) {
      fail(error, "strategy is not a string");
      return std::nullopt;
    }
    const auto parsed = placement_strategy_from_string(strategy->as_string());
    if (!parsed) {
      fail(error, "unknown placement strategy");
      return std::nullopt;
    }
    cfg.placement_strategy = *parsed;
    if (!parse_size(j.find("plan_pool"), &cfg.plan_pool, error, "plan_pool")) {
      return std::nullopt;
    }
  }
  return cfg;
}

svc::Json Checkpoint::to_json() const {
  svc::Json j = svc::Json::object();
  j.set("v", svc::Json::integer(kVersion));
  j.set("kind", svc::Json::string(kKind));
  j.set("scenario", scenario_to_json(scenario));
  svc::Json algos_json = svc::Json::array();
  for (Algo a : algos) algos_json.push_back(svc::Json::string(to_string(a)));
  j.set("algos", std::move(algos_json));
  j.set("recording", svc::Json::boolean(recording));
  if (recording) {
    j.set("record", svc::session_config_to_json(record_config));
  }
  j.set("completed_placements", svc::Json::uinteger(completed_placements));
  j.set("episodes", svc::Json::uinteger(episodes));
  j.set("trace_bytes", json_u64(trace_bytes));
  svc::Json results_json = svc::Json::array();
  for (const auto& bucket : results) {
    svc::Json b = svc::Json::array();
    for (const auto& st : bucket) b.push_back(trial_to_json(st));
    results_json.push_back(std::move(b));
  }
  j.set("results", std::move(results_json));
  svc::Json quarantined_json = svc::Json::array();
  for (const auto& q : quarantined) {
    svc::Json e = svc::Json::object();
    e.set("placement", svc::Json::uinteger(q.placement));
    e.set("trial", svc::Json::uinteger(q.trial));
    e.set("seed", json_u64(q.seed));
    quarantined_json.push_back(std::move(e));
  }
  j.set("quarantined", std::move(quarantined_json));
  return j;
}

std::optional<Checkpoint> Checkpoint::from_json(const svc::Json& j,
                                                std::string* error) {
  if (!j.is_object()) {
    fail(error, "checkpoint is not an object");
    return std::nullopt;
  }
  const svc::Json* v = j.find("v");
  const svc::Json* kind = j.find("kind");
  if (v == nullptr || !v->is_number() || v->as_int() != kVersion ||
      kind == nullptr || !kind->is_string() || kind->as_string() != kKind) {
    fail(error, "not a v1 campaign checkpoint");
    return std::nullopt;
  }
  Checkpoint ck;
  const svc::Json* scenario = j.find("scenario");
  if (scenario == nullptr) {
    fail(error, "missing scenario");
    return std::nullopt;
  }
  auto cfg = scenario_from_json(*scenario, error);
  if (!cfg) return std::nullopt;
  ck.scenario = std::move(*cfg);

  const svc::Json* algos = j.find("algos");
  if (algos == nullptr || !algos->is_array()) {
    fail(error, "missing algos");
    return std::nullopt;
  }
  for (std::size_t i = 0; i < algos->size(); ++i) {
    const svc::Json& a = (*algos)[i];
    const auto algo = a.is_string() ? algo_from_string(a.as_string())
                                    : std::nullopt;
    if (!algo) {
      fail(error, "unknown algo in checkpoint");
      return std::nullopt;
    }
    ck.algos.push_back(*algo);
  }
  if (!parse_bool(j.find("recording"), &ck.recording, error, "recording")) {
    return std::nullopt;
  }
  if (ck.recording) {
    const svc::Json* rec = j.find("record");
    if (rec == nullptr) {
      fail(error, "missing record config");
      return std::nullopt;
    }
    std::string cfg_error;
    auto parsed = svc::session_config_from_json(*rec, &cfg_error);
    if (!parsed) {
      fail(error, "bad record config: " + cfg_error);
      return std::nullopt;
    }
    ck.record_config = std::move(*parsed);
  }
  if (!parse_size(j.find("completed_placements"), &ck.completed_placements,
                  error, "completed_placements") ||
      !parse_size(j.find("episodes"), &ck.episodes, error, "episodes") ||
      !parse_u64(j.find("trace_bytes"), &ck.trace_bytes, error,
                 "trace_bytes")) {
    return std::nullopt;
  }
  if (ck.completed_placements > ck.scenario.num_placements) {
    fail(error, "completed_placements exceeds the campaign");
    return std::nullopt;
  }

  const svc::Json* results = j.find("results");
  if (results == nullptr || !results->is_array()) {
    fail(error, "missing results");
    return std::nullopt;
  }
  if (!ck.recording && results->size() != ck.completed_placements) {
    fail(error, "results do not cover the committed placements");
    return std::nullopt;
  }
  for (std::size_t pl = 0; pl < results->size(); ++pl) {
    const svc::Json& bucket = (*results)[pl];
    if (!bucket.is_array()) {
      fail(error, "results bucket is not an array");
      return std::nullopt;
    }
    std::vector<ScoredTrial> trials;
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      auto st = trial_from_json(bucket[i], pl, error);
      if (!st) return std::nullopt;
      trials.push_back(std::move(*st));
    }
    ck.results.push_back(std::move(trials));
  }

  const svc::Json* quarantined = j.find("quarantined");
  if (quarantined == nullptr || !quarantined->is_array()) {
    fail(error, "missing quarantined");
    return std::nullopt;
  }
  for (std::size_t i = 0; i < quarantined->size(); ++i) {
    const svc::Json& e = (*quarantined)[i];
    if (!e.is_object()) {
      fail(error, "quarantine entry is not an object");
      return std::nullopt;
    }
    QuarantinedTrial q;
    if (!parse_size(e.find("placement"), &q.placement, error,
                    "quarantine placement") ||
        !parse_size(e.find("trial"), &q.trial, error, "quarantine trial") ||
        !parse_u64(e.find("seed"), &q.seed, error, "quarantine seed")) {
      return std::nullopt;
    }
    if (q.placement >= ck.scenario.num_placements ||
        q.trial >= ck.scenario.trials_per_placement) {
      fail(error, "quarantine entry out of range");
      return std::nullopt;
    }
    ck.quarantined.push_back(q);
  }
  return ck;
}

bool Checkpoint::save(const std::string& path, std::string* error) const {
  return util::atomic_write_file(path, to_json().dump() + "\n", error);
}

std::optional<Checkpoint> Checkpoint::load(const std::string& path,
                                           std::string* error) {
  const auto text = util::read_file(path, error);
  if (!text) return std::nullopt;
  std::string parse_error;
  std::string_view body(*text);
  while (!body.empty() && (body.back() == '\n' || body.back() == '\r')) {
    body.remove_suffix(1);
  }
  const auto j = svc::Json::parse(body, &parse_error);
  if (!j) {
    fail(error, path + ": " + parse_error);
    return std::nullopt;
  }
  auto ck = from_json(*j, &parse_error);
  if (!ck) {
    fail(error, path + ": " + parse_error);
    return std::nullopt;
  }
  return ck;
}

std::string Checkpoint::fingerprint() const {
  std::string fp = scenario_to_json(scenario).dump();
  fp += recording ? "|record:" + svc::session_config_to_json(record_config).dump()
                  : "|score:";
  for (Algo a : algos) {
    fp += to_string(a);
    fp += ',';
  }
  return fp;
}

void write_csv(std::ostream& os, const std::vector<ScoredTrial>& trials,
               const std::vector<Algo>& algos) {
  os << "placement,trial,diagnosability,router_detected";
  for (Algo a : algos) {
    const std::string n = to_string(a);
    os << "," << n << "_link_sens," << n << "_link_spec," << n << "_link_h,"
       << n << "_link_probed," << n << "_as_sens," << n << "_as_spec," << n
       << "_as_h";
  }
  os << "\n";
  for (const auto& st : trials) {
    os << st.placement << "," << st.trial << ","
       << format_double17(st.result.diagnosability) << ","
       << (st.result.router_detected ? 1 : 0);
    for (Algo a : algos) {
      const auto link = st.result.link.find(a);
      if (link != st.result.link.end()) {
        os << "," << format_double17(link->second.sensitivity) << ","
           << format_double17(link->second.specificity) << ","
           << link->second.hypothesis_size << "," << link->second.num_probed;
      } else {
        os << ",,,,";
      }
      const auto as = st.result.as_level.find(a);
      if (as != st.result.as_level.end()) {
        os << "," << format_double17(as->second.sensitivity) << ","
           << format_double17(as->second.specificity) << ","
           << as->second.hypothesis_size;
      } else {
        os << ",,,";
      }
    }
    os << "\n";
  }
}

}  // namespace netd::exp
