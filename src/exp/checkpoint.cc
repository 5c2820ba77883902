#include "exp/checkpoint.h"

#include <cstdio>
#include <ostream>

#include "util/atomic_file.h"

namespace netd::exp {

namespace {

constexpr const char* kKind = "netd-campaign-checkpoint";

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr && error->empty()) *error = what;
  return false;
}

util::Json json_double(double v) {
  return util::Json::number_from_lexeme(format_double17(v));
}

/// u64 values (seeds, byte offsets) stay decimal strings, as every
/// checkpoint so far wrote them, so existing checkpoints still load.
/// parse_u64 reads the string with the as_uint rule: digits only, at most
/// UINT64_MAX.
util::Json json_u64(std::uint64_t v) {
  return util::Json::string(std::to_string(v));
}

bool parse_u64(const util::Json* j, std::uint64_t* out, std::string* error,
               const char* what) {
  if (j == nullptr || !j->is_string() || j->as_string().empty()) {
    return fail(error, std::string("missing ") + what);
  }
  const auto v = util::Json::uint_from_lexeme(j->as_string());
  if (!v) return fail(error, std::string("bad ") + what);
  *out = *v;
  return true;
}

bool parse_size(const util::Json* j, std::size_t* out, std::string* error,
                const char* what) {
  const auto v = j != nullptr ? j->as_uint() : std::nullopt;
  if (!v) return fail(error, std::string("missing ") + what);
  *out = *v;
  return true;
}

bool parse_double(const util::Json* j, double* out, std::string* error,
                  const char* what) {
  if (j == nullptr || !j->is_number()) {
    return fail(error, std::string("missing ") + what);
  }
  *out = j->as_double();
  return true;
}

bool parse_bool(const util::Json* j, bool* out, std::string* error,
                const char* what) {
  if (j == nullptr || !j->is_bool()) {
    return fail(error, std::string("missing ") + what);
  }
  *out = j->as_bool();
  return true;
}

util::Json link_metrics_to_json(const core::LinkMetrics& m) {
  util::Json j = util::Json::array();
  j.push_back(json_double(m.sensitivity));
  j.push_back(json_double(m.specificity));
  j.push_back(util::Json::uinteger(m.hypothesis_size));
  j.push_back(util::Json::uinteger(m.num_probed));
  return j;
}

util::Json as_metrics_to_json(const core::AsMetrics& m) {
  util::Json j = util::Json::array();
  j.push_back(json_double(m.sensitivity));
  j.push_back(json_double(m.specificity));
  j.push_back(util::Json::uinteger(m.hypothesis_size));
  return j;
}

util::Json trial_to_json(const ScoredTrial& st) {
  util::Json j = util::Json::object();
  j.set("t", util::Json::uinteger(st.trial));
  j.set("d", json_double(st.result.diagnosability));
  j.set("rd", util::Json::boolean(st.result.router_detected));
  util::Json link = util::Json::object();
  for (const auto& [algo, m] : st.result.link) {
    link.set(to_string(algo), link_metrics_to_json(m));
  }
  j.set("link", std::move(link));
  util::Json as = util::Json::object();
  for (const auto& [algo, m] : st.result.as_level) {
    as.set(to_string(algo), as_metrics_to_json(m));
  }
  j.set("as", std::move(as));
  return j;
}

std::optional<ScoredTrial> trial_from_json(const util::Json& j,
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
  const util::Json* link = j.find("link");
  const util::Json* as = j.find("as");
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

util::Json scenario_to_json(const ScenarioConfig& cfg) {
  util::Json topo = util::Json::object();
  topo.set("seed", json_u64(cfg.topo_params.seed));
  topo.set("target_ases", util::Json::uinteger(cfg.topo_params.target_ases));
  topo.set("pool_tier2", util::Json::uinteger(cfg.topo_params.pool_tier2));
  topo.set("pool_stubs", util::Json::uinteger(cfg.topo_params.pool_stubs));
  topo.set("tier2_multihomed",
           json_double(cfg.topo_params.tier2_multihomed_frac));
  topo.set("stub_multihomed",
           json_double(cfg.topo_params.stub_multihomed_frac));
  topo.set("stub_on_core", json_double(cfg.topo_params.stub_on_core_frac));
  topo.set("tier2_spokes", util::Json::uinteger(cfg.topo_params.tier2_spokes));
  topo.set("core_peer_links",
           util::Json::uinteger(cfg.topo_params.core_peer_links));
  topo.set("tier2_peering", json_double(cfg.topo_params.tier2_peering_frac));

  util::Json j = util::Json::object();
  j.set("topo", std::move(topo));
  j.set("sensors", util::Json::uinteger(cfg.num_sensors));
  j.set("placement", util::Json::integer(static_cast<int>(cfg.placement)));
  // Emitted only when non-default so checkpoints written before planned
  // placement existed keep their fingerprint bytes.
  if (cfg.placement_strategy != PlacementStrategy::kRandom) {
    j.set("strategy", util::Json::string(to_string(cfg.placement_strategy)));
    j.set("plan_pool", util::Json::uinteger(cfg.plan_pool));
  }
  j.set("placements", util::Json::uinteger(cfg.num_placements));
  j.set("trials", util::Json::uinteger(cfg.trials_per_placement));
  j.set("mode", util::Json::integer(static_cast<int>(cfg.mode)));
  j.set("link_failures", util::Json::uinteger(cfg.num_link_failures));
  j.set("blocked", json_double(cfg.frac_blocked));
  j.set("lg", json_double(cfg.frac_lg));
  j.set("operator_core", util::Json::boolean(cfg.operator_at_core));
  j.set("seed", json_u64(cfg.seed));
  j.set("max_attempts", util::Json::uinteger(cfg.max_attempts_per_trial));
  return j;
}

std::optional<ScenarioConfig> scenario_from_json(const util::Json& j,
                                                 std::string* error) {
  if (!j.is_object()) {
    fail(error, "scenario is not an object");
    return std::nullopt;
  }
  ScenarioConfig cfg;
  const util::Json* topo = j.find("topo");
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
  if (const util::Json* strategy = j.find("strategy"); strategy != nullptr) {
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

util::Json Checkpoint::to_json() const {
  util::Json j = util::Json::object();
  j.set("v", util::Json::integer(kVersion));
  j.set("kind", util::Json::string(kKind));
  j.set("scenario", scenario_to_json(scenario));
  util::Json algos_json = util::Json::array();
  for (Algo a : algos) algos_json.push_back(util::Json::string(to_string(a)));
  j.set("algos", std::move(algos_json));
  j.set("recording", util::Json::boolean(recording));
  if (recording) {
    j.set("record", svc::session_config_to_json(record_config));
  }
  j.set("completed_placements", util::Json::uinteger(completed_placements));
  j.set("episodes", util::Json::uinteger(episodes));
  j.set("trace_bytes", json_u64(trace_bytes));
  util::Json results_json = util::Json::array();
  for (const auto& bucket : results) {
    util::Json b = util::Json::array();
    for (const auto& st : bucket) b.push_back(trial_to_json(st));
    results_json.push_back(std::move(b));
  }
  j.set("results", std::move(results_json));
  util::Json quarantined_json = util::Json::array();
  for (const auto& q : quarantined) {
    util::Json e = util::Json::object();
    e.set("placement", util::Json::uinteger(q.placement));
    e.set("trial", util::Json::uinteger(q.trial));
    e.set("seed", json_u64(q.seed));
    quarantined_json.push_back(std::move(e));
  }
  j.set("quarantined", std::move(quarantined_json));
  return j;
}

std::optional<Checkpoint> Checkpoint::from_json(const util::Json& j,
                                                std::string* error) {
  if (!j.is_object()) {
    fail(error, "checkpoint is not an object");
    return std::nullopt;
  }
  const util::Json* v = j.find("v");
  const util::Json* kind = j.find("kind");
  if (v == nullptr || !v->is_number() || v->as_int() != kVersion ||
      kind == nullptr || !kind->is_string() || kind->as_string() != kKind) {
    fail(error, "not a v1 campaign checkpoint");
    return std::nullopt;
  }
  Checkpoint ck;
  const util::Json* scenario = j.find("scenario");
  if (scenario == nullptr) {
    fail(error, "missing scenario");
    return std::nullopt;
  }
  auto cfg = scenario_from_json(*scenario, error);
  if (!cfg) return std::nullopt;
  ck.scenario = std::move(*cfg);

  const util::Json* algos = j.find("algos");
  if (algos == nullptr || !algos->is_array()) {
    fail(error, "missing algos");
    return std::nullopt;
  }
  for (std::size_t i = 0; i < algos->size(); ++i) {
    const util::Json& a = (*algos)[i];
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
    const util::Json* rec = j.find("record");
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

  const util::Json* results = j.find("results");
  if (results == nullptr || !results->is_array()) {
    fail(error, "missing results");
    return std::nullopt;
  }
  if (!ck.recording && results->size() != ck.completed_placements) {
    fail(error, "results do not cover the committed placements");
    return std::nullopt;
  }
  for (std::size_t pl = 0; pl < results->size(); ++pl) {
    const util::Json& bucket = (*results)[pl];
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

  const util::Json* quarantined = j.find("quarantined");
  if (quarantined == nullptr || !quarantined->is_array()) {
    fail(error, "missing quarantined");
    return std::nullopt;
  }
  for (std::size_t i = 0; i < quarantined->size(); ++i) {
    const util::Json& e = (*quarantined)[i];
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
  const auto j = util::Json::parse(body, &parse_error);
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
