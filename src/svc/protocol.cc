#include "svc/protocol.h"

#include <type_traits>

#include "core/algorithms.h"
#include "svc/codec.h"

namespace netd::svc {

namespace {

bool set_error(std::string* error, const std::string& what) {
  if (error != nullptr && error->empty()) *error = what;
  return false;
}

const Json* require(const Json& obj, std::string_view key, Json::Type type,
                    std::string* error) {
  const Json* v = obj.find(key);
  if (v == nullptr) {
    set_error(error, "missing field '" + std::string(key) + "'");
    return nullptr;
  }
  if (v->type() != type) {
    set_error(error, "field '" + std::string(key) + "' has wrong type");
    return nullptr;
  }
  return v;
}

std::optional<std::uint64_t> require_uint(const Json& obj,
                                          std::string_view key,
                                          std::string* error) {
  const Json* v = require(obj, key, Json::Type::kNumber, error);
  const auto n = v != nullptr ? v->as_uint() : std::nullopt;
  if (v != nullptr && !n) {
    set_error(error,
              "field '" + std::string(key) + "' must be an unsigned integer");
  }
  return n;
}

}  // namespace

std::optional<core::Troubleshooter::Config> SessionConfig::resolve(
    std::string* error) const {
  core::Troubleshooter::Config cfg;
  if (alarm_threshold == 0) {
    set_error(error, "alarm threshold must be >= 1");
    return std::nullopt;
  }
  cfg.alarm_threshold = alarm_threshold;
  if (algo == "tomo") {
    cfg.solver = core::tomo_options();
  } else if (algo == "nd-edge") {
    cfg.solver = core::nd_edge_options();
  } else if (algo == "nd-bgpigp") {
    cfg.solver = core::nd_bgpigp_options();
  } else {
    set_error(error, "unknown algorithm '" + algo +
                         "' (tomo, nd-edge, nd-bgpigp)");
    return std::nullopt;
  }
  if (granularity == "none") {
    cfg.granularity = core::LogicalMode::kNone;
  } else if (granularity == "per-neighbor") {
    cfg.granularity = core::LogicalMode::kPerNeighbor;
  } else if (granularity == "per-prefix") {
    cfg.granularity = core::LogicalMode::kPerPrefix;
  } else {
    set_error(error, "unknown granularity '" + granularity +
                         "' (none, per-neighbor, per-prefix)");
    return std::nullopt;
  }
  return cfg;
}

// ---------------------------------------------------------------------------
// Payload codecs.

Json mesh_to_json(const probe::Mesh& mesh) {
  Json paths = Json::array();
  for (const auto& p : mesh.paths) {
    Json jp = Json::object();
    jp.set("src", Json::uinteger(p.src));
    jp.set("dst", Json::uinteger(p.dst));
    jp.set("ok", Json::boolean(p.ok));
    Json hops = Json::array();
    for (const auto& h : p.hops) {
      Json jh = Json::array();
      jh.push_back(Json::string(h.label));
      jh.push_back(Json::string(hop_kind_tag(h.kind)));
      jh.push_back(Json::integer(h.asn));
      jh.push_back(Json::integer(
          h.router.valid() ? static_cast<long long>(h.router.value()) : -1));
      hops.push_back(std::move(jh));
    }
    jp.set("hops", std::move(hops));
    Json links = Json::array();
    for (topo::LinkId l : p.links) links.push_back(Json::uinteger(l.value()));
    jp.set("links", std::move(links));
    paths.push_back(std::move(jp));
  }
  Json j = Json::object();
  j.set("paths", std::move(paths));
  return j;
}

std::optional<probe::Mesh> mesh_from_json(const Json& j, std::string* error) {
  if (!j.is_object()) {
    set_error(error, "mesh must be an object");
    return std::nullopt;
  }
  const Json* paths = require(j, "paths", Json::Type::kArray, error);
  if (paths == nullptr) return std::nullopt;
  probe::Mesh mesh;
  mesh.paths.reserve(paths->size());
  for (std::size_t i = 0; i < paths->size(); ++i) {
    const Json& jp = (*paths)[i];
    if (!jp.is_object()) {
      set_error(error, "mesh path " + std::to_string(i) + " must be an object");
      return std::nullopt;
    }
    probe::TracePath p;
    const auto src = require_uint(jp, "src", error);
    const auto dst = require_uint(jp, "dst", error);
    const Json* ok = require(jp, "ok", Json::Type::kBool, error);
    const Json* hops = require(jp, "hops", Json::Type::kArray, error);
    const Json* links = require(jp, "links", Json::Type::kArray, error);
    if (!src || !dst || ok == nullptr || hops == nullptr || links == nullptr) {
      return std::nullopt;
    }
    p.src = *src;
    p.dst = *dst;
    p.ok = ok->as_bool();
    if (p.ok && hops->size() == 0) {  // a diagnosis reads its last hop
      set_error(error,
                "mesh path " + std::to_string(i) + " is ok but has no hops");
      return std::nullopt;
    }
    p.hops.reserve(hops->size());
    for (std::size_t k = 0; k < hops->size(); ++k) {
      const Json& jh = (*hops)[k];
      if (!jh.is_array() || jh.size() != 4 || !jh[0].is_string() ||
          !jh[1].is_string() || !jh[2].is_number() || !jh[3].is_number()) {
        set_error(error, "mesh hop must be [label, kind, asn, router]");
        return std::nullopt;
      }
      probe::Hop h;
      h.label = jh[0].as_string();
      const auto kind = hop_kind_from_tag(jh[1].as_string());
      if (!kind) {
        set_error(error, "unknown hop kind '" + jh[1].as_string() + "'");
        return std::nullopt;
      }
      h.kind = *kind;
      const auto asn = jh[2].as_int32();
      if (!asn) {
        set_error(error, "mesh hop asn must be an integer in int range");
        return std::nullopt;
      }
      h.asn = *asn;
      if (const auto router = jh[3].as_uint(kMaxMeshId)) {
        h.router = topo::RouterId{static_cast<std::uint32_t>(*router)};
      } else if (jh[3].dump() != "-1") {  // mesh_to_json's "no router"
        set_error(error, "mesh router ids must be -1 or 32-bit ids");
        return std::nullopt;
      }
      p.hops.push_back(std::move(h));
    }
    p.links.reserve(links->size());
    for (std::size_t k = 0; k < links->size(); ++k) {
      const auto link = (*links)[k].as_uint(kMaxMeshId);
      if (!link) {
        set_error(error, "mesh link ids must be 32-bit unsigned integers");
        return std::nullopt;
      }
      p.links.push_back(topo::LinkId{static_cast<std::uint32_t>(*link)});
    }
    mesh.paths.push_back(std::move(p));
  }
  return mesh;
}

bool round_fits_baseline(const probe::Mesh& baseline, const probe::Mesh& round,
                         std::string* error) {
  if (round.paths.size() != baseline.paths.size()) {
    return set_error(error, "mesh covers " +
                                std::to_string(round.paths.size()) +
                                " pairs but the baseline covers " +
                                std::to_string(baseline.paths.size()));
  }
  for (std::size_t k = 0; k < baseline.paths.size(); ++k) {
    const probe::TracePath& r = round.paths[k];
    const probe::TracePath& b = baseline.paths[k];
    if (r.src != b.src || r.dst != b.dst) {
      auto pair = [k](const probe::TracePath& t) {
        return " pair " + std::to_string(k) + " is (" +
               std::to_string(t.src) + "," + std::to_string(t.dst) + ")";
      };
      return set_error(error, "mesh" + pair(r) + " but the baseline's" +
                                  pair(b));
    }
  }
  return true;
}

Json cp_to_json(const core::ControlPlaneObs& cp) {
  Json igp = Json::array();
  for (const auto& k : cp.igp_down_keys) igp.push_back(Json::string(k));
  Json wd = Json::array();
  for (const auto& w : cp.withdrawals) {
    Json jw = Json::array();
    jw.push_back(Json::string(w.directed_key));
    jw.push_back(Json::integer(w.dest_asn));
    wd.push_back(std::move(jw));
  }
  Json j = Json::object();
  j.set("igp", std::move(igp));
  j.set("wd", std::move(wd));
  return j;
}

std::optional<core::ControlPlaneObs> cp_from_json(const Json& j,
                                                  std::string* error) {
  if (!j.is_object()) {
    set_error(error, "cp must be an object");
    return std::nullopt;
  }
  const Json* igp = require(j, "igp", Json::Type::kArray, error);
  const Json* wd = require(j, "wd", Json::Type::kArray, error);
  if (igp == nullptr || wd == nullptr) return std::nullopt;
  core::ControlPlaneObs cp;
  cp.igp_down_keys.reserve(igp->size());
  for (std::size_t i = 0; i < igp->size(); ++i) {
    if (!(*igp)[i].is_string()) {
      set_error(error, "cp.igp entries must be strings");
      return std::nullopt;
    }
    cp.igp_down_keys.push_back((*igp)[i].as_string());
  }
  cp.withdrawals.reserve(wd->size());
  for (std::size_t i = 0; i < wd->size(); ++i) {
    const Json& jw = (*wd)[i];
    if (!jw.is_array() || jw.size() != 2 || !jw[0].is_string() ||
        !jw[1].is_number()) {
      set_error(error, "cp.wd entries must be [directed_key, dest_asn]");
      return std::nullopt;
    }
    const auto dest_asn = jw[1].as_int32();
    if (!dest_asn) {
      set_error(error, "cp.wd dest_asn must be an integer in int range");
      return std::nullopt;
    }
    cp.withdrawals.push_back(
        core::ControlPlaneObs::Withdrawal{jw[0].as_string(), *dest_asn});
  }
  return cp;
}

Json session_config_to_json(const SessionConfig& cfg) {
  Json j = Json::object();
  j.set("threshold", Json::uinteger(cfg.alarm_threshold));
  j.set("algo", Json::string(cfg.algo));
  j.set("granularity", Json::string(cfg.granularity));
  return j;
}

std::optional<SessionConfig> session_config_from_json(const Json& j,
                                                      std::string* error) {
  if (!j.is_object()) {
    set_error(error, "config must be an object");
    return std::nullopt;
  }
  const auto threshold = require_uint(j, "threshold", error);
  const Json* algo = require(j, "algo", Json::Type::kString, error);
  const Json* gran = require(j, "granularity", Json::Type::kString, error);
  if (!threshold || algo == nullptr || gran == nullptr) return std::nullopt;
  SessionConfig cfg;
  cfg.alarm_threshold = *threshold;
  cfg.algo = algo->as_string();
  cfg.granularity = gran->as_string();
  // Reject unknown names at the protocol boundary, not at first use.
  if (!cfg.resolve(error)) return std::nullopt;
  return cfg;
}

Json trace_to_json(const obs::TraceContext& trace) {
  Json j = Json::object();
  j.set("tid", Json::string(obs::format_trace_id(trace.trace_id)));
  j.set("sid", Json::string(obs::format_trace_id(trace.span_id)));
  return j;
}

bool trace_from_json(const Json& obj, std::optional<obs::TraceContext>* out,
                     std::string* error) {
  const Json* t = obj.find("trace");
  if (t == nullptr) return true;
  if (!t->is_object()) {
    set_error(error, "trace must be an object");
    return false;
  }
  const Json* tid = require(*t, "tid", Json::Type::kString, error);
  const Json* sid = require(*t, "sid", Json::Type::kString, error);
  if (tid == nullptr || sid == nullptr) return false;
  obs::TraceContext ctx;
  if (!obs::parse_trace_id(tid->as_string(), &ctx.trace_id) ||
      !obs::parse_trace_id(sid->as_string(), &ctx.span_id)) {
    set_error(error, "trace ids must be hex strings");
    return false;
  }
  *out = ctx;
  return true;
}

// ---------------------------------------------------------------------------
// Requests.

namespace {

/// `,"name":` — the opening of every member after a frame's "v".
void member(std::string& out, std::string_view name) {
  out += ",\"";
  out += name;
  out += "\":";
}

void append_trace(std::string& out,
                  const std::optional<obs::TraceContext>& trace) {
  if (!trace.has_value()) return;
  member(out, "trace");
  trace_to_json(*trace).dump_to(out);
}

/// The mesh and optional cp an observe frame and a batch item share.
void append_observation(std::string& out, const probe::Mesh& mesh,
                        const std::optional<core::ControlPlaneObs>& cp) {
  member(out, "mesh");
  append_mesh(out, mesh);
  if (!cp.has_value()) return;
  member(out, "cp");
  cp_to_json(*cp).dump_to(out);
}

}  // namespace

std::string serialize(const Request& req) {
  std::string out = "{\"v\":";
  util::append_json_uint(out, kProtocolVersion);
  std::visit(
      [&out](const auto& r) {
        using T = std::decay_t<decltype(r)>;
        auto op = [&out](std::string_view name) {
          member(out, "op");
          util::append_json_string(out, name);
        };
        auto session = [&out](const std::string& name) {
          member(out, "session");
          util::append_json_string(out, name);
        };
        if constexpr (std::is_same_v<T, HelloRequest>) {
          op("hello");
          session(r.session);
          member(out, "config");
          session_config_to_json(r.config).dump_to(out);
          append_trace(out, r.trace);
        } else if constexpr (std::is_same_v<T, SetBaselineRequest>) {
          op("set_baseline");
          session(r.session);
          member(out, "mesh");
          append_mesh(out, r.mesh);
          append_trace(out, r.trace);
        } else if constexpr (std::is_same_v<T, ObserveRequest>) {
          op("observe");
          session(r.session);
          append_observation(out, r.mesh, r.cp);
          if (r.seq.has_value()) {
            member(out, "seq");
            util::append_json_uint(out, *r.seq);
          }
          append_trace(out, r.trace);
        } else if constexpr (std::is_same_v<T, ObserveBatchRequest>) {
          op("observe_batch");
          session(r.session);
          member(out, "src");
          util::append_json_string(out, r.src);
          member(out, "items");
          out += '[';
          for (std::size_t i = 0; i < r.items.size(); ++i) {
            const ObserveItem& item = r.items[i];
            out += i != 0 ? ",{\"seq\":" : "{\"seq\":";
            util::append_json_uint(out, item.seq);
            append_observation(out, item.mesh, item.cp);
            append_trace(out, item.trace);
            out += '}';
          }
          out += ']';
          append_trace(out, r.trace);
        } else if constexpr (std::is_same_v<T, QueryRequest>) {
          op("query");
          session(r.session);
          append_trace(out, r.trace);
        } else if constexpr (std::is_same_v<T, StatsRequest>) {
          op("stats");
        } else if constexpr (std::is_same_v<T, MetricsRequest>) {
          op("metrics");
        } else if constexpr (std::is_same_v<T, EventsRequest>) {
          op("events");
          member(out, "cursor");
          util::append_json_uint(out, r.cursor);
          member(out, "cap");
          util::append_json_uint(out, r.cap);
        } else if constexpr (std::is_same_v<T, ShutdownRequest>) {
          op("shutdown");
        }
      },
      req);
  out += '}';
  return out;
}

namespace {

bool frame_fits(std::string_view frame, std::string* error) {
  return frame.size() <= kMaxFrameBytes ||
         set_error(error, "frame exceeds " + std::to_string(kMaxFrameBytes) +
                              " bytes");
}

/// What every request and response frame is: an object with "v":1.
bool versioned_object(const Json& j, std::string* error) {
  if (!j.is_object()) return set_error(error, "frame must be a JSON object");
  const Json* v = j.find("v");
  if (v == nullptr || v->as_uint() != std::uint64_t{kProtocolVersion}) {
    return set_error(error, "field 'v' must be protocol version 1");
  }
  return true;
}

/// require(j, "mesh", Json::Type::kObject), for a typed mesh member.
bool require_mesh(const MeshMember& mesh, std::string* error) {
  switch (mesh.state) {
    case MeshMember::State::kAbsent:
      return set_error(error, "missing field 'mesh'");
    case MeshMember::State::kNotObject:
      return set_error(error, "field 'mesh' has wrong type");
    default:
      return true;
  }
}

/// What an observe frame and a batch item share: the mesh, and optional
/// cp, seq and trace. A seq must be >= 1 — watermarks start at 0, so a seq
/// of 0 would always read as applied.
bool observation_from_doc(MeshDoc& d, probe::Mesh* mesh,
                          std::optional<core::ControlPlaneObs>* cp,
                          std::optional<std::uint64_t>* seq,
                          std::optional<obs::TraceContext>* trace,
                          std::string* error) {
  auto decoded =
      require_mesh(d.mesh, error) ? d.mesh.take(error) : std::nullopt;
  if (!decoded) return false;
  *mesh = std::move(*decoded);
  const Json& j = d.rest;
  if (const Json* c = j.find("cp"); c != nullptr) {
    *cp = cp_from_json(*c, error);
    if (!*cp) return false;
  }
  if (j.find("seq") != nullptr) {
    *seq = require_uint(j, "seq", error);
    if (seq->value_or(0) == 0) return set_error(error, "seq must be >= 1");
  }
  return trace_from_json(j, trace, error);
}

std::optional<std::string> get_session(const Json& j, std::string* error) {
  const Json* s = require(j, "session", Json::Type::kString, error);
  if (s == nullptr) return std::nullopt;
  if (s->as_string().empty()) {
    set_error(error, "session name must not be empty");
    return std::nullopt;
  }
  return s->as_string();
}

}  // namespace

std::optional<Request> parse_request(std::string_view frame,
                                     std::string* error) {
  if (!frame_fits(frame, error)) return std::nullopt;
  auto doc = parse_mesh_doc(frame, "mesh", /*items=*/true, error);
  if (!doc || !versioned_object(doc->rest, error)) return std::nullopt;
  const Json& j = doc->rest;
  const Json* op = require(j, "op", Json::Type::kString, error);
  if (op == nullptr) return std::nullopt;
  const std::string& name = op->as_string();

  if (name == "hello") {
    const auto session = get_session(j, error);
    const Json* cfg = require(j, "config", Json::Type::kObject, error);
    if (!session || cfg == nullptr) return std::nullopt;
    const auto config = session_config_from_json(*cfg, error);
    if (!config) return std::nullopt;
    HelloRequest req{*session, *config, std::nullopt};
    if (!trace_from_json(j, &req.trace, error)) return std::nullopt;
    return Request{std::move(req)};
  }
  if (name == "set_baseline") {
    const auto session = get_session(j, error);
    const bool has_mesh = require_mesh(doc->mesh, error);
    if (!session || !has_mesh) return std::nullopt;
    auto m = doc->mesh.take(error);
    if (!m) return std::nullopt;
    SetBaselineRequest req{*session, std::move(*m), std::nullopt};
    if (!trace_from_json(j, &req.trace, error)) return std::nullopt;
    return Request{std::move(req)};
  }
  if (name == "observe") {
    const auto session = get_session(j, error);
    if (!session) return std::nullopt;
    ObserveRequest req;
    req.session = *session;
    if (!observation_from_doc(*doc, &req.mesh, &req.cp, &req.seq, &req.trace,
                              error)) {
      return std::nullopt;
    }
    return Request{std::move(req)};
  }
  if (name == "observe_batch") {
    const auto session = get_session(j, error);
    const Json* src = require(j, "src", Json::Type::kString, error);
    if (doc->items_state == MeshDoc::Items::kAbsent) {
      set_error(error, "missing field 'items'");
    } else if (doc->items_state == MeshDoc::Items::kNotArray) {
      set_error(error, "field 'items' has wrong type");
    }
    if (!session || src == nullptr ||
        doc->items_state != MeshDoc::Items::kArray) {
      return std::nullopt;
    }
    if (src->as_string().empty()) {
      set_error(error, "src must not be empty");
      return std::nullopt;
    }
    ObserveBatchRequest req;
    req.session = *session;
    req.src = src->as_string();
    req.items.reserve(doc->items.size());
    std::uint64_t prev_seq = 0;
    for (std::size_t i = 0; i < doc->items.size(); ++i) {
      MeshDoc& ji = doc->items[i];
      if (!ji.rest.is_object()) {
        set_error(error, "batch item " + std::to_string(i) +
                             " must be an object");
        return std::nullopt;
      }
      ObserveItem item;
      std::optional<std::uint64_t> seq;
      if (!observation_from_doc(ji, &item.mesh, &item.cp, &seq, &item.trace,
                                error)) {
        return std::nullopt;
      }
      // Present, strictly increasing seqs are the dedup contract; enforcing
      // it at the protocol boundary keeps the server's watermark logic
      // trivial.
      if (!seq || *seq <= prev_seq) {
        set_error(error, "batch item seqs must be strictly increasing");
        return std::nullopt;
      }
      item.seq = prev_seq = *seq;
      req.items.push_back(std::move(item));
    }
    if (!trace_from_json(j, &req.trace, error)) return std::nullopt;
    return Request{std::move(req)};
  }
  if (name == "query") {
    const auto session = get_session(j, error);
    if (!session) return std::nullopt;
    QueryRequest req{*session, std::nullopt};
    if (!trace_from_json(j, &req.trace, error)) return std::nullopt;
    return Request{std::move(req)};
  }
  if (name == "stats") return Request{StatsRequest{}};
  if (name == "metrics") return Request{MetricsRequest{}};
  if (name == "events") {
    const auto cursor = require_uint(j, "cursor", error);
    const auto cap = require_uint(j, "cap", error);
    if (!cursor || !cap) return std::nullopt;
    EventsRequest req;
    req.cursor = *cursor;
    req.cap = *cap;
    return Request{req};
  }
  if (name == "shutdown") return Request{ShutdownRequest{}};
  set_error(error, "unknown op '" + name + "'");
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Responses.

std::string serialize(const Response& rsp) {
  Json j = Json::object();
  j.set("v", Json::integer(kProtocolVersion));
  std::visit(
      [&j](const auto& r) {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, ErrorResponse>) {
          j.set("ok", Json::boolean(false));
          j.set("error", Json::string(r.message));
          if (!r.code.empty()) j.set("code", Json::string(r.code));
          if (r.retry_after_ms.has_value()) {
            j.set("retry_after_ms", Json::uinteger(*r.retry_after_ms));
          }
        } else if constexpr (std::is_same_v<T, HelloResponse>) {
          j.set("ok", Json::boolean(true));
          j.set("op", Json::string("hello"));
          j.set("session", Json::string(r.session));
          j.set("created", Json::boolean(r.created));
          j.set("config", session_config_to_json(r.config));
          if (r.epoch != 0) j.set("epoch", Json::uinteger(r.epoch));
        } else if constexpr (std::is_same_v<T, SetBaselineResponse>) {
          j.set("ok", Json::boolean(true));
          j.set("op", Json::string("set_baseline"));
          j.set("pairs", Json::uinteger(r.pairs));
        } else if constexpr (std::is_same_v<T, ObserveResponse>) {
          j.set("ok", Json::boolean(true));
          j.set("op", Json::string("observe"));
          j.set("round", Json::uinteger(r.round));
          j.set("alarmed", Json::boolean(r.alarmed));
          if (r.diagnosis.has_value()) {
            j.set("diagnosis", Json::raw(*r.diagnosis));
          }
        } else if constexpr (std::is_same_v<T, ObserveBatchResponse>) {
          j.set("ok", Json::boolean(true));
          j.set("op", Json::string("observe_batch"));
          j.set("ack", Json::uinteger(r.ack));
          j.set("applied", Json::uinteger(r.applied));
          j.set("deduped", Json::uinteger(r.deduped));
          j.set("round", Json::uinteger(r.round));
          j.set("alarmed", Json::boolean(r.alarmed));
          if (r.diagnosis.has_value()) {
            j.set("diagnosis", Json::raw(*r.diagnosis));
          }
        } else if constexpr (std::is_same_v<T, QueryResponse>) {
          j.set("ok", Json::boolean(true));
          j.set("op", Json::string("query"));
          j.set("round", Json::uinteger(r.round));
          if (r.diagnosis.has_value()) {
            j.set("diagnosis", Json::raw(*r.diagnosis));
          }
        } else if constexpr (std::is_same_v<T, StatsResponse>) {
          j.set("ok", Json::boolean(true));
          j.set("op", Json::string("stats"));
          j.set("stats", Json::raw(r.stats));
        } else if constexpr (std::is_same_v<T, MetricsResponse>) {
          j.set("ok", Json::boolean(true));
          j.set("op", Json::string("metrics"));
          j.set("text", Json::string(r.text));
        } else if constexpr (std::is_same_v<T, EventsResponse>) {
          j.set("ok", Json::boolean(true));
          j.set("op", Json::string("events"));
          j.set("next_cursor", Json::uinteger(r.next_cursor));
          Json evs = Json::array();
          for (const auto& ev : r.events) {
            Json je = Json::object();
            je.set("seq", Json::uinteger(ev.seq));
            je.set("t_ms", Json::uinteger(ev.t_ms));
            je.set("kind", Json::string(obs::event_kind_name(ev.kind)));
            je.set("detail", Json::string(ev.detail));
            if (ev.trace_id != 0) {
              je.set("trace",
                     Json::string(obs::format_trace_id(ev.trace_id)));
            }
            if (ev.dur_us != 0) je.set("dur_us", Json::uinteger(ev.dur_us));
            evs.push_back(std::move(je));
          }
          j.set("events", std::move(evs));
        } else if constexpr (std::is_same_v<T, ShutdownResponse>) {
          j.set("ok", Json::boolean(true));
          j.set("op", Json::string("shutdown"));
        }
      },
      rsp);
  return j.dump();
}

std::optional<Response> parse_response(std::string_view frame,
                                       std::string* error) {
  if (!frame_fits(frame, error)) return std::nullopt;
  const auto j = Json::parse(frame, error);
  if (!j || !versioned_object(*j, error)) return std::nullopt;
  const Json* ok = require(*j, "ok", Json::Type::kBool, error);
  if (ok == nullptr) return std::nullopt;
  if (!ok->as_bool()) {
    const Json* msg = require(*j, "error", Json::Type::kString, error);
    if (msg == nullptr) return std::nullopt;
    ErrorResponse err{msg->as_string(), "", std::nullopt};
    if (const Json* code = j->find("code"); code != nullptr) {
      if (!code->is_string()) {
        set_error(error, "error code must be a string");
        return std::nullopt;
      }
      err.code = code->as_string();
    }
    if (j->find("retry_after_ms") != nullptr) {
      const auto after = require_uint(*j, "retry_after_ms", error);
      if (!after) return std::nullopt;
      err.retry_after_ms = *after;
    }
    return Response{std::move(err)};
  }
  const Json* op = require(*j, "op", Json::Type::kString, error);
  if (op == nullptr) return std::nullopt;
  const std::string& name = op->as_string();

  if (name == "hello") {
    const auto session = get_session(*j, error);
    const Json* created = require(*j, "created", Json::Type::kBool, error);
    const Json* cfg = require(*j, "config", Json::Type::kObject, error);
    if (!session || created == nullptr || cfg == nullptr) return std::nullopt;
    const auto config = session_config_from_json(*cfg, error);
    if (!config) return std::nullopt;
    HelloResponse rsp{*session, created->as_bool(), *config};
    if (j->find("epoch") != nullptr) {
      const auto epoch = require_uint(*j, "epoch", error);
      if (!epoch) return std::nullopt;
      rsp.epoch = *epoch;
    }
    return Response{std::move(rsp)};
  }
  if (name == "set_baseline") {
    const auto pairs = require_uint(*j, "pairs", error);
    if (!pairs) return std::nullopt;
    return Response{SetBaselineResponse{*pairs}};
  }
  if (name == "observe") {
    const auto round = require_uint(*j, "round", error);
    const Json* alarmed = require(*j, "alarmed", Json::Type::kBool, error);
    if (!round || alarmed == nullptr) return std::nullopt;
    ObserveResponse rsp{*round, alarmed->as_bool(), std::nullopt};
    if (const Json* d = j->find("diagnosis"); d != nullptr) {
      if (!d->is_object()) {
        set_error(error, "diagnosis must be an object");
        return std::nullopt;
      }
      rsp.diagnosis = d->dump();
    }
    return Response{std::move(rsp)};
  }
  if (name == "observe_batch") {
    const auto ack = require_uint(*j, "ack", error);
    const auto applied = require_uint(*j, "applied", error);
    const auto deduped = require_uint(*j, "deduped", error);
    const auto round = require_uint(*j, "round", error);
    const Json* alarmed = require(*j, "alarmed", Json::Type::kBool, error);
    if (!ack || !applied || !deduped || !round || alarmed == nullptr) {
      return std::nullopt;
    }
    ObserveBatchResponse rsp;
    rsp.ack = *ack;
    rsp.applied = *applied;
    rsp.deduped = *deduped;
    rsp.round = *round;
    rsp.alarmed = alarmed->as_bool();
    if (const Json* d = j->find("diagnosis"); d != nullptr) {
      if (!d->is_object()) {
        set_error(error, "diagnosis must be an object");
        return std::nullopt;
      }
      rsp.diagnosis = d->dump();
    }
    return Response{std::move(rsp)};
  }
  if (name == "query") {
    const auto round = require_uint(*j, "round", error);
    if (!round) return std::nullopt;
    QueryResponse rsp{*round, std::nullopt};
    if (const Json* d = j->find("diagnosis"); d != nullptr) {
      if (!d->is_object()) {
        set_error(error, "diagnosis must be an object");
        return std::nullopt;
      }
      rsp.diagnosis = d->dump();
    }
    return Response{std::move(rsp)};
  }
  if (name == "stats") {
    const Json* stats = require(*j, "stats", Json::Type::kObject, error);
    if (stats == nullptr) return std::nullopt;
    return Response{StatsResponse{stats->dump()}};
  }
  if (name == "metrics") {
    const Json* text = require(*j, "text", Json::Type::kString, error);
    if (text == nullptr) return std::nullopt;
    return Response{MetricsResponse{text->as_string()}};
  }
  if (name == "events") {
    const auto next = require_uint(*j, "next_cursor", error);
    const Json* evs = require(*j, "events", Json::Type::kArray, error);
    if (!next || evs == nullptr) return std::nullopt;
    EventsResponse rsp;
    rsp.next_cursor = *next;
    rsp.events.reserve(evs->size());
    for (std::size_t i = 0; i < evs->size(); ++i) {
      const Json& je = (*evs)[i];
      if (!je.is_object()) {
        set_error(error, "event " + std::to_string(i) + " must be an object");
        return std::nullopt;
      }
      obs::Event ev;
      const auto seq = require_uint(je, "seq", error);
      const auto t_ms = require_uint(je, "t_ms", error);
      const Json* kind = require(je, "kind", Json::Type::kString, error);
      const Json* detail = require(je, "detail", Json::Type::kString, error);
      if (!seq || !t_ms || kind == nullptr || detail == nullptr) {
        return std::nullopt;
      }
      ev.seq = *seq;
      ev.t_ms = *t_ms;
      if (!obs::parse_event_kind(kind->as_string(), &ev.kind)) {
        set_error(error, "unknown event kind '" + kind->as_string() + "'");
        return std::nullopt;
      }
      ev.detail = detail->as_string();
      if (const Json* trace = je.find("trace"); trace != nullptr) {
        if (!trace->is_string() ||
            !obs::parse_trace_id(trace->as_string(), &ev.trace_id)) {
          set_error(error, "event trace must be a hex-string id");
          return std::nullopt;
        }
      }
      if (je.find("dur_us") != nullptr) {
        const auto dur = require_uint(je, "dur_us", error);
        if (!dur) return std::nullopt;
        ev.dur_us = *dur;
      }
      rsp.events.push_back(std::move(ev));
    }
    return Response{std::move(rsp)};
  }
  if (name == "shutdown") return Response{ShutdownResponse{}};
  set_error(error, "unknown op '" + name + "'");
  return std::nullopt;
}

}  // namespace netd::svc
