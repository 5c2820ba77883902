// Differential test of the typed wire codec (svc/codec.h) against the DOM
// path it replaced on the hot mesh carriers.
//
//   * Writer: for random meshes (labels with quotes, backslashes, control
//     bytes, multi-byte UTF-8 and empty labels; every hop kind; routers -1
//     and the largest id; empty hops and links) and every frame, journal
//     record and trace line kind, the typed bytes equal the DOM encoders'.
//   * Goldens: literal bytes captured from the DOM encoders before the
//     typed writer existed. Never regenerate them from the code.
//   * Reader: seeded mutations of every frame, record and line kind
//     (byte flips, truncation, insertion, duplicated, reordered and
//     escaped keys, numbers at the range limits, nesting at depth 96 and
//     97, added whitespace) give the same accept/reject decision, the
//     same decoded values and the same error text as Json::parse plus the
//     DOM decoders.
//
// The DOM side is this file's copy of the frame, record and trace-line
// codecs as they were before the typed codec, over the public
// mesh_to_json / mesh_from_json / cp_*_json oracles, with the strict
// integer rules (hop asn, dest_asn, "v":1) applied to both.
#include "svc/codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <climits>
#include <cstdint>
#include <random>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "obs/trace_context.h"
#include "svc/journal.h"
#include "svc/protocol.h"
#include "svc/trace.h"

namespace netd::svc {
namespace {

// ---------------------------------------------------------------------------
// The DOM oracle.

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

Json dom_frame_header() {
  Json j = Json::object();
  j.set("v", Json::integer(kProtocolVersion));
  return j;
}

std::string dom_serialize(const Request& req) {
  Json j = dom_frame_header();
  std::visit(
      [&j](const auto& r) {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, HelloRequest>) {
          j.set("op", Json::string("hello"));
          j.set("session", Json::string(r.session));
          j.set("config", session_config_to_json(r.config));
          if (r.trace.has_value()) j.set("trace", trace_to_json(*r.trace));
        } else if constexpr (std::is_same_v<T, SetBaselineRequest>) {
          j.set("op", Json::string("set_baseline"));
          j.set("session", Json::string(r.session));
          j.set("mesh", mesh_to_json(r.mesh));
          if (r.trace.has_value()) j.set("trace", trace_to_json(*r.trace));
        } else if constexpr (std::is_same_v<T, ObserveRequest>) {
          j.set("op", Json::string("observe"));
          j.set("session", Json::string(r.session));
          j.set("mesh", mesh_to_json(r.mesh));
          if (r.cp.has_value()) j.set("cp", cp_to_json(*r.cp));
          if (r.seq.has_value()) j.set("seq", Json::uinteger(*r.seq));
          if (r.trace.has_value()) j.set("trace", trace_to_json(*r.trace));
        } else if constexpr (std::is_same_v<T, ObserveBatchRequest>) {
          j.set("op", Json::string("observe_batch"));
          j.set("session", Json::string(r.session));
          j.set("src", Json::string(r.src));
          Json items = Json::array();
          for (const auto& item : r.items) {
            Json ji = Json::object();
            ji.set("seq", Json::uinteger(item.seq));
            ji.set("mesh", mesh_to_json(item.mesh));
            if (item.cp.has_value()) ji.set("cp", cp_to_json(*item.cp));
            if (item.trace.has_value()) {
              ji.set("trace", trace_to_json(*item.trace));
            }
            items.push_back(std::move(ji));
          }
          j.set("items", std::move(items));
          if (r.trace.has_value()) j.set("trace", trace_to_json(*r.trace));
        } else if constexpr (std::is_same_v<T, QueryRequest>) {
          j.set("op", Json::string("query"));
          j.set("session", Json::string(r.session));
          if (r.trace.has_value()) j.set("trace", trace_to_json(*r.trace));
        } else if constexpr (std::is_same_v<T, StatsRequest>) {
          j.set("op", Json::string("stats"));
        } else if constexpr (std::is_same_v<T, MetricsRequest>) {
          j.set("op", Json::string("metrics"));
        } else if constexpr (std::is_same_v<T, EventsRequest>) {
          j.set("op", Json::string("events"));
          j.set("cursor", Json::uinteger(r.cursor));
          j.set("cap", Json::uinteger(r.cap));
        } else if constexpr (std::is_same_v<T, ShutdownRequest>) {
          j.set("op", Json::string("shutdown"));
        }
      },
      req);
  return j.dump();
}

bool dom_observation(const Json& j, probe::Mesh* mesh,
                     std::optional<core::ControlPlaneObs>* cp,
                     std::optional<std::uint64_t>* seq,
                     std::optional<obs::TraceContext>* trace,
                     std::string* error) {
  const Json* m = require(j, "mesh", Json::Type::kObject, error);
  auto decoded = m != nullptr ? mesh_from_json(*m, error) : std::nullopt;
  if (!decoded) return false;
  *mesh = std::move(*decoded);
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

std::optional<std::string> dom_session(const Json& j, std::string* error) {
  const Json* s = require(j, "session", Json::Type::kString, error);
  if (s == nullptr) return std::nullopt;
  if (s->as_string().empty()) {
    set_error(error, "session name must not be empty");
    return std::nullopt;
  }
  return s->as_string();
}

std::optional<Request> dom_parse_request(std::string_view frame,
                                         std::string* error) {
  const auto j = Json::parse(frame, error);
  if (!j) return std::nullopt;
  if (!j->is_object()) {
    set_error(error, "frame must be a JSON object");
    return std::nullopt;
  }
  const Json* v = j->find("v");
  if (v == nullptr || v->as_uint() != 1u) {
    set_error(error, "field 'v' must be protocol version 1");
    return std::nullopt;
  }
  const Json* op = require(*j, "op", Json::Type::kString, error);
  if (op == nullptr) return std::nullopt;
  const std::string& name = op->as_string();
  if (name == "hello") {
    const auto session = dom_session(*j, error);
    const Json* cfg = require(*j, "config", Json::Type::kObject, error);
    if (!session || cfg == nullptr) return std::nullopt;
    const auto config = session_config_from_json(*cfg, error);
    if (!config) return std::nullopt;
    HelloRequest req{*session, *config, std::nullopt};
    if (!trace_from_json(*j, &req.trace, error)) return std::nullopt;
    return Request{std::move(req)};
  }
  if (name == "set_baseline") {
    const auto session = dom_session(*j, error);
    const Json* mesh = require(*j, "mesh", Json::Type::kObject, error);
    if (!session || mesh == nullptr) return std::nullopt;
    auto m = mesh_from_json(*mesh, error);
    if (!m) return std::nullopt;
    SetBaselineRequest req{*session, std::move(*m), std::nullopt};
    if (!trace_from_json(*j, &req.trace, error)) return std::nullopt;
    return Request{std::move(req)};
  }
  if (name == "observe") {
    const auto session = dom_session(*j, error);
    if (!session) return std::nullopt;
    ObserveRequest req;
    req.session = *session;
    if (!dom_observation(*j, &req.mesh, &req.cp, &req.seq, &req.trace,
                         error)) {
      return std::nullopt;
    }
    return Request{std::move(req)};
  }
  if (name == "observe_batch") {
    const auto session = dom_session(*j, error);
    const Json* src = require(*j, "src", Json::Type::kString, error);
    const Json* items = require(*j, "items", Json::Type::kArray, error);
    if (!session || src == nullptr || items == nullptr) return std::nullopt;
    if (src->as_string().empty()) {
      set_error(error, "src must not be empty");
      return std::nullopt;
    }
    ObserveBatchRequest req;
    req.session = *session;
    req.src = src->as_string();
    std::uint64_t prev_seq = 0;
    for (std::size_t i = 0; i < items->size(); ++i) {
      const Json& ji = (*items)[i];
      if (!ji.is_object()) {
        set_error(error, "batch item " + std::to_string(i) +
                             " must be an object");
        return std::nullopt;
      }
      ObserveItem item;
      std::optional<std::uint64_t> seq;
      if (!dom_observation(ji, &item.mesh, &item.cp, &seq, &item.trace,
                           error)) {
        return std::nullopt;
      }
      if (!seq || *seq <= prev_seq) {
        set_error(error, "batch item seqs must be strictly increasing");
        return std::nullopt;
      }
      item.seq = prev_seq = *seq;
      req.items.push_back(std::move(item));
    }
    if (!trace_from_json(*j, &req.trace, error)) return std::nullopt;
    return Request{std::move(req)};
  }
  if (name == "query") {
    const auto session = dom_session(*j, error);
    if (!session) return std::nullopt;
    QueryRequest req{*session, std::nullopt};
    if (!trace_from_json(*j, &req.trace, error)) return std::nullopt;
    return Request{std::move(req)};
  }
  if (name == "stats") return Request{StatsRequest{}};
  if (name == "metrics") return Request{MetricsRequest{}};
  if (name == "events") {
    const auto cursor = require_uint(*j, "cursor", error);
    const auto cap = require_uint(*j, "cap", error);
    if (!cursor || !cap) return std::nullopt;
    return Request{EventsRequest{*cursor, *cap}};
  }
  if (name == "shutdown") return Request{ShutdownRequest{}};
  set_error(error, "unknown op '" + name + "'");
  return std::nullopt;
}

/// The journal records as the server built them with the DOM.
std::string dom_baseline_record(const probe::Mesh& mesh) {
  Json j = Json::object();
  j.set("t", Json::string("baseline"));
  j.set("mesh", mesh_to_json(mesh));
  return j.dump();
}

std::string dom_observation_record(const std::string& src,
                                   std::optional<std::uint64_t> seq,
                                   const probe::Mesh& mesh,
                                   const core::ControlPlaneObs* cp) {
  Json j = Json::object();
  if (src.empty()) {
    j.set("t", Json::string("obs"));
    j.set("mesh", mesh_to_json(mesh));
    if (cp != nullptr) j.set("cp", cp_to_json(*cp));
    if (seq.has_value()) j.set("seq", Json::uinteger(*seq));
  } else {
    j.set("t", Json::string("bobs"));
    j.set("src", Json::string(src));
    j.set("seq", Json::uinteger(seq.value_or(0)));
    j.set("mesh", mesh_to_json(mesh));
    if (cp != nullptr) j.set("cp", cp_to_json(*cp));
  }
  return j.dump();
}

/// TraceRecorder's lines as it built them with the DOM.
std::string dom_trace_line(const TraceRecord& rec) {
  Json j = Json::object();
  j.set("v", Json::integer(kProtocolVersion));
  switch (rec.type) {
    case TraceRecord::Type::kConfig:
      j.set("type", Json::string("config"));
      j.set("config", session_config_to_json(rec.config));
      break;
    case TraceRecord::Type::kBaseline:
    case TraceRecord::Type::kRound:
      j.set("type", Json::string(rec.type == TraceRecord::Type::kBaseline
                                     ? "baseline"
                                     : "round"));
      j.set("mesh", mesh_to_json(rec.mesh));
      if (rec.type == TraceRecord::Type::kRound && rec.cp.has_value()) {
        j.set("cp", cp_to_json(*rec.cp));
      }
      break;
    case TraceRecord::Type::kDiagnosis:
      j.set("type", Json::string("diagnosis"));
      j.set("round", Json::uinteger(rec.round));
      j.set("diagnosis", Json::raw(rec.diagnosis));
      break;
  }
  return j.dump();
}

/// One trace line through Json::parse and the DOM decoders, checked in
/// parse_trace_line's order.
std::optional<TraceRecord> dom_parse_trace_line(std::string_view line,
                                                std::string* error) {
  std::string why;
  auto fail = [&](const std::string& what) {
    *error = what.empty() ? why : what;
    return std::nullopt;
  };
  const auto j = Json::parse(line, &why);
  if (!j) return fail("");
  if (!j->is_object()) return fail("not a JSON object");
  const Json* v = j->find("v");
  if (v == nullptr || v->as_uint() != 1u) {
    return fail("field 'v' must be trace version 1");
  }
  const Json* type = j->find("type");
  if (type == nullptr || !type->is_string()) {
    return fail("missing record type");
  }
  const std::string& name = type->as_string();
  TraceRecord rec;
  if (name == "config") {
    const Json* cfg = j->find("config");
    if (cfg == nullptr) return fail("missing config");
    auto parsed = session_config_from_json(*cfg, &why);
    if (!parsed) return fail("");
    rec.type = TraceRecord::Type::kConfig;
    rec.config = *parsed;
  } else if (name == "baseline" || name == "round") {
    const Json* mesh = j->find("mesh");
    if (mesh == nullptr) return fail("missing mesh");
    auto parsed = mesh_from_json(*mesh, &why);
    if (!parsed) return fail("");
    rec.mesh = std::move(*parsed);
    rec.type = name == "baseline" ? TraceRecord::Type::kBaseline
                                  : TraceRecord::Type::kRound;
    if (const Json* cp = j->find("cp"); cp != nullptr && name == "round") {
      auto obs = cp_from_json(*cp, &why);
      if (!obs) return fail("");
      rec.cp = std::move(*obs);
    }
  } else if (name == "diagnosis") {
    const Json* round = j->find("round");
    const Json* doc = j->find("diagnosis");
    if (round == nullptr || !round->is_number() || doc == nullptr ||
        !doc->is_object()) {
      return fail("diagnosis needs round + diagnosis object");
    }
    rec.type = TraceRecord::Type::kDiagnosis;
    rec.round = round->as_uint().value_or(0);
    rec.diagnosis = doc->dump();
  } else {
    return fail("unknown record type '" + name + "'");
  }
  return rec;
}

// ---------------------------------------------------------------------------
// Random inputs.

using Rng = std::mt19937_64;

std::uint64_t pick(Rng& rng, std::uint64_t n) { return rng() % n; }

/// Labels that stress escaping: quotes, backslashes, control bytes,
/// multi-byte UTF-8 (2, 3 and 4 bytes), DEL, and the empty label.
std::string random_label(Rng& rng) {
  static const std::vector<std::string> kLabels = {
      "",          "s0",         "AS12:r3",      "q\"b",
      "back\\sl",  "/slash",     "\x01\x1f",     "\n\r\t\b\f",
      "\x7f",      "Z\xC3\xBCrich", "\xE6\x9D\xB1\xE4\xBA\xAC",
      "\xF0\x9F\x98\x80", "*7", "AS5|AS6",
  };
  std::string s = kLabels[pick(rng, kLabels.size())];
  if (pick(rng, 3) == 0) s += kLabels[pick(rng, kLabels.size())];
  return s;
}

int random_asn(Rng& rng) {
  switch (pick(rng, 6)) {
    case 0: return INT_MIN;
    case 1: return -1;
    case 2: return 0;
    case 3: return INT_MAX;
    default: return static_cast<int>(pick(rng, 70000));
  }
}

std::uint32_t random_id(Rng& rng) {
  switch (pick(rng, 4)) {
    case 0: return 0;
    case 1: return static_cast<std::uint32_t>(kMaxMeshId);
    default: return static_cast<std::uint32_t>(pick(rng, kMaxMeshId + 1));
  }
}

/// A random mesh. With `decodable`, every ok path has a hop, so the mesh
/// decodes back; otherwise anything the writer may be handed.
probe::Mesh random_mesh(Rng& rng, std::size_t max_paths, bool decodable) {
  static const graph::NodeKind kKinds[] = {
      graph::NodeKind::kRouter, graph::NodeKind::kSensor,
      graph::NodeKind::kUnidentified, graph::NodeKind::kLogical};
  probe::Mesh mesh;
  const std::size_t paths = pick(rng, max_paths + 1);
  for (std::size_t i = 0; i < paths; ++i) {
    probe::TracePath p;
    p.src = pick(rng, 5) == 0 ? UINT64_MAX : pick(rng, 40);
    p.dst = pick(rng, 5) == 0 ? rng() : pick(rng, 40);
    p.ok = pick(rng, 2) == 0;
    std::size_t hops = pick(rng, 5);
    if (decodable && p.ok && hops == 0) hops = 1;
    for (std::size_t k = 0; k < hops; ++k) {
      probe::Hop h;
      h.label = random_label(rng);
      h.kind = kKinds[pick(rng, 4)];
      h.asn = random_asn(rng);
      if (pick(rng, 2) == 0) h.router = topo::RouterId{random_id(rng)};
      p.hops.push_back(std::move(h));
    }
    const std::size_t links = pick(rng, 4);
    for (std::size_t k = 0; k < links; ++k) {
      p.links.push_back(topo::LinkId{random_id(rng)});
    }
    mesh.paths.push_back(std::move(p));
  }
  return mesh;
}

std::optional<core::ControlPlaneObs> random_cp(Rng& rng) {
  if (pick(rng, 2) == 0) return std::nullopt;
  core::ControlPlaneObs cp;
  for (std::size_t i = pick(rng, 3); i > 0; --i) {
    cp.igp_down_keys.push_back(random_label(rng));
  }
  for (std::size_t i = pick(rng, 3); i > 0; --i) {
    cp.withdrawals.push_back({random_label(rng), random_asn(rng)});
  }
  return cp;
}

std::optional<obs::TraceContext> random_trace(Rng& rng) {
  if (pick(rng, 2) == 0) return std::nullopt;
  return obs::TraceContext::root(rng(), pick(rng, 1000));
}

std::optional<std::uint64_t> random_seq(Rng& rng) {
  if (pick(rng, 3) == 0) return std::nullopt;
  return pick(rng, 4) == 0 ? UINT64_MAX : 1 + pick(rng, 1000);
}

/// One request of each hot kind (0 set_baseline, 1 observe, 2 batch).
Request random_request(Rng& rng, int kind, std::size_t max_paths,
                       bool decodable) {
  const std::string session = pick(rng, 4) == 0 ? "n\"oc" : "noc-1";
  if (kind == 0) {
    return SetBaselineRequest{session, random_mesh(rng, max_paths, decodable),
                              random_trace(rng)};
  }
  if (kind == 1) {
    ObserveRequest r{session, random_mesh(rng, max_paths, decodable),
                     random_cp(rng), random_seq(rng)};
    r.trace = random_trace(rng);
    return r;
  }
  ObserveBatchRequest b{session, pick(rng, 4) == 0 ? "a\\gent" : "agent-3",
                        {}, random_trace(rng)};
  std::uint64_t seq = pick(rng, 10);
  for (std::size_t i = pick(rng, 4); i > 0; --i) {
    seq += 1 + pick(rng, 3);
    b.items.push_back(ObserveItem{seq, random_mesh(rng, max_paths, decodable),
                                  random_cp(rng), random_trace(rng)});
  }
  return b;
}

// ---------------------------------------------------------------------------
// Writer.

TEST(CodecDifferential, WriterMatchesTheDomEncodersByteForByte) {
  Rng rng(20261017);
  SessionConfig cfg;
  cfg.algo = "tomo";
  for (int iter = 0; iter < 400; ++iter) {
    const probe::Mesh mesh = random_mesh(rng, 4, /*decodable=*/false);
    std::string typed;
    append_mesh(typed, mesh);
    ASSERT_EQ(typed, mesh_to_json(mesh).dump()) << "iteration " << iter;
    for (int kind = 0; kind < 3; ++kind) {
      const Request req = random_request(rng, kind, 4, false);
      ASSERT_EQ(serialize(req), dom_serialize(req)) << "iteration " << iter;
    }
    const auto cp = random_cp(rng);
    const core::ControlPlaneObs* cpp = cp ? &*cp : nullptr;
    const auto seq = random_seq(rng);
    ASSERT_EQ(baseline_record(mesh), dom_baseline_record(mesh));
    ASSERT_EQ(observation_record("", seq, mesh, cpp),
              dom_observation_record("", seq, mesh, cpp));
    ASSERT_EQ(observation_record("agent-3", seq.value_or(9), mesh, cpp),
              dom_observation_record("agent-3", seq.value_or(9), mesh, cpp));
    TraceRecord rec;
    rec.mesh = mesh;
    for (const auto type :
         {TraceRecord::Type::kConfig, TraceRecord::Type::kBaseline,
          TraceRecord::Type::kRound, TraceRecord::Type::kDiagnosis}) {
      rec.type = type;
      rec.config = cfg;
      rec.cp = type == TraceRecord::Type::kRound ? cp : std::nullopt;
      rec.round = pick(rng, 50);
      rec.diagnosis = R"({"pairs":2,"hypothesis":[]})";
      ASSERT_EQ(trace_line(rec), dom_trace_line(rec));
    }
  }
  // The cold verbs share the writer's frame opening.
  const obs::TraceContext tc = obs::TraceContext::root(3, 1);
  for (const Request& req : std::vector<Request>{
           HelloRequest{"s", cfg, std::nullopt}, HelloRequest{"s", cfg, tc},
           QueryRequest{"s", tc}, QueryRequest{"s", std::nullopt},
           StatsRequest{}, MetricsRequest{}, EventsRequest{7, UINT64_MAX},
           ShutdownRequest{},
           ObserveBatchRequest{"s", "a", {}, std::nullopt}}) {
    EXPECT_EQ(serialize(req), dom_serialize(req));
  }
}

// ---------------------------------------------------------------------------
// Goldens: the DOM encoders' bytes for these inputs, captured before the
// typed writer existed.

probe::Mesh golden_mesh() {
  probe::Mesh mesh;
  probe::TracePath p0;
  p0.src = 0;
  p0.dst = 1;
  p0.ok = true;
  p0.hops = {
      {"s0", graph::NodeKind::kSensor, 4, topo::RouterId{}},
      {"AS0:r1", graph::NodeKind::kRouter, 0, topo::RouterId{7}},
      {"*3", graph::NodeKind::kUnidentified, -1, topo::RouterId{}},
      {"q\"b\\s/\x01\x1f\n\xC3\xA9\xE6\x9D\xB1", graph::NodeKind::kLogical,
       INT_MAX, topo::RouterId{4294967294u}},
      {"s1", graph::NodeKind::kSensor, INT_MIN, topo::RouterId{}},
  };
  p0.links = {topo::LinkId{0}, topo::LinkId{4294967294u}};
  probe::TracePath p1;
  p1.src = 1;
  p1.dst = 0;
  p1.ok = false;
  p1.hops = {{"", graph::NodeKind::kSensor, 5, topo::RouterId{}}};
  probe::TracePath p2;
  p2.src = 2;
  p2.dst = UINT64_MAX;
  p2.ok = false;
  mesh.paths = {p0, p1, p2};
  return mesh;
}

core::ControlPlaneObs golden_cp() {
  core::ControlPlaneObs cp;
  cp.igp_down_keys = {"AS0:r1-AS0:r2"};
  cp.withdrawals.push_back({"AS3>AS4", 5});
  cp.withdrawals.push_back({"AS4>AS3", -1});
  return cp;
}

const char kGoldenObserve[] =
    "{\"v\":1,\"op\":\"observe\",\"session\":\"noc-1\",\"mesh\":{\"path"
    "s\":[{\"src\":0,\"dst\":1,\"ok\":true,\"hops\":[[\"s0\",\"s\",4,-1"
    "],[\"AS0:r1\",\"r\",0,7],[\"*3\",\"u\",-1,-1],[\"q\\\"b\\\\s/\\u00"
    "01\\u001f\\n\303\251\346\235\261\",\"l\",2147483647,4294967294],["
    "\"s1\",\"s\",-2147483648,-1]],\"links\":[0,4294967294]},{\"src\":1"
    ",\"dst\":0,\"ok\":false,\"hops\":[[\"\",\"s\",5,-1]],\"links\":[]}"
    ",{\"src\":2,\"dst\":18446744073709551615,\"ok\":false,\"hops\":[],"
    "\"links\":[]}]},\"cp\":{\"igp\":[\"AS0:r1-AS0:r2\"],\"wd\":[[\"AS3"
    ">AS4\",5],[\"AS4>AS3\",-1]]},\"seq\":17,\"trace\":{\"tid\":\"0x253"
    "4bf918b4b87cf\",\"sid\":\"0x2534bf918b4b87cf\"}}";

const char kGoldenObserveBatch[] =
    "{\"v\":1,\"op\":\"observe_batch\",\"session\":\"noc-1\",\"src\":\""
    "sensor-0\",\"items\":[{\"seq\":4,\"mesh\":{\"paths\":[{\"src\":0,"
    "\"dst\":1,\"ok\":true,\"hops\":[[\"s0\",\"s\",4,-1],[\"AS0:r1\",\""
    "r\",0,7],[\"*3\",\"u\",-1,-1],[\"q\\\"b\\\\s/\\u0001\\u001f\\n\303"
    "\251\346\235\261\",\"l\",2147483647,4294967294],[\"s1\",\"s\",-214"
    "7483648,-1]],\"links\":[0,4294967294]},{\"src\":1,\"dst\":0,\"ok\""
    ":false,\"hops\":[[\"\",\"s\",5,-1]],\"links\":[]},{\"src\":2,\"dst"
    "\":18446744073709551615,\"ok\":false,\"hops\":[],\"links\":[]}]}},"
    "{\"seq\":5,\"mesh\":{\"paths\":[{\"src\":0,\"dst\":1,\"ok\":true,"
    "\"hops\":[[\"s0\",\"s\",4,-1],[\"AS0:r1\",\"r\",0,7],[\"*3\",\"u\""
    ",-1,-1],[\"q\\\"b\\\\s/\\u0001\\u001f\\n\303\251\346\235\261\",\"l"
    "\",2147483647,4294967294],[\"s1\",\"s\",-2147483648,-1]],\"links\""
    ":[0,4294967294]},{\"src\":1,\"dst\":0,\"ok\":false,\"hops\":[[\"\""
    ",\"s\",5,-1]],\"links\":[]},{\"src\":2,\"dst\":1844674407370955161"
    "5,\"ok\":false,\"hops\":[],\"links\":[]}]},\"cp\":{\"igp\":[\"AS0:"
    "r1-AS0:r2\"],\"wd\":[[\"AS3>AS4\",5],[\"AS4>AS3\",-1]]},\"trace\":"
    "{\"tid\":\"0x2534bf918b4b87cf\",\"sid\":\"0x626e5f4de7c40a49\"}}],"
    "\"trace\":{\"tid\":\"0x2534bf918b4b87cf\",\"sid\":\"0x2534bf918b4b"
    "87cf\"}}";

const char kGoldenBobsRecord[] =
    "{\"t\":\"bobs\",\"src\":\"sensor-0\",\"seq\":5,\"mesh\":{\"paths\""
    ":[{\"src\":0,\"dst\":1,\"ok\":true,\"hops\":[[\"s0\",\"s\",4,-1],["
    "\"AS0:r1\",\"r\",0,7],[\"*3\",\"u\",-1,-1],[\"q\\\"b\\\\s/\\u0001"
    "\\u001f\\n\303\251\346\235\261\",\"l\",2147483647,4294967294],[\"s"
    "1\",\"s\",-2147483648,-1]],\"links\":[0,4294967294]},{\"src\":1,\""
    "dst\":0,\"ok\":false,\"hops\":[[\"\",\"s\",5,-1]],\"links\":[]},{"
    "\"src\":2,\"dst\":18446744073709551615,\"ok\":false,\"hops\":[],\""
    "links\":[]}]},\"cp\":{\"igp\":[\"AS0:r1-AS0:r2\"],\"wd\":[[\"AS3>A"
    "S4\",5],[\"AS4>AS3\",-1]]}}";

const char kGoldenTraceRound[] =
    "{\"v\":1,\"type\":\"round\",\"mesh\":{\"paths\":[{\"src\":0,\"dst"
    "\":1,\"ok\":true,\"hops\":[[\"s0\",\"s\",4,-1],[\"AS0:r1\",\"r\",0"
    ",7],[\"*3\",\"u\",-1,-1],[\"q\\\"b\\\\s/\\u0001\\u001f\\n\303\251"
    "\346\235\261\",\"l\",2147483647,4294967294],[\"s1\",\"s\",-2147483"
    "648,-1]],\"links\":[0,4294967294]},{\"src\":1,\"dst\":0,\"ok\":fal"
    "se,\"hops\":[[\"\",\"s\",5,-1]],\"links\":[]},{\"src\":2,\"dst\":1"
    "8446744073709551615,\"ok\":false,\"hops\":[],\"links\":[]}]},\"cp"
    "\":{\"igp\":[\"AS0:r1-AS0:r2\"],\"wd\":[[\"AS3>AS4\",5],[\"AS4>AS3"
    "\",-1]]}}";

TEST(CodecDifferential, GoldenBytesArePinned) {
  const auto tc = obs::TraceContext::root(11, 4);
  ObserveRequest observe{"noc-1", golden_mesh(), golden_cp(), 17};
  observe.trace = tc;
  EXPECT_EQ(serialize(Request{observe}), kGoldenObserve);

  ObserveBatchRequest batch{"noc-1", "sensor-0", {}, tc};
  batch.items.push_back(
      ObserveItem{4, golden_mesh(), std::nullopt, std::nullopt});
  batch.items.push_back(
      ObserveItem{5, golden_mesh(), golden_cp(), tc.child("x", 2)});
  EXPECT_EQ(serialize(Request{batch}), kGoldenObserveBatch);

  const core::ControlPlaneObs cp = golden_cp();
  EXPECT_EQ(observation_record("sensor-0", 5, golden_mesh(), &cp),
            kGoldenBobsRecord);

  TraceRecord round;
  round.type = TraceRecord::Type::kRound;
  round.mesh = golden_mesh();
  round.cp = cp;
  EXPECT_EQ(trace_line(round), kGoldenTraceRound);

  // And they read back to the same bytes.
  std::string error;
  const auto back = parse_request(kGoldenObserveBatch, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(serialize(*back), kGoldenObserveBatch);
  const auto line = parse_trace_line(kGoldenTraceRound, &error);
  ASSERT_TRUE(line.has_value()) << error;
  EXPECT_EQ(trace_line(*line), kGoldenTraceRound);
}

// ---------------------------------------------------------------------------
// Reader.

/// `doc` rebuilt with the members of one random object (at any depth) in
/// a random order; other containers are copied as they are.
Json reorder(const Json& doc, Rng& rng, bool* done) {
  if (doc.is_array()) {
    Json out = Json::array();
    for (std::size_t i = 0; i < doc.size(); ++i) {
      out.push_back(reorder(doc[i], rng, done));
    }
    return out;
  }
  if (!doc.is_object()) return doc;
  std::vector<std::size_t> order(doc.members().size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (!*done && order.size() > 1 && pick(rng, 3) == 0) {
    std::shuffle(order.begin(), order.end(), rng);
    *done = true;
  }
  Json out = Json::object();
  for (const std::size_t i : order) {
    const auto& [k, v] = doc.members()[i];
    out.set(k, reorder(v, rng, done));
  }
  return out;
}

/// Where each `"key":` starts in `s` (byte offsets of the opening quote).
std::vector<std::size_t> key_offsets(const std::string& s) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i + 2 < s.size(); ++i) {
    if (s[i] != '"') continue;
    std::size_t k = i + 1;
    while (k < s.size() && (std::isalnum(static_cast<unsigned char>(s[k])) ||
                            s[k] == '_')) {
      ++k;
    }
    if (k > i + 1 && k + 1 < s.size() && s[k] == '"' && s[k + 1] == ':') {
      out.push_back(i);
    }
  }
  return out;
}

/// Offsets and lengths of integer-looking tokens outside strings, with
/// the container depth at each.
struct Token {
  std::size_t at, len, depth;
};

std::vector<Token> number_tokens(const std::string& s) {
  std::vector<Token> out;
  bool in_string = false;
  std::size_t depth = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '[' || c == '{') {
      ++depth;
    } else if (c == ']' || c == '}') {
      depth = depth > 0 ? depth - 1 : 0;
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      std::size_t k = i + 1;
      while (k < s.size() && ((s[k] >= '0' && s[k] <= '9') || s[k] == '.' ||
                              s[k] == 'e' || s[k] == 'E' || s[k] == '+' ||
                              s[k] == '-')) {
        ++k;
      }
      out.push_back({i, k - i, depth});
      i = k - 1;
    }
  }
  return out;
}

std::string escaped_char(char c) {
  static const char kHex[] = "0123456789abcdef";
  const auto u = static_cast<unsigned char>(c);
  return std::string("\\u00") + kHex[u >> 4] + kHex[u & 15];
}

/// One to three stacked mutations of `s`.
std::string mutate(std::string s, Rng& rng) {
  static const std::vector<std::string> kSnippets = {
      ",",    ":",      "\"",     "\\",       "]",       "}",      "[",
      "{",    "null",   "true",   "-",        "0",       "1e",     "\\u",
      "\\ud800", "\"\\udc00\"", "\x01", "\xC3\xA9", "\xFF", "\"x\":1,",
      "[]",   "{}",     "0.",     "\"mesh\":{},", "\"items\":[],",
  };
  static const std::vector<std::string> kLimits = {
      "0",          "-0",          "1",           "-1",
      "2147483647", "2147483648",  "-2147483648", "-2147483649",
      "4294967294", "4294967295",  "4294967296",  "18446744073709551615",
      "18446744073709551616",      "1.0",         "1e0",
      "1.5",        "7.0",         "01",          "-",
      "1e",         "1.",          "9e99999",     "-9223372036854775809",
  };
  static const std::vector<std::string> kValues = {
      "0", "1", "[]", "{}", "\"s\"", "true", "null", "[[\"a\",\"r\",1,2]]",
      "{\"paths\":[]}",
  };
  const std::size_t n = 1 + pick(rng, 3);
  for (std::size_t m = 0; m < n; ++m) {
    const auto at = [&rng, &s] { return pick(rng, s.size() + 1); };
    switch (pick(rng, 10)) {
      case 0:  // byte flip
        if (!s.empty()) {
          s[pick(rng, s.size())] =
              pick(rng, 2) == 0
                  ? static_cast<char>(pick(rng, 256))
                  : "{}[]:,\"\\ -0.e1tfnu"[pick(rng, 19)];
        }
        break;
      case 1:  // truncation
        s.resize(pick(rng, s.size() + 1));
        break;
      case 2:  // insertion
        s.insert(at(), kSnippets[pick(rng, kSnippets.size())]);
        break;
      case 3:    // a duplicated key, spelled plainly or escaped
      case 4: {  // an escaped key
        const auto keys = key_offsets(s);
        if (keys.empty()) break;
        const std::size_t k = keys[pick(rng, keys.size())];
        const std::size_t end = s.find('"', k + 1);
        std::string key = s.substr(k + 1, end - k - 1);
        if (pick(rng, 2) == 0) {
          const std::size_t c = pick(rng, key.size());
          key = key.substr(0, c) + escaped_char(key[c]) + key.substr(c + 1);
        }
        if (m % 2 == 0 && pick(rng, 2) == 0) {
          s.insert(k, "\"" + key + "\":" + kValues[pick(rng, kValues.size())] +
                          ",");
        } else {
          s.replace(k + 1, end - k - 1, key);
        }
        break;
      }
      case 5: {  // reordered keys
        const auto doc = Json::parse(s);
        bool done = false;
        if (doc.has_value()) s = reorder(*doc, rng, &done).dump();
        break;
      }
      case 6: {  // a number at a range limit
        const auto nums = number_tokens(s);
        if (nums.empty()) break;
        const Token t = nums[pick(rng, nums.size())];
        s.replace(t.at, t.len, kLimits[pick(rng, kLimits.size())]);
        break;
      }
      case 7: {  // nesting at exactly the bound, or one past it
        const auto nums = number_tokens(s);
        if (nums.empty()) break;
        const Token t = nums[pick(rng, nums.size())];
        if (t.depth >= Json::kMaxParseDepth) break;
        // The token sits inside t.depth containers; k arrays around a
        // scalar put the innermost at depth t.depth + k - 1, and parsing
        // allows depths below Json::kMaxParseDepth.
        const std::size_t limit = Json::kMaxParseDepth - t.depth;
        const std::size_t k = pick(rng, 2) == 0 ? limit : limit + 1;
        s.replace(t.at, t.len, std::string(k, '[') + "0" + std::string(k, ']'));
        break;
      }
      case 8: {  // whitespace
        static const char kWs[] = " \t\n\r";
        std::string ws;
        for (std::size_t i = 1 + pick(rng, 3); i > 0; --i) {
          ws += kWs[pick(rng, 4)];
        }
        s.insert(at(), ws);
        break;
      }
      default: {  // deletion
        const std::size_t from = pick(rng, s.size() + 1);
        s.erase(from, pick(rng, 8));
        break;
      }
    }
  }
  return s;
}

/// A parse outcome in comparable form: the error text, or the decoded
/// values rendered by the DOM encoders.
std::string mesh_outcome(const std::optional<probe::Mesh>& mesh,
                         const std::string& error) {
  return mesh ? "mesh " + mesh_to_json(*mesh).dump() : "error: " + error;
}

std::string typed_doc(std::string_view text, std::string_view key) {
  std::string error;
  auto doc = parse_mesh_doc(text, key, false, &error);
  if (!doc) return "reject: " + error;
  std::string out = "rest " + doc->rest.dump() + " | ";
  switch (doc->mesh.state) {
    case MeshMember::State::kAbsent:
      return out + "absent";
    case MeshMember::State::kNotObject:
      return out + "not an object";
    default: {
      std::string why;
      const auto mesh = doc->mesh.take(&why);
      return out + mesh_outcome(mesh, why);
    }
  }
}

std::string dom_doc(std::string_view text, std::string_view key) {
  std::string error;
  const auto j = Json::parse(text, &error);
  if (!j) return "reject: " + error;
  if (!j->is_object()) return "rest " + j->dump() + " | absent";
  Json rest = Json::object();
  const Json* mesh = nullptr;
  for (const auto& [k, v] : j->members()) {
    if (k == key) {
      mesh = &v;
    } else {
      rest.set(k, v);
    }
  }
  std::string out = "rest " + rest.dump() + " | ";
  if (mesh == nullptr) return out + "absent";
  if (!mesh->is_object()) return out + "not an object";
  std::string why;
  const auto decoded = mesh_from_json(*mesh, &why);
  return out + mesh_outcome(decoded, why);
}

std::string typed_request(std::string_view text) {
  std::string error;
  const auto req = parse_request(text, &error);
  return req ? "ok " + dom_serialize(*req) : "error: " + error;
}

std::string dom_request(std::string_view text) {
  std::string error;
  const auto req = dom_parse_request(text, &error);
  return req ? "ok " + dom_serialize(*req) : "error: " + error;
}

std::string typed_line(std::string_view text) {
  std::string error;
  const auto rec = parse_trace_line(text, &error);
  return rec ? "ok " + dom_trace_line(*rec) : "error: " + error;
}

std::string dom_line(std::string_view text) {
  std::string error;
  const auto rec = dom_parse_trace_line(text, &error);
  return rec ? "ok " + dom_trace_line(*rec) : "error: " + error;
}

std::string typed_mesh(std::string_view text) {
  std::string error;
  const auto mesh = parse_mesh(text, &error);
  return mesh_outcome(mesh, error);
}

std::string dom_mesh(std::string_view text) {
  std::string error;
  const auto j = Json::parse(text, &error);
  if (!j) return mesh_outcome(std::nullopt, error);
  const auto mesh = mesh_from_json(*j, &error);
  return mesh_outcome(mesh, error);
}

/// One carrier kind: how to make a valid document, and the typed and DOM
/// readers to hold against each other.
struct Carrier {
  const char* name;
  std::string (*make)(Rng&);
  std::string (*typed)(std::string_view);
  std::string (*dom)(std::string_view);
};

std::string request_text(Rng& rng, int kind) {
  return serialize(random_request(rng, kind, 3, /*decodable=*/true));
}

std::string snapshot_text(Rng& rng) {
  Json j = Json::object();
  j.set("wal", Json::uinteger(pick(rng, 100)));
  j.set("config", session_config_to_json(SessionConfig{}));
  j.set("round", Json::uinteger(3));
  j.set("diagnosis_round", Json::uinteger(2));
  Json acks = Json::object();
  acks.set("agent-3", Json::uinteger(7));
  j.set("src_acks", std::move(acks));
  std::string baseline;
  append_mesh(baseline, random_mesh(rng, 3, true));
  j.set("baseline", Json::raw(std::move(baseline)));
  Json det = Json::object();
  det.set("fails", Json::array());
  det.set("alarmed", Json::array());
  j.set("detector", std::move(det));
  return j.dump();
}

TraceRecord random_record(Rng& rng, TraceRecord::Type type) {
  TraceRecord rec;
  rec.type = type;
  rec.mesh = random_mesh(rng, 3, true);
  if (type == TraceRecord::Type::kRound) rec.cp = random_cp(rng);
  return rec;
}

const Carrier kCarriers[] = {
    {"set_baseline frame", [](Rng& r) { return request_text(r, 0); },
     typed_request, dom_request},
    {"observe frame", [](Rng& r) { return request_text(r, 1); },
     typed_request, dom_request},
    {"observe_batch frame", [](Rng& r) { return request_text(r, 2); },
     typed_request, dom_request},
    {"baseline record",
     [](Rng& r) { return baseline_record(random_mesh(r, 3, true)); },
     [](std::string_view t) { return typed_doc(t, "mesh"); },
     [](std::string_view t) { return dom_doc(t, "mesh"); }},
    {"obs record",
     [](Rng& r) {
       const auto cp = random_cp(r);
       return observation_record("", random_seq(r), random_mesh(r, 3, true),
                                 cp ? &*cp : nullptr);
     },
     [](std::string_view t) { return typed_doc(t, "mesh"); },
     [](std::string_view t) { return dom_doc(t, "mesh"); }},
    {"bobs record",
     [](Rng& r) {
       const auto cp = random_cp(r);
       return observation_record("agent-3", 1 + pick(r, 9),
                                 random_mesh(r, 3, true), cp ? &*cp : nullptr);
     },
     [](std::string_view t) { return typed_doc(t, "mesh"); },
     [](std::string_view t) { return dom_doc(t, "mesh"); }},
    {"snapshot", snapshot_text,
     [](std::string_view t) { return typed_doc(t, "baseline"); },
     [](std::string_view t) { return dom_doc(t, "baseline"); }},
    {"trace baseline line",
     [](Rng& r) {
       return trace_line(random_record(r, TraceRecord::Type::kBaseline));
     },
     typed_line, dom_line},
    {"trace round line",
     [](Rng& r) {
       return trace_line(random_record(r, TraceRecord::Type::kRound));
     },
     typed_line, dom_line},
    {"spool payload",
     [](Rng& r) {
       std::string out = "{\"round\":" + std::to_string(pick(r, 9)) +
                         ",\"mesh\":";
       append_mesh(out, random_mesh(r, 3, true));
       return out + "}";
     },
     [](std::string_view t) { return typed_doc(t, "mesh"); },
     [](std::string_view t) { return dom_doc(t, "mesh"); }},
    {"agent baseline file",
     [](Rng& r) {
       std::string out;
       append_mesh(out, random_mesh(r, 3, true));
       return out;
     },
     typed_mesh, dom_mesh},
};

TEST(CodecDifferential, ReaderMatchesJsonParsePlusTheDomDecoders) {
  constexpr int kMutationsPerCarrier = 2000;
  std::uint64_t seed = 0x5eed;
  for (const Carrier& c : kCarriers) {
    Rng rng(++seed);
    int accepted = 0, rejected = 0, failures = 0;
    for (int i = 0; i < kMutationsPerCarrier && failures < 5; ++i) {
      const std::string seed = c.make(rng);
      // The unmutated document reads back to itself.
      if (i % 50 == 0) {
        ASSERT_EQ(c.typed(seed), c.dom(seed)) << c.name << ": " << seed;
        ASSERT_EQ(c.typed(seed).rfind("error", 0), std::string::npos)
            << c.name << ": " << c.typed(seed);
      }
      const std::string doc = mutate(seed, rng);
      const std::string typed = c.typed(doc);
      const std::string dom = c.dom(doc);
      if (typed != dom) {
        ++failures;
        ADD_FAILURE() << c.name << " mutation " << i << "\n  doc:   " << doc
                      << "\n  typed: " << typed << "\n  dom:   " << dom;
      }
      const bool ok = dom.rfind("reject", 0) != 0 &&
                      dom.rfind("error", 0) != 0 &&
                      dom.find("| not an object") == std::string::npos;
      (ok ? accepted : rejected)++;
    }
    // Both verdicts are exercised, so neither reader can pass by always
    // saying the same thing.
    EXPECT_GT(accepted, kMutationsPerCarrier / 20) << c.name;
    EXPECT_GT(rejected, kMutationsPerCarrier / 20) << c.name;
  }
}

TEST(CodecDifferential, HandPickedEdgesAgree) {
  const std::string mesh = R"({"paths":[{"src":0,"dst":1,"ok":true,)"
                           R"("hops":[["s0","s",4,-1]],"links":[3]}]})";
  auto frame = [&mesh](const std::string& extra) {
    return R"({"v":1,"op":"observe","session":"s","mesh":)" + mesh + extra +
           "}";
  };
  auto nested = [](std::size_t k) {
    return std::string(k, '[') + std::string(k, ']');
  };
  const std::vector<std::string> frames = {
      frame(""),
      // Escaped spellings of known keys are the same keys.
      R"({"v":1,"op":"observe","session":"s","m\u0065sh":)" + mesh + "}",
      frame(R"(,"m\u0065sh":{})"),
      R"({"v":1,"op":"observe","session":"s","mesh":{"p\u0061ths":[],)"
      R"("paths":[]}})",
      // Unknown members are validated, duplicates included, then ignored.
      frame(R"(,"x":{"a":1,"a":2})"),
      frame(R"(,"x":{"a":1,"b":[true,null,"\ud83d\ude00"]})"),
      frame(R"(,"x":"\ud800")"),
      // Depth: a member's value sits at depth 1, so 95 nested arrays
      // reach the bound and 96 pass it.
      frame(",\"deep\":" + nested(95)),
      frame(",\"deep\":" + nested(96)),
      // Members in another order, and whitespace between tokens.
      R"({"mesh":)" + mesh + R"(,"session":"s","op":"observe","v":1})",
      " \t{ \"v\" : 1 ,\"op\":\"observe\",\"session\":\"s\",\"mesh\":" +
          mesh + " }\r\n",
      frame("") + "x",
      // Strict integers: asn, dest_asn, v.
      R"({"v":1,"op":"observe","session":"s","mesh":{"paths":[{"src":0,)"
      R"("dst":1,"ok":true,"hops":[["s0","s",4294967300,-1]],"links":[]}]}})",
      R"({"v":1,"op":"observe","session":"s","mesh":{"paths":[{"src":0,)"
      R"("dst":1,"ok":true,"hops":[["s0","s",4.7,-1]],"links":[]}]}})",
      frame(R"(,"cp":{"igp":[],"wd":[["a>b",4294967301]]})"),
      R"({"v":1.9,"op":"query","session":"s"})",
      R"({"v":1e0,"op":"query","session":"s"})",
  };
  for (const std::string& f : frames) {
    EXPECT_EQ(typed_request(f), dom_request(f)) << f;
  }
  // The verdicts themselves, which a rule broken in the shared grammar
  // would change on both sides at once.
  EXPECT_EQ(typed_request(frames[0]).rfind("ok ", 0), 0u);
  EXPECT_EQ(typed_request(frames[1]).rfind("ok ", 0), 0u);
  EXPECT_NE(typed_request(frames[2]).find("duplicate object key 'mesh'"),
            std::string::npos);
  EXPECT_NE(typed_request(frames[3]).find("duplicate object key 'paths'"),
            std::string::npos);
  EXPECT_NE(typed_request(frames[4]).find("duplicate object key 'a'"),
            std::string::npos);
  EXPECT_EQ(typed_request(frames[7]).rfind("ok ", 0), 0u);
  EXPECT_NE(typed_request(frames[8]).find("nesting too deep"),
            std::string::npos);
  EXPECT_EQ(typed_request(frames[9]).rfind("ok ", 0), 0u);
  EXPECT_NE(typed_request(frames[11]).find("trailing characters"),
            std::string::npos);
  for (std::size_t i = 12; i < 14; ++i) {
    EXPECT_EQ(typed_request(frames[i]),
              "error: mesh hop asn must be an integer in int range");
  }
  EXPECT_EQ(typed_request(frames[14]),
            "error: cp.wd dest_asn must be an integer in int range");
  for (std::size_t i = 15; i < 17; ++i) {
    EXPECT_EQ(typed_request(frames[i]),
              "error: field 'v' must be protocol version 1");
  }
}

}  // namespace
}  // namespace netd::svc
