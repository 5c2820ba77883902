#include "svc/trace.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "core/json_export.h"
#include "svc/codec.h"

namespace netd::svc {

namespace {

/// `{"v":1,"type":"<type>"` — every line's opening; the caller closes it.
std::string line_header(const char* type) {
  std::string out = "{\"v\":";
  util::append_json_uint(out, kProtocolVersion);
  out += ",\"type\":";
  util::append_json_string(out, type);
  return out;
}

std::string config_line(const SessionConfig& config) {
  std::string out = line_header("config");
  out += ",\"config\":";
  session_config_to_json(config).dump_to(out);
  out += '}';
  return out;
}

std::string mesh_line(const char* type, const probe::Mesh& mesh,
                      const core::ControlPlaneObs* cp) {
  std::string out = line_header(type);
  out += ",\"mesh\":";
  append_mesh(out, mesh);
  if (cp != nullptr) {
    out += ",\"cp\":";
    cp_to_json(*cp).dump_to(out);
  }
  out += '}';
  return out;
}

std::string diagnosis_line(std::size_t round, std::string_view doc) {
  std::string out = line_header("diagnosis");
  out += ",\"round\":";
  util::append_json_uint(out, round);
  out += ",\"diagnosis\":";
  out += doc;
  out += '}';
  return out;
}

}  // namespace

TraceRecorder::TraceRecorder(std::ostream& os, const SessionConfig& config,
                             bool emit_config)
    : os_(os) {
  if (emit_config) os_ << config_line(config) << "\n";
}

void TraceRecorder::baseline(const probe::Mesh& mesh) {
  round_ = 0;
  os_ << mesh_line("baseline", mesh, nullptr) << "\n";
}

void TraceRecorder::round(const probe::Mesh& mesh,
                          const core::ControlPlaneObs* cp) {
  ++round_;
  os_ << mesh_line("round", mesh, cp) << "\n";
}

void TraceRecorder::diagnosis(const core::AlgorithmOutput& out) {
  os_ << diagnosis_line(round_, core::to_json(out.graph, out.result)) << "\n";
}

std::string trace_line(const TraceRecord& rec) {
  switch (rec.type) {
    case TraceRecord::Type::kConfig:
      return config_line(rec.config);
    case TraceRecord::Type::kBaseline:
      return mesh_line("baseline", rec.mesh, nullptr);
    case TraceRecord::Type::kRound:
      return mesh_line("round", rec.mesh, rec.cp ? &*rec.cp : nullptr);
    case TraceRecord::Type::kDiagnosis:
      return diagnosis_line(rec.round, rec.diagnosis);
  }
  return "";
}

std::optional<TraceRecord> parse_trace_line(std::string_view line,
                                            std::string* error) {
  auto fail = [error](std::string what) {
    if (error != nullptr) *error = std::move(what);
    return std::nullopt;
  };
  std::string why;
  auto doc = parse_mesh_doc(line, "mesh", /*items=*/false, &why);
  if (!doc) return fail(why);
  const Json& j = doc->rest;
  if (!j.is_object()) return fail("not a JSON object");
  const Json* v = j.find("v");
  if (v == nullptr || v->as_uint() != std::uint64_t{kProtocolVersion}) {
    return fail("field 'v' must be trace version 1");
  }
  const Json* type = j.find("type");
  if (type == nullptr || !type->is_string()) {
    return fail("missing record type");
  }
  const std::string& name = type->as_string();
  TraceRecord rec;
  if (name == "config") {
    const Json* cfg = j.find("config");
    if (cfg == nullptr) return fail("missing config");
    auto parsed = session_config_from_json(*cfg, &why);
    if (!parsed) return fail(why);
    rec.type = TraceRecord::Type::kConfig;
    rec.config = std::move(*parsed);
  } else if (name == "baseline" || name == "round") {
    if (doc->mesh.state == MeshMember::State::kAbsent) {
      return fail("missing mesh");
    }
    auto parsed = doc->mesh.take(&why);
    if (!parsed) return fail(why);
    rec.mesh = std::move(*parsed);
    rec.type = name == "baseline" ? TraceRecord::Type::kBaseline
                                  : TraceRecord::Type::kRound;
    if (const Json* cp = j.find("cp"); cp != nullptr && name == "round") {
      auto obs = cp_from_json(*cp, &why);
      if (!obs) return fail(why);
      rec.cp = std::move(*obs);
    }
  } else if (name == "diagnosis") {
    const Json* round = j.find("round");
    const Json* diagnosis = j.find("diagnosis");
    if (round == nullptr || !round->is_number() || diagnosis == nullptr ||
        !diagnosis->is_object()) {
      return fail("diagnosis needs round + diagnosis object");
    }
    rec.type = TraceRecord::Type::kDiagnosis;
    rec.round = round->as_uint().value_or(0);  // read_trace checks it
    rec.diagnosis = diagnosis->dump();
  } else {
    return fail("unknown record type '" + name + "'");
  }
  return rec;
}

std::optional<std::vector<TraceRecord>> read_trace(std::istream& is,
                                                   std::string* error) {
  auto fail = [error](std::size_t line_no, const std::string& what) {
    if (error != nullptr) {
      *error = "trace line " + std::to_string(line_no) + ": " + what;
    }
    return std::nullopt;
  };

  std::vector<TraceRecord> out;
  std::string line;
  std::size_t line_no = 0;
  bool have_baseline = false;
  std::size_t baseline_at = 0;  // index in `out` of the episode's baseline
  std::size_t round_in_episode = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::string why;
    auto rec = parse_trace_line(line, &why);
    if (!rec) return fail(line_no, why);
    switch (rec->type) {
      case TraceRecord::Type::kConfig:
        if (!out.empty()) {
          return fail(line_no, "config must be the first record");
        }
        break;
      case TraceRecord::Type::kBaseline:
        if (out.empty()) return fail(line_no, "config record must come first");
        have_baseline = true;
        baseline_at = out.size();
        round_in_episode = 0;
        break;
      case TraceRecord::Type::kRound:
        if (out.empty()) return fail(line_no, "config record must come first");
        if (!have_baseline) return fail(line_no, "round before baseline");
        // A healthy round becomes the troubleshooter's baseline, so every
        // round of an episode must fit the episode's baseline record.
        if (!round_fits_baseline(out[baseline_at].mesh, rec->mesh, &why)) {
          return fail(line_no, why);
        }
        ++round_in_episode;
        break;
      case TraceRecord::Type::kDiagnosis:
        if (round_in_episode == 0) {
          return fail(line_no, "diagnosis before any round");
        }
        if (rec->round != round_in_episode) {
          return fail(line_no, "diagnosis round does not match the stream");
        }
        break;
    }
    out.push_back(std::move(*rec));
  }
  if (out.empty()) return fail(0, "empty trace");
  if (out.front().type != TraceRecord::Type::kConfig) {
    return fail(1, "first record must be config");
  }
  return out;
}

namespace {

/// One diagnosis event, positioned by (episode ordinal, round in episode).
struct DiagEvent {
  std::size_t episode = 0;
  std::size_t round = 0;
  std::string doc;
};

std::string where(const DiagEvent& e) {
  return "episode " + std::to_string(e.episode) + " round " +
         std::to_string(e.round);
}

/// Folds the recorded and replayed diagnosis streams into mismatches.
void compare_events(const std::vector<DiagEvent>& recorded,
                    const std::vector<DiagEvent>& produced,
                    ReplayResult* result) {
  const std::size_t n = std::min(recorded.size(), produced.size());
  for (std::size_t i = 0; i < n; ++i) {
    const DiagEvent& r = recorded[i];
    const DiagEvent& p = produced[i];
    if (r.episode != p.episode || r.round != p.round) {
      result->mismatches.push_back("diagnosis #" + std::to_string(i) +
                                   " recorded at " + where(r) +
                                   " but replayed at " + where(p));
    } else if (r.doc != p.doc) {
      result->mismatches.push_back("diagnosis at " + where(r) +
                                   " differs:\n  recorded: " + r.doc +
                                   "\n  replayed: " + p.doc);
    }
  }
  for (std::size_t i = n; i < recorded.size(); ++i) {
    result->mismatches.push_back("recorded diagnosis at " +
                                 where(recorded[i]) +
                                 " was not reproduced by the replay");
  }
  for (std::size_t i = n; i < produced.size(); ++i) {
    result->mismatches.push_back("replay produced an extra diagnosis at " +
                                 where(produced[i]));
  }
}

std::vector<DiagEvent> recorded_events(const std::vector<TraceRecord>& trace) {
  std::vector<DiagEvent> events;
  std::size_t episode = 0;
  for (const auto& rec : trace) {
    if (rec.type == TraceRecord::Type::kBaseline) ++episode;
    if (rec.type == TraceRecord::Type::kDiagnosis) {
      events.push_back({episode, rec.round, rec.diagnosis});
    }
  }
  return events;
}

}  // namespace

ReplayResult replay_in_process(const std::vector<TraceRecord>& trace) {
  ReplayResult result;
  if (trace.empty() || trace.front().type != TraceRecord::Type::kConfig) {
    result.mismatches.push_back("trace has no config record");
    return result;
  }
  std::string error;
  const auto cfg = trace.front().config.resolve(&error);
  if (!cfg) {
    result.mismatches.push_back("bad trace config: " + error);
    return result;
  }
  core::Troubleshooter ts(*cfg);
  std::vector<DiagEvent> produced;
  std::size_t episode = 0;
  std::size_t round = 0;
  for (const auto& rec : trace) {
    switch (rec.type) {
      case TraceRecord::Type::kConfig:
        break;
      case TraceRecord::Type::kBaseline:
        ts.set_baseline(rec.mesh);
        ++episode;
        round = 0;
        ++result.baselines;
        break;
      case TraceRecord::Type::kRound: {
        ++round;
        ++result.rounds;
        const auto out =
            ts.observe(rec.mesh, rec.cp.has_value() ? &*rec.cp : nullptr);
        if (out.has_value()) {
          produced.push_back(
              {episode, round, core::to_json(out->graph, out->result)});
          ++result.diagnoses;
        }
        break;
      }
      case TraceRecord::Type::kDiagnosis:
        break;
    }
  }
  compare_events(recorded_events(trace), produced, &result);
  return result;
}

ReplayResult replay_through(Client& client, const std::string& session,
                            const std::vector<TraceRecord>& trace) {
  ReplayResult result;
  if (trace.empty() || trace.front().type != TraceRecord::Type::kConfig) {
    result.mismatches.push_back("trace has no config record");
    return result;
  }
  std::string error;
  HelloResponse hello;
  if (!expect_response(
          client.call(Request{HelloRequest{session, trace.front().config,
                                          std::nullopt}},
                      &error),
          &hello, &error)) {
    result.mismatches.push_back("hello failed: " + error);
    return result;
  }
  std::vector<DiagEvent> produced;
  std::size_t episode = 0;
  std::size_t round = 0;
  for (const auto& rec : trace) {
    switch (rec.type) {
      case TraceRecord::Type::kConfig:
        break;
      case TraceRecord::Type::kBaseline: {
        error.clear();
        SetBaselineResponse rsp;
        if (!expect_response(
                client.call(Request{SetBaselineRequest{session, rec.mesh,
                                                     std::nullopt}},
                            &error),
                &rsp, &error)) {
          result.mismatches.push_back("set_baseline failed: " + error);
          return result;
        }
        ++episode;
        round = 0;
        ++result.baselines;
        break;
      }
      case TraceRecord::Type::kRound: {
        error.clear();
        ObserveResponse rsp;
        if (!expect_response(
                client.call(Request{ObserveRequest{session, rec.mesh, rec.cp}},
                            &error),
                &rsp, &error)) {
          result.mismatches.push_back("observe failed: " + error);
          return result;
        }
        ++round;
        ++result.rounds;
        if (rsp.diagnosis.has_value()) {
          produced.push_back({episode, round, *rsp.diagnosis});
          ++result.diagnoses;
        }
        break;
      }
      case TraceRecord::Type::kDiagnosis:
        break;
    }
  }
  compare_events(recorded_events(trace), produced, &result);
  return result;
}

}  // namespace netd::svc
