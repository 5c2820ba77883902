#include "svc/trace.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "core/json_export.h"

namespace netd::svc {

namespace {

Json record_header(const char* type) {
  Json j = Json::object();
  j.set("v", Json::integer(kProtocolVersion));
  j.set("type", Json::string(type));
  return j;
}

}  // namespace

TraceRecorder::TraceRecorder(std::ostream& os, const SessionConfig& config,
                             bool emit_config)
    : os_(os) {
  if (!emit_config) return;
  Json j = record_header("config");
  j.set("config", session_config_to_json(config));
  os_ << j.dump() << "\n";
}

void TraceRecorder::baseline(const probe::Mesh& mesh) {
  round_ = 0;
  Json j = record_header("baseline");
  j.set("mesh", mesh_to_json(mesh));
  os_ << j.dump() << "\n";
}

void TraceRecorder::round(const probe::Mesh& mesh,
                          const core::ControlPlaneObs* cp) {
  ++round_;
  Json j = record_header("round");
  j.set("mesh", mesh_to_json(mesh));
  if (cp != nullptr) j.set("cp", cp_to_json(*cp));
  os_ << j.dump() << "\n";
}

void TraceRecorder::diagnosis(const core::AlgorithmOutput& out) {
  diagnosis_text(core::to_json(out.graph, out.result));
}

void TraceRecorder::diagnosis_text(const std::string& doc) {
  Json j = record_header("diagnosis");
  j.set("round", Json::uinteger(round_));
  j.set("diagnosis", Json::raw(doc));
  os_ << j.dump() << "\n";
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
    std::string parse_error;
    const auto j = Json::parse(line, &parse_error);
    if (!j || !j->is_object()) {
      return fail(line_no, parse_error.empty() ? "not a JSON object"
                                               : parse_error);
    }
    const Json* v = j->find("v");
    if (v == nullptr || !v->is_number() || v->as_int() != kProtocolVersion) {
      return fail(line_no, "missing or unsupported version");
    }
    const Json* type = j->find("type");
    if (type == nullptr || !type->is_string()) {
      return fail(line_no, "missing record type");
    }
    const std::string& name = type->as_string();
    TraceRecord rec;
    if (name == "config") {
      if (!out.empty()) return fail(line_no, "config must be the first record");
      const Json* cfg = j->find("config");
      if (cfg == nullptr) return fail(line_no, "missing config");
      auto parsed = session_config_from_json(*cfg, &parse_error);
      if (!parsed) return fail(line_no, parse_error);
      rec.type = TraceRecord::Type::kConfig;
      rec.config = std::move(*parsed);
    } else if (name == "baseline" || name == "round") {
      if (out.empty()) return fail(line_no, "config record must come first");
      const Json* mesh = j->find("mesh");
      if (mesh == nullptr) return fail(line_no, "missing mesh");
      auto parsed = mesh_from_json(*mesh, &parse_error);
      if (!parsed) return fail(line_no, parse_error);
      rec.mesh = std::move(*parsed);
      if (name == "baseline") {
        rec.type = TraceRecord::Type::kBaseline;
        have_baseline = true;
        baseline_at = out.size();
        round_in_episode = 0;
      } else {
        if (!have_baseline) return fail(line_no, "round before baseline");
        // A healthy round becomes the troubleshooter's baseline, so every
        // round of an episode must fit the episode's baseline record.
        if (!round_fits_baseline(out[baseline_at].mesh, rec.mesh,
                                 &parse_error)) {
          return fail(line_no, parse_error);
        }
        rec.type = TraceRecord::Type::kRound;
        ++round_in_episode;
        if (const Json* cp = j->find("cp"); cp != nullptr) {
          auto obs = cp_from_json(*cp, &parse_error);
          if (!obs) return fail(line_no, parse_error);
          rec.cp = std::move(*obs);
        }
      }
    } else if (name == "diagnosis") {
      if (round_in_episode == 0) {
        return fail(line_no, "diagnosis before any round");
      }
      const Json* round = j->find("round");
      const Json* doc = j->find("diagnosis");
      if (round == nullptr || !round->is_number() || doc == nullptr ||
          !doc->is_object()) {
        return fail(line_no, "diagnosis needs round + diagnosis object");
      }
      if (round->as_uint() != round_in_episode) {
        return fail(line_no, "diagnosis round does not match the stream");
      }
      rec.type = TraceRecord::Type::kDiagnosis;
      rec.round = round_in_episode;
      rec.diagnosis = doc->dump();
    } else {
      return fail(line_no, "unknown record type '" + name + "'");
    }
    out.push_back(std::move(rec));
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
          client.call(Request{HelloRequest{session, trace.front().config}},
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
                client.call(Request{SetBaselineRequest{session, rec.mesh}},
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
