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

namespace {

/// A trace line, or with `journal` a journal record: they differ in the
/// type's key and names, the version, diagnoses, and src and seq.
std::optional<TraceRecord> parse_record(std::string_view text, bool journal,
                                        std::string* error) {
  auto fail = [error](std::string what) {
    if (error != nullptr) *error = std::move(what);
    return std::nullopt;
  };
  std::string why;
  auto doc = parse_mesh_doc(text, "mesh", /*items=*/false, &why);
  if (!doc) return fail(why);
  const Json& j = doc->rest;
  if (!j.is_object()) return fail("not a JSON object");
  const Json* v = j.find("v");
  if (!journal &&
      (v == nullptr || v->as_uint() != std::uint64_t{kProtocolVersion})) {
    return fail("field 'v' must be trace version 1");
  }
  const Json* type = j.find(journal ? "t" : "type");
  if (type == nullptr || !type->is_string()) {
    return fail("missing record type");
  }
  const std::string& name = type->as_string();
  const bool batch = journal && name == "bobs";
  TraceRecord rec;
  if (name == (journal ? "hello" : "config")) {
    const Json* cfg = j.find("config");
    if (cfg == nullptr) return fail("missing config");
    auto parsed = session_config_from_json(*cfg, &why);
    if (!parsed) return fail(why);
    rec.type = TraceRecord::Type::kConfig;
    rec.config = std::move(*parsed);
  } else if (name == "baseline" || name == (journal ? "obs" : "round") ||
             batch) {
    if (doc->mesh.state == MeshMember::State::kAbsent) {
      return fail("missing mesh");
    }
    auto parsed = doc->mesh.take(&why);
    if (!parsed) return fail(why);
    rec.mesh = std::move(*parsed);
    if (name == "baseline") {
      rec.type = TraceRecord::Type::kBaseline;
      return rec;
    }
    rec.type = TraceRecord::Type::kRound;
    if (const Json* cp = j.find("cp"); cp != nullptr) {
      auto obs = cp_from_json(*cp, &why);
      if (!obs) return fail(why);
      rec.cp = std::move(*obs);
    }
    // parse_request's rules for the observe_batch item and the observe
    // frame a journal's round was applied from.
    if (const Json* src = j.find("src"); batch) {
      if (src == nullptr || !src->is_string()) return fail("missing src");
      if (src->as_string().empty()) return fail("src must not be empty");
      rec.src = src->as_string();
    }
    if (const Json* seq = j.find("seq"); journal && (seq != nullptr || batch)) {
      rec.seq = seq != nullptr ? seq->as_uint() : std::nullopt;
      if (rec.seq.value_or(0) == 0) return fail("seq must be >= 1");
    }
  } else if (name == "diagnosis" && !journal) {
    const Json* round = j.find("round");
    const Json* diagnosis = j.find("diagnosis");
    if (round == nullptr || !round->is_number() || diagnosis == nullptr ||
        !diagnosis->is_object()) {
      return fail("diagnosis needs round + diagnosis object");
    }
    rec.type = TraceRecord::Type::kDiagnosis;
    rec.round = round->as_uint().value_or(0);  // StreamRules checks it
    rec.diagnosis = diagnosis->dump();
  } else {
    return fail("unknown record type '" + name + "'");
  }
  return rec;
}

}  // namespace

std::optional<TraceRecord> parse_trace_line(std::string_view line,
                                            std::string* error) {
  return parse_record(line, /*journal=*/false, error);
}

std::optional<TraceRecord> parse_journal_record(std::string_view payload,
                                                std::string* error) {
  return parse_record(payload, /*journal=*/true, error);
}

bool StreamRules::admit(const TraceRecord& rec, std::string* error) {
  const char* refused = nullptr;
  if (rec.type == TraceRecord::Type::kConfig) {
    if (config) refused = "config must be the first record";
    config = true;
  } else if (rec.type == TraceRecord::Type::kDiagnosis) {
    if (round == 0) {
      refused = "diagnosis before any round";
    } else if (rec.round != round) {
      refused = "diagnosis round does not match the stream";
    }
  } else if (!config) {
    refused = "config record must come first";
  } else if (rec.type == TraceRecord::Type::kBaseline) {
    baseline(rec.mesh);
  } else if (!pairs.has_value()) {
    refused = "round before baseline";
  } else {
    // A healthy round becomes the troubleshooter's baseline, so every
    // round of an episode must fit the episode's baseline record.
    if (!round_fits_baseline(*pairs, rec.mesh, error)) return false;
    ++round;
    if (rec.seq.has_value()) watermarks[rec.src] = *rec.seq;
  }
  if (refused != nullptr && error != nullptr) *error = refused;
  return refused == nullptr;
}

void StreamRules::baseline(const probe::Mesh& mesh) {
  pairs.emplace().paths.resize(mesh.paths.size());
  for (std::size_t k = 0; k < mesh.paths.size(); ++k) {
    pairs->paths[k].src = mesh.paths[k].src;
    pairs->paths[k].dst = mesh.paths[k].dst;
  }
  round = 0;
  watermarks.clear();
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
  StreamRules rules;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::string why;
    auto rec = parse_trace_line(line, &why);
    if (!rec || !rules.admit(*rec, &why)) return fail(line_no, why);
    out.push_back(std::move(*rec));
  }
  if (out.empty()) return fail(0, "empty trace");
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

/// The one replay loop: `feed(rec, &diagnosis)` takes the config, each
/// baseline and each round, sets `diagnosis` when a round fired one, and
/// returns the mismatch that ends the replay, or "".
template <typename Feed>
ReplayResult replay(const std::vector<TraceRecord>& trace, Feed feed) {
  ReplayResult result;
  if (trace.empty() || trace.front().type != TraceRecord::Type::kConfig) {
    result.mismatches.push_back("trace has no config record");
    return result;
  }
  std::vector<DiagEvent> recorded, produced;
  std::size_t round = 0;  // in the episode; result.baselines counts those
  for (const auto& rec : trace) {
    if (rec.type == TraceRecord::Type::kDiagnosis) {
      recorded.push_back({result.baselines, rec.round, rec.diagnosis});
      continue;
    }
    if (rec.type == TraceRecord::Type::kConfig && &rec != &trace.front()) {
      continue;
    }
    std::optional<std::string> diagnosis;
    if (std::string mismatch = feed(rec, &diagnosis); !mismatch.empty()) {
      result.mismatches.push_back(std::move(mismatch));
      return result;
    }
    if (rec.type == TraceRecord::Type::kBaseline) {
      ++result.baselines;
      round = 0;
    } else if (rec.type == TraceRecord::Type::kRound) {
      ++round;
      ++result.rounds;
      if (diagnosis.has_value()) {
        produced.push_back({result.baselines, round, std::move(*diagnosis)});
        ++result.diagnoses;
      }
    }
  }
  compare_events(recorded, produced, &result);
  return result;
}

}  // namespace

ReplayResult replay_in_process(const std::vector<TraceRecord>& trace) {
  std::optional<core::Troubleshooter> ts;
  return replay(trace, [&ts](const TraceRecord& rec,
                             std::optional<std::string>* diagnosis) {
    if (rec.type == TraceRecord::Type::kConfig) {
      std::string error;
      const auto cfg = rec.config.resolve(&error);
      if (!cfg) return "bad trace config: " + error;
      ts.emplace(*cfg);
    } else if (rec.type == TraceRecord::Type::kBaseline) {
      ts->set_baseline(rec.mesh);
    } else if (const auto out = ts->observe(
                   rec.mesh, rec.cp.has_value() ? &*rec.cp : nullptr)) {
      *diagnosis = core::to_json(out->graph, out->result);
    }
    return std::string();
  });
}

ReplayResult replay_through(Client& client, const std::string& session,
                            const std::vector<TraceRecord>& trace) {
  return replay(trace, [&](const TraceRecord& rec,
                           std::optional<std::string>* diagnosis) {
    std::string error;
    const char* op = "observe";
    bool ok = false;
    if (rec.type == TraceRecord::Type::kConfig) {
      op = "hello";
      ok = expect_response(
          client.call(HelloRequest{session, rec.config, std::nullopt}, &error),
          static_cast<HelloResponse*>(nullptr), &error);
    } else if (rec.type == TraceRecord::Type::kBaseline) {
      op = "set_baseline";
      ok = expect_response(
          client.call(SetBaselineRequest{session, rec.mesh, std::nullopt},
                      &error),
          static_cast<SetBaselineResponse*>(nullptr), &error);
    } else {
      ObserveResponse rsp;
      ok = expect_response(
          client.call(ObserveRequest{session, rec.mesh, rec.cp}, &error), &rsp,
          &error);
      *diagnosis = std::move(rsp.diagnosis);
    }
    return ok ? std::string() : op + std::string(" failed: ") + error;
  });
}

}  // namespace netd::svc
