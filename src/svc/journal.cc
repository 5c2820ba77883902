#include "svc/journal.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/events.h"
#include "obs/registry.h"
#include "svc/codec.h"
#include "svc/json.h"
#include "util/atomic_file.h"

namespace netd::svc {

namespace {

constexpr const char* kSnapshotName = "SNAPSHOT";
constexpr const char* kEpochName = "EPOCH";

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what + ": " + std::strerror(errno);
  return false;
}

/// Journal segments are wal-<first LSN>.ndj. Listing ignores the
/// rotation size, so read-only callers pass 0.
util::SegmentLog::Options log_options(const std::string& dir,
                                      std::uint64_t max_segment_bytes) {
  return {dir, "wal-", ".ndj", max_segment_bytes};
}

obs::Counter& torn_tail_counter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "netd_svc_journal_torn_tails_total",
      "Journal segments whose torn tail was truncated at recovery");
  return c;
}

obs::Counter& quarantined_segment_counter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "netd_svc_journal_quarantined_segments_total",
      "Journal files renamed *.quarantined instead of being replayed");
  return c;
}

obs::Counter& append_counter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "netd_svc_journal_appends_total",
      "Records appended to session write-ahead journals");
  return c;
}

obs::Counter& fsync_counter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "netd_svc_journal_fsyncs_total",
      "fsync(2) calls issued by session journals");
  return c;
}

obs::Counter& snapshot_counter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "netd_svc_journal_snapshots_total",
      "Session snapshots committed (journal segments pruned)");
  return c;
}

/// Decodes a SNAPSHOT but for "wal", which stage one reads;
/// std::nullopt with `error` on a field that does not decode.
std::optional<Snapshot> parse_snapshot(std::string_view text,
                                       std::string* error) {
  auto fail = [error](std::string what) -> std::optional<Snapshot> {
    if (error != nullptr) *error = std::move(what);
    return std::nullopt;
  };
  std::string why;
  auto doc = parse_mesh_doc(text, "baseline", /*items=*/false, &why);
  if (!doc) return fail(why);
  const Json& j = doc->rest;
  const Json* cfg = j.find("config");
  if (cfg == nullptr) return fail("missing config");
  auto config = session_config_from_json(*cfg, &why);
  if (!config) return fail(why);
  const Json* round = j.find("round");
  const Json* diagnosis_round = j.find("diagnosis_round");
  const Json* diagnosis = j.find("diagnosis");
  const Json* acks = j.find("src_acks");
  const Json* last_seq = j.find("last_seq");
  if (!round || !round->as_uint() || !diagnosis_round ||
      !diagnosis_round->as_uint() || !acks || !acks->is_object() ||
      (diagnosis && !diagnosis->is_object()) ||
      (last_seq && !last_seq->as_uint())) {
    return fail("bad round, diagnosis_round, diagnosis, src_acks or last_seq");
  }
  Snapshot snap;
  snap.state.config = std::move(*config);
  snap.state.round = *round->as_uint();
  snap.state.diagnosis_round = *diagnosis_round->as_uint();
  if (diagnosis != nullptr) snap.state.diagnosis = diagnosis->dump();
  for (const auto& [src, seq] : acks->members()) {
    if (!seq.as_uint()) return fail("src_acks must hold unsigned integers");
    snap.state.src_acks[src] = *seq.as_uint();
  }
  // Before observe shared the watermarks, its retry cache held the seq
  // of the last applied observe.
  if (last_seq != nullptr) snap.state.src_acks[""] = *last_seq->as_uint();
  if (doc->mesh.state == MeshMember::State::kAbsent) return snap;
  snap.baseline = doc->mesh.take(&why);
  if (!snap.baseline) return fail(why);
  const Json* det = j.find("detector");
  const Json* fails = det != nullptr ? det->find("fails") : nullptr;
  const Json* alarmed = det != nullptr ? det->find("alarmed") : nullptr;
  // The detector holds nothing until the first round after a baseline
  // and one entry per pair ever after; any other size would let the
  // next round index past its arrays.
  if (fails == nullptr || !fails->is_array() || alarmed == nullptr ||
      !alarmed->is_array() || fails->size() != alarmed->size() ||
      (fails->size() != 0 && fails->size() != snap.baseline->paths.size())) {
    return fail("detector arrays must be empty or one per baseline pair");
  }
  for (std::size_t i = 0; i < fails->size(); ++i) {
    const auto streak = (*fails)[i].as_uint();
    if (!streak || !(*alarmed)[i].is_bool()) {
      return fail("detector entries must be streaks and alarm flags");
    }
    snap.fails.push_back(*streak);
    snap.alarmed.push_back((*alarmed)[i].as_bool());
  }
  return snap;
}

/// fsyncs slower than this land in the event ring: on a healthy disk an
/// fsync is sub-millisecond, and a stalled one is exactly the latency
/// spike an operator tailing the ring wants to see attributed.
constexpr std::int64_t kFsyncStallUs = 20'000;

}  // namespace

void register_journal_metrics() {
  torn_tail_counter();
  quarantined_segment_counter();
  append_counter();
  fsync_counter();
  snapshot_counter();
}

const char* to_string(FsyncPolicy p) {
  return p == FsyncPolicy::kAlways ? "always" : "batch";
}

std::optional<FsyncPolicy> fsync_policy_from_string(std::string_view s) {
  if (s == "always") return FsyncPolicy::kAlways;
  if (s == "batch") return FsyncPolicy::kBatch;
  return std::nullopt;
}

std::string encode_session_dir(std::string_view session) {
  static const char* hex = "0123456789abcdef";
  std::string out;
  out.reserve(session.size());
  for (const char c : session) {
    const bool safe = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (safe) {
      out.push_back(c);
    } else {
      const auto b = static_cast<unsigned char>(c);
      out.push_back('%');
      out.push_back(hex[b >> 4]);
      out.push_back(hex[b & 0xf]);
    }
  }
  return out;
}

std::optional<std::string> decode_session_dir(std::string_view dir) {
  auto hex_val = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  std::string out;
  out.reserve(dir.size());
  for (std::size_t i = 0; i < dir.size(); ++i) {
    const char c = dir[i];
    if (c == '%') {
      if (i + 2 >= dir.size()) return std::nullopt;
      const int hi = hex_val(dir[i + 1]);
      const int lo = hex_val(dir[i + 2]);
      if (hi < 0 || lo < 0) return std::nullopt;
      out.push_back(static_cast<char>((hi << 4) | lo));
      i += 2;
      continue;
    }
    const bool safe = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!safe) return std::nullopt;
    out.push_back(c);
  }
  return out;
}

std::uint64_t read_epoch(const std::string& state_dir) {
  const auto doc = util::read_file(state_dir + "/" + kEpochName, nullptr);
  if (!doc.has_value()) return 0;
  const auto j = Json::parse(*doc, nullptr);
  if (!j || !j->is_object()) return 0;
  const Json* e = j->find("epoch");
  return e != nullptr ? e->as_uint().value_or(0) : 0;
}

std::uint64_t bump_epoch(const std::string& state_dir, std::string* error) {
  if (::mkdir(state_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    fail(error, "mkdir " + state_dir);
    return 0;
  }
  const std::string path = state_dir + "/" + kEpochName;
  util::remove_stale_temps(path);
  const std::uint64_t next = read_epoch(state_dir) + 1;
  Json j = Json::object();
  j.set("epoch", Json::uinteger(next));
  if (!util::atomic_write_file(path, j.dump() + "\n", error)) return 0;
  return next;
}

std::vector<std::string> list_session_dirs(const std::string& state_dir) {
  std::vector<std::string> out;
  DIR* d = ::opendir((state_dir + "/sessions").c_str());
  if (d == nullptr) return out;
  while (const dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    out.push_back(name);
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

bool inspect_session_dir(const std::string& dir, Inspection* out,
                         std::string* error) {
  *out = Inspection{};
  const std::string snap_path = dir + "/" + kSnapshotName;
  out->snapshot = util::read_file(snap_path, nullptr);
  if (!util::SegmentLog::list(log_options(dir, 0), &out->log, error)) {
    return false;
  }
  auto damaged = [out](std::string why, const std::string& file,
                       std::uint64_t offset) {
    out->damage = std::move(why);
    out->damage_file = file;
    out->damage_offset = offset;
    return true;
  };
  if (out->snapshot.has_value()) {
    // The snapshot's "wal" field is the LSN floor: records at or below it
    // are already folded in. An unreadable or wal-less snapshot is
    // corruption — quarantine rather than replay against the wrong base.
    const auto doc = parse_mesh_doc(*out->snapshot, "baseline",
                                    /*items=*/false, nullptr);
    const Json* w = doc ? doc->rest.find("wal") : nullptr;
    out->wal = w != nullptr ? w->as_uint() : std::nullopt;
    if (!out->wal) {
      return damaged("unreadable " + snap_path + " (no \"wal\" LSN floor)",
                     snap_path, 0);
    }
  }
  // LSNs are contiguous: the journal never sheds, and snapshot pruning
  // deletes only fully covered segments, so a hole — inside a segment,
  // between two, or between the floor and the first record above it —
  // means bytes went missing underneath us.
  std::uint64_t prev = 0;  // last LSN of the previous non-empty segment
  for (const auto& seg : out->log.segments) {
    const util::record_log::Scan& scan = seg.scan;
    if (scan.verdict == util::record_log::Scan::Verdict::kCorrupt) {
      return damaged("first bad frame at offset " +
                         std::to_string(scan.good_bytes) + " in " + seg.path,
                     seg.path, scan.good_bytes);
    }
    if (scan.records == 0) continue;  // open() removes it
    const std::uint64_t expect =
        prev != 0 ? prev + 1 : out->wal.value_or(0) + 1;
    const bool gap = prev != 0 ? scan.first_seq != expect
                               : scan.first_seq > expect;
    if (gap || scan.last_seq - scan.first_seq + 1 != scan.records) {
      return damaged("LSN gap: " + seg.path + " holds " +
                         std::to_string(scan.records) + " record(s), LSN " +
                         std::to_string(scan.first_seq) + ".." +
                         std::to_string(scan.last_seq) + ", expected from " +
                         std::to_string(expect),
                     seg.path, 0);
    }
    prev = scan.last_seq;
  }
  return true;
}

std::string hello_record(const SessionConfig& cfg) {
  Json j = Json::object();
  j.set("t", Json::string("hello"));
  j.set("config", session_config_to_json(cfg));
  return j.dump();
}

std::string baseline_record(const probe::Mesh& mesh) {
  std::string out = "{\"t\":\"baseline\",\"mesh\":";
  append_mesh(out, mesh);
  out += '}';
  return out;
}

std::string observation_record(const std::string& src,
                               std::optional<std::uint64_t> seq,
                               const probe::Mesh& mesh,
                               const core::ControlPlaneObs* cp) {
  const bool batch = !src.empty();
  std::string out = batch ? "{\"t\":\"bobs\",\"src\":" : "{\"t\":\"obs\"";
  if (batch) {
    util::append_json_string(out, src);
    out += ",\"seq\":";
    util::append_json_uint(out, seq.value_or(0));
  }
  out += ",\"mesh\":";
  append_mesh(out, mesh);
  if (cp != nullptr) {
    out += ",\"cp\":";
    cp_to_json(*cp).dump_to(out);
  }
  if (!batch && seq.has_value()) {
    out += ",\"seq\":";
    util::append_json_uint(out, *seq);
  }
  out += '}';
  return out;
}

std::string snapshot_document(std::uint64_t wal, const SessionState& state,
                              const core::Troubleshooter& ts) {
  Json j = Json::object();
  // "wal": every record at or below this LSN is folded into this
  // document; recovery replays only what came after.
  j.set("wal", Json::uinteger(wal));
  j.set("config", session_config_to_json(state.config));
  j.set("round", Json::uinteger(state.round));
  j.set("diagnosis_round", Json::uinteger(state.diagnosis_round));
  if (!state.diagnosis.empty()) j.set("diagnosis", Json::raw(state.diagnosis));
  Json acks = Json::object();
  for (const auto& [src, seq] : state.src_acks) {
    acks.set(src, Json::uinteger(seq));
  }
  j.set("src_acks", std::move(acks));
  if (ts.has_baseline()) {
    std::string baseline;
    append_mesh(baseline, ts.baseline());
    j.set("baseline", Json::raw(std::move(baseline)));
    const auto& det = ts.detector();
    Json fails = Json::array();
    for (const std::size_t f : det.consecutive_failures()) {
      fails.push_back(Json::uinteger(f));
    }
    Json alarmed = Json::array();
    for (const bool a : det.alarm_flags()) alarmed.push_back(Json::boolean(a));
    Json d = Json::object();
    d.set("fails", std::move(fails));
    d.set("alarmed", std::move(alarmed));
    j.set("detector", std::move(d));
  }
  return j.dump() + "\n";
}

SessionReader::SessionReader(const std::optional<std::string>& text) {
  if (!text.has_value()) return;
  std::string why;
  snapshot = parse_snapshot(*text, &why);
  if (!snapshot) {
    refused = std::string(kSnapshotName) + ": " + why;
    return;
  }
  rules.config = true;
  if (snapshot->baseline) rules.baseline(*snapshot->baseline);
  rules.watermarks = snapshot->state.src_acks;
}

std::optional<TraceRecord> SessionReader::next(std::uint64_t lsn,
                                               std::string_view payload) {
  if (!refused.empty()) return std::nullopt;
  std::string why;
  auto rec = parse_journal_record(payload, &why);
  if (!rec || !rules.admit(*rec, &why)) {
    refused = "record LSN " + std::to_string(lsn) + ": " + why;
    return std::nullopt;
  }
  return rec;
}

std::string SessionReader::damage() const {
  if (!refused.empty() || rules.config) return refused;
  return "neither a SNAPSHOT nor a hello record names the session config";
}

std::string session_damage(const Inspection& insp,
                           std::map<std::string, std::uint64_t>* watermarks) {
  SessionReader reader(insp.snapshot);
  const bool whole = util::SegmentLog::read(
      insp.log.segments, insp.wal.value_or(0),
      [&reader](std::uint64_t lsn, std::string_view payload) {
        return reader.next(lsn, payload).has_value();
      },
      nullptr);
  *watermarks = std::move(reader.rules.watermarks);
  if (!insp.damage.empty()) return insp.damage;
  // Cut short by a pruned segment, only the records read are judged.
  return whole ? reader.damage() : reader.refused;
}

// ---------------------------------------------------------------------------

std::unique_ptr<SessionJournal> SessionJournal::open(Options opts,
                                                     std::string* error,
                                                     RecoveryStats* stats) {
  std::unique_ptr<SessionJournal> j(new SessionJournal(std::move(opts)));
  RecoveryStats local;
  RecoveryStats* s = stats != nullptr ? stats : &local;
  *s = RecoveryStats{};  // recover() accumulates; a reused struct must not
  if (!j->recover(error, s)) return nullptr;
  if (s->quarantined) return nullptr;
  return j;
}

bool SessionJournal::quarantine_all(std::string* error) {
  log_.reset();
  records_.clear();
  snapshot_.reset();
  records_since_snapshot_ = 0;
  // List the directory afresh rather than trusting memory: recovery
  // quarantines before any segment was opened.
  util::SegmentLog::Listing listing;
  if (!util::SegmentLog::list(log_options(opts_.dir, 0), &listing, error)) {
    return false;
  }
  std::vector<std::string> victims;
  const std::string snap_path = opts_.dir + "/" + kSnapshotName;
  if (util::file_size(snap_path).has_value()) victims.push_back(snap_path);
  for (const auto& seg : listing.segments) victims.push_back(seg.path);
  for (const auto& path : victims) {
    // Renamed aside, never deleted: the bytes are evidence of what went
    // wrong, and the session itself continues via the amnesia protocol.
    if (!util::SegmentLog::quarantine(path, error)) return false;
    quarantined_segment_counter().inc();
  }
  // A fresh, empty journal: LSNs restart at 1.
  log_ = util::SegmentLog::open(log_options(opts_.dir, opts_.max_segment_bytes),
                                {}, 0, nullptr, error);
  return log_ != nullptr;
}

bool SessionJournal::recover(std::string* error, RecoveryStats* stats) {
  if (::mkdir(opts_.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return fail(error, "mkdir " + opts_.dir);
  }
  // A snapshot writer that died between temp write and rename leaves a
  // stale temp; the committed SNAPSHOT (if any) is still intact.
  util::remove_stale_temps(opts_.dir + "/" + kSnapshotName);
  // Judge first, repair after: a journal about to be quarantined keeps
  // every byte, its torn tail included.
  Inspection insp;
  if (!inspect_session_dir(opts_.dir, &insp, error)) return false;
  if (!insp.damage.empty()) {
    stats->quarantined = true;
    return quarantine_all(error);
  }
  util::SegmentLog::Repair repair;
  const std::uint64_t wal = insp.wal.value_or(0);
  log_ = util::SegmentLog::open(log_options(opts_.dir, opts_.max_segment_bytes),
                                std::move(insp.log.segments), wal, &repair,
                                error);
  if (log_ == nullptr) return false;
  stats->torn_tails = repair.torn_tails;
  stats->torn_bytes = repair.torn_bytes;
  if (repair.torn_tails > 0) torn_tail_counter().inc(repair.torn_tails);
  snapshot_ = std::move(insp.snapshot);
  if (!log_->for_each(
          wal,
          [this](std::uint64_t lsn, std::string_view payload) {
            records_.emplace_back(lsn, std::string(payload));
            return true;
          },
          error)) {
    return false;
  }
  // Pending replay counts toward the next snapshot so a long recovered
  // tail is folded in soon instead of being replayed again next restart.
  records_since_snapshot_ = records_.size();
  stats->segments = log_->segments().size();
  stats->records = records_.size();
  return true;
}

bool SessionJournal::timed_sync(std::string* error) {
  const auto t0 = std::chrono::steady_clock::now();
  const bool ok = log_->sync(error);
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  fsync_counter().inc();
  if (us >= kFsyncStallUs) {
    obs::EventRing::record(obs::EventKind::kFsyncStall, opts_.dir, 0,
                           static_cast<std::uint64_t>(us));
  }
  return ok;
}

std::uint64_t SessionJournal::append(std::string_view payload,
                                     std::string* error) {
  // kBatch durability barrier: the retiring segment's records reach the
  // disk before the writer moves on.
  if (opts_.fsync == FsyncPolicy::kBatch && log_->rotation_due() &&
      !timed_sync(error)) {
    return 0;
  }
  const std::uint64_t lsn = log_->append(payload, error);
  if (lsn == 0) return 0;
  if (opts_.fsync == FsyncPolicy::kAlways && !timed_sync(error)) return 0;
  ++records_since_snapshot_;
  append_counter().inc();
  return lsn;
}

bool SessionJournal::commit_snapshot(const std::string& doc,
                                     std::string* error) {
  // atomic_write_file fsyncs the document and the directory, so once it
  // returns the snapshot is the durable truth and every journal record
  // it covers is redundant. A crash between the rename and the unlinks
  // below only leaves fully covered segments behind — recovery filters
  // their records out by LSN. On failure the journal keeps appending: a
  // missed snapshot costs replay time, not data.
  if (!util::atomic_write_file(opts_.dir + "/" + kSnapshotName, doc, error)) {
    return false;
  }
  if (!log_->drop_all(error)) return false;
  snapshot_ = doc;
  records_since_snapshot_ = 0;
  snapshot_counter().inc();
  return true;
}

}  // namespace netd::svc
