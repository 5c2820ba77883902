#include "agent/spool.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstring>

#include "util/atomic_file.h"
#include "util/json.h"

namespace netd::agent {

namespace {

constexpr const char* kManifest = "MANIFEST";

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what + ": " + std::strerror(errno);
  return false;
}

}  // namespace

std::unique_ptr<Spool> Spool::open(Options opts, std::string* error,
                                   RecoveryStats* stats) {
  std::unique_ptr<Spool> s(new Spool(std::move(opts)));
  RecoveryStats local;
  if (!s->recover(error, stats != nullptr ? stats : &local)) return nullptr;
  return s;
}

bool Spool::recover(std::string* error, RecoveryStats* stats) {
  if (::mkdir(opts_.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return fail(error, "mkdir " + opts_.dir);
  }
  const std::string manifest = opts_.dir + "/" + kManifest;
  // A writer that died between temp write and rename leaves a stale temp
  // beside MANIFEST; the same recovery path every atomic_write_file
  // consumer uses cleans it up.
  stats->stale_temps = util::remove_stale_temps(manifest);
  if (const auto text = util::read_file(manifest, nullptr); text.has_value()) {
    // MANIFEST is tiny, machine-written JSON: {"shipped": N}. An
    // unreadable one only loses the advisory watermark (segments are the
    // truth), never data.
    const auto doc = util::Json::parse(*text);
    const util::Json* n = doc ? doc->find("shipped") : nullptr;
    if (n != nullptr) shipped_ = n->as_uint().value_or(0);
  }
  stats->shipped = shipped_;

  const util::SegmentLog::Options log_opts{opts_.dir, "seg-", ".ndspool",
                                           opts_.max_segment_bytes};
  util::SegmentLog::Listing listing;
  if (!util::SegmentLog::list(log_opts, &listing, error)) return false;
  std::vector<util::SegmentLog::Segment> keep;
  for (auto& seg : listing.segments) {
    if (seg.scan.verdict == util::record_log::Scan::Verdict::kCorrupt) {
      // Corruption the append path cannot produce: refuse the whole
      // segment, keep the bytes for forensics, count the loss loudly.
      if (!util::SegmentLog::quarantine(seg.path, error)) return false;
      ++stats->quarantined;
      stats->quarantined_records += seg.scan.records;
      continue;
    }
    keep.push_back(std::move(seg));
  }
  // The manifest floor keeps seqs increasing when every segment is gone.
  util::SegmentLog::Repair repair;
  log_ = util::SegmentLog::open(log_opts, std::move(keep), shipped_, &repair,
                                error);
  if (log_ == nullptr) return false;
  stats->torn_tails = repair.torn_tails;
  stats->torn_bytes = repair.torn_bytes;
  stats->empty_removed = repair.empty_removed;
  // Resume the compaction a crash interrupted.
  const std::size_t before = log_->segments().size();
  if (!compact(error)) return false;
  stats->compacted = before - log_->segments().size();
  stats->segments = log_->segments().size();
  for (const auto& seg : log_->segments()) stats->records += seg.scan.records;
  return true;
}

std::uint64_t Spool::append(std::string_view payload, std::string* error) {
  const std::uint64_t seq = log_->append(payload, error);
  if (seq == 0) return 0;
  if (opts_.fsync_each && !log_->sync(error)) return 0;
  shed_over_budget();
  return seq;
}

void Spool::shed_over_budget() {
  if (opts_.max_spool_bytes == 0) return;
  // Whole-segment, oldest-first shedding; the active segment is never
  // shed out from under the writer. The loss is visible twice over: the
  // DropStats counters and the seq gap the server's round count exposes.
  while (bytes() > opts_.max_spool_bytes && log_->segments().size() > 1) {
    const util::record_log::Scan shed = log_->segments().front().scan;
    if (!log_->drop_oldest(nullptr)) break;
    ++dropped_.segments;
    dropped_.records += shed.records;
    dropped_.bytes += shed.good_bytes;
  }
}

std::uint64_t Spool::bytes() const {
  std::uint64_t total = 0;
  for (const auto& seg : log_->segments()) total += seg.scan.good_bytes;
  return total;
}

bool Spool::write_manifest(std::string* error) const {
  return util::atomic_write_file(
      opts_.dir + "/" + kManifest,
      "{\"shipped\": " + std::to_string(shipped_) + "}\n", error);
}

bool Spool::compact(std::string* error) {
  if (opts_.retain_acked) return true;
  // Fully-shipped history the caller does not want to retain; the active
  // segment stays.
  while (log_->segments().size() > 1 &&
         log_->segments().front().scan.last_seq <= shipped_) {
    if (!log_->drop_oldest(error)) return false;
  }
  return true;
}

bool Spool::mark_shipped(std::uint64_t upto, std::string* error) {
  if (upto <= shipped_) return true;
  shipped_ = upto;
  if (!write_manifest(error)) return false;
  return compact(error);
}

}  // namespace netd::agent
