#include "util/segment_log.h"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/atomic_file.h"

namespace netd::util {

namespace {

using Verdict = record_log::Scan::Verdict;

constexpr std::string_view kQuarantineSuffix = ".quarantined";

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what + ": " + std::strerror(errno);
  return false;
}

/// read()'s walk over one segment: the indexed records from `first` on,
/// one pread(2) and one check each. Sets `stopped` when `fn` stops.
bool read_segment(const SegmentLog::Segment& seg,
                  std::vector<SegmentLog::IndexEntry>::const_iterator first,
                  const record_log::RecordFn& fn, bool* stopped,
                  std::string* error) {
  const int fd = ::open(seg.path.c_str(), O_RDONLY);
  if (fd < 0) return fail(error, "open " + seg.path);
  bool ok = true;
  std::string record;
  for (auto it = first; !*stopped && it != seg.index.end(); ++it) {
    const std::uint64_t end =
        it + 1 != seg.index.end() ? (it + 1)->offset : seg.scan.good_bytes;
    record.resize(end - it->offset);
    const auto got = pread_all(fd, record.data(), record.size(), it->offset);
    if (!got.has_value()) {
      ok = fail(error, "read " + seg.path);
      break;
    }
    // Exactly one record fills the extent (a short read cannot), and it
    // is the indexed one.
    const record_log::Scan one =
        record_log::scan(std::string_view(record).substr(0, *got));
    if (one.records != 1 || one.good_bytes != record.size() ||
        one.first_seq != it->seq) {
      if (error != nullptr) {
        *error = "segment changed on disk: the record at offset " +
                 std::to_string(it->offset) + " of " + seg.path +
                 " no longer verifies";
      }
      ok = false;
      break;
    }
    *stopped = !fn(it->seq, std::string_view(record).substr(
                                record_log::kHeaderBytes));
  }
  ::close(fd);
  return ok;
}

}  // namespace

bool SegmentLog::list(const Options& opts, Listing* out, std::string* error) {
  *out = Listing{};
  std::vector<std::string> names;
  DIR* d = ::opendir(opts.dir.c_str());
  if (d == nullptr) return fail(error, "opendir " + opts.dir);
  while (const dirent* e = ::readdir(d)) {
    const std::string_view name = e->d_name;
    if (name.ends_with(kQuarantineSuffix)) {
      ++out->quarantined_files;
    } else if (name.size() > opts.prefix.size() + opts.suffix.size() &&
               name.starts_with(opts.prefix) && name.ends_with(opts.suffix)) {
      names.emplace_back(name);
    }
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  for (std::size_t i = 0; i < names.size(); ++i) {
    Segment seg{opts.dir + "/" + names[i], {}, {}};
    const auto bytes = read_file(seg.path, error);
    if (!bytes.has_value()) return false;
    std::uint64_t offset = 0;
    seg.scan = record_log::scan(
        *bytes, [&](std::uint64_t seq, std::string_view payload) {
          seg.index.push_back({seq, offset});
          offset += record_log::kHeaderBytes + payload.size();
          return true;
        });
    // Only the newest segment can end in the append a crash cut short;
    // a torn record anywhere else is damage.
    if (seg.scan.verdict == Verdict::kTornTail && i + 1 < names.size()) {
      seg.scan.verdict = Verdict::kCorrupt;
    }
    out->segments.push_back(std::move(seg));
  }
  return true;
}

bool SegmentLog::quarantine(const std::string& path, std::string* error) {
  const std::string target = path + std::string(kQuarantineSuffix);
  if (::rename(path.c_str(), target.c_str()) != 0) {
    return fail(error, "quarantine " + path);
  }
  return true;
}

std::unique_ptr<SegmentLog> SegmentLog::open(Options opts,
                                             std::vector<Segment> segments,
                                             std::uint64_t floor,
                                             Repair* repair,
                                             std::string* error) {
  std::unique_ptr<SegmentLog> log(new SegmentLog(std::move(opts)));
  Repair local;
  Repair& r = repair != nullptr ? *repair : local;
  for (Segment& seg : segments) {
    if (seg.scan.verdict == Verdict::kTornTail) {
      // The writer died mid-append: cut back to the last complete record
      // so appending resumes after it.
      const auto size = file_size(seg.path);
      if (!size.has_value()) {
        fail(error, "stat " + seg.path);
        return nullptr;
      }
      ++r.torn_tails;
      r.torn_bytes += *size - seg.scan.good_bytes;
      if (!truncate_file(seg.path, seg.scan.good_bytes, error)) return nullptr;
      seg.scan.verdict = Verdict::kClean;
    }
    if (seg.scan.records == 0) {
      // A rotation that never received a record, or a tail torn back to
      // nothing.
      if (::unlink(seg.path.c_str()) != 0) {
        fail(error, "unlink " + seg.path);
        return nullptr;
      }
      ++r.empty_removed;
      continue;
    }
    log->next_seq_ = std::max(log->next_seq_, seg.scan.last_seq + 1);
    log->segments_.push_back(std::move(seg));
  }
  log->next_seq_ = std::max(log->next_seq_, floor + 1);
  if (!log->segments_.empty() && !log->open_active(error)) return nullptr;
  return log;
}

bool SegmentLog::read(const std::vector<Segment>& segments,
                      std::uint64_t from, const record_log::RecordFn& fn,
                      std::string* error) {
  bool stopped = false;
  for (const Segment& seg : segments) {
    const auto first = std::upper_bound(
        seg.index.begin(), seg.index.end(), from,
        [](std::uint64_t seq, const IndexEntry& e) { return seq < e.seq; });
    if (first == seg.index.end()) continue;
    if (!read_segment(seg, first, fn, &stopped, error)) return false;
    if (stopped) return true;
  }
  return true;
}

SegmentLog::~SegmentLog() {
  if (fd_ >= 0) ::close(fd_);
}

bool SegmentLog::open_active(std::string* error) {
  const std::string& path = segments_.back().path;
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
  if (fd < 0) return fail(error, "open " + path);
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
  return true;
}

std::uint64_t SegmentLog::append(std::string_view payload,
                                 std::string* error) {
  if (payload.size() > record_log::kMaxRecordBytes) {
    if (error != nullptr) *error = "record exceeds kMaxRecordBytes";
    return 0;
  }
  if (segments_.empty() || rotation_due()) {
    char name[32];
    std::snprintf(name, sizeof(name), "%020llu",
                  static_cast<unsigned long long>(next_seq_));
    segments_.push_back(
        Segment{opts_.dir + "/" + opts_.prefix + name + opts_.suffix, {}, {}});
    if (!open_active(error)) {
      segments_.pop_back();
      return 0;
    }
  }
  Segment& seg = segments_.back();
  const std::uint64_t seq = next_seq_;
  const std::string frame = record_log::encode_record(seq, payload);
  if (!write_all_fd(fd_, frame.data(), frame.size())) {
    fail(error, "write " + seg.path);
    return 0;
  }
  seg.index.push_back({seq, seg.scan.good_bytes});
  if (seg.scan.records++ == 0) seg.scan.first_seq = seq;
  seg.scan.last_seq = seq;
  seg.scan.good_bytes += frame.size();
  ++next_seq_;
  return seq;
}

bool SegmentLog::sync(std::string* error) {
  if (fd_ >= 0 && ::fsync(fd_) != 0) {
    return fail(error, "fsync " + segments_.back().path);
  }
  return true;
}

bool SegmentLog::drop_oldest(std::string* error) {
  if (::unlink(segments_.front().path.c_str()) != 0) {
    return fail(error, "unlink " + segments_.front().path);
  }
  segments_.erase(segments_.begin());
  if (segments_.empty()) {
    ::close(fd_);
    fd_ = -1;
  }
  return true;
}

bool SegmentLog::drop_all(std::string* error) {
  while (!segments_.empty()) {
    if (!drop_oldest(error)) return false;
  }
  return true;
}

}  // namespace netd::util
