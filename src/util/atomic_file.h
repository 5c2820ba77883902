// Crash-safe file primitives for checkpoint/resume machinery.
//
// atomic_write_file() implements the classic write-temp → fsync → rename
// → fsync-directory dance: after it returns true, the file at `path`
// contains either the previous contents or the new contents in full —
// never a torn mixture — even across SIGKILL or power loss. Readers that
// open `path` concurrently always see one complete version (rename(2) is
// atomic), which is what lets a live daemon poll a campaign checkpoint
// that another process is rewriting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace netd::util {

/// EINTR-safe full write; false on any other write error, which may leave
/// a partial write behind.
[[nodiscard]] bool write_all_fd(int fd, const char* data, std::size_t len);

/// EINTR-safe pread(2) of `len` bytes at `offset`: the bytes read, fewer
/// only at end of file; std::nullopt on a read error.
[[nodiscard]] std::optional<std::size_t> pread_all(int fd, char* data,
                                                   std::size_t len,
                                                   std::uint64_t offset);

/// Atomically replaces `path` with `contents`. Writes `path` + a unique
/// suffix, fsyncs, renames over `path`, then fsyncs the parent directory
/// so the rename itself is durable. False (with `error`) on any failure;
/// the temp file is unlinked on the error paths.
[[nodiscard]] bool atomic_write_file(const std::string& path,
                                     const std::string& contents,
                                     std::string* error = nullptr);

/// Slurps a file. std::nullopt (with `error`) when it cannot be opened or
/// read.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path,
                                                   std::string* error = nullptr);

/// Size in bytes, or std::nullopt when `path` does not exist / stat fails.
[[nodiscard]] std::optional<std::uint64_t> file_size(const std::string& path);

/// Truncates `path` to exactly `size` bytes and fsyncs it. Used on resume
/// to drop bytes written after the last durable checkpoint commit (e.g. a
/// partial trailing trace line). False (with `error`) on failure.
[[nodiscard]] bool truncate_file(const std::string& path, std::uint64_t size,
                                 std::string* error = nullptr);

/// fsyncs an existing file by path (flush-to-disk barrier before a
/// checkpoint that references its length is committed).
[[nodiscard]] bool fsync_file(const std::string& path,
                              std::string* error = nullptr);

/// Crash recovery for atomic_write_file: removes every leftover
/// "<basename>.tmp.<pid>" temp file a crashed writer left beside `path`.
/// Such a file is by definition incomplete (the writer died before the
/// rename), so deleting it is always safe — `path` itself still holds the
/// last fully committed version. Returns the number of temp files
/// removed. Callers that own a whole directory of atomic files (e.g. the
/// agent spool manifest) run this once on startup before trusting the
/// directory's contents.
std::size_t remove_stale_temps(const std::string& path);

}  // namespace netd::util
