#include "util/atomic_file.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace netd::util {

namespace {

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what + ": " + std::strerror(errno);
  return false;
}

std::string parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

bool write_all_fd(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<std::size_t> pread_all(int fd, char* data, std::size_t len,
                                     std::uint64_t offset) {
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::pread(fd, data + got, len - got,
                              static_cast<off_t>(offset + got));
    if (n < 0) {
      if (errno == EINTR) continue;
      return std::nullopt;
    }
    if (n == 0) break;
    got += static_cast<std::size_t>(n);
  }
  return got;
}

bool atomic_write_file(const std::string& path, const std::string& contents,
                       std::string* error) {
  // The temp name carries the pid so two writers cannot collide; the loser
  // of a concurrent rename race still leaves a complete file at `path`.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return fail(error, "open " + tmp);
  if (!write_all_fd(fd, contents.data(), contents.size())) {
    fail(error, "write " + tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  if (::fsync(fd) != 0) {
    fail(error, "fsync " + tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  if (::close(fd) != 0) {
    fail(error, "close " + tmp);
    ::unlink(tmp.c_str());
    return false;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    fail(error, "rename " + tmp + " -> " + path);
    ::unlink(tmp.c_str());
    return false;
  }
  // Make the rename durable: fsync the containing directory. Some
  // filesystems refuse O_RDONLY fsync on directories; treat open failure
  // as best-effort rather than data loss (the data file itself is synced).
  const int dfd = ::open(parent_dir(path).c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    (void)::fsync(dfd);
    ::close(dfd);
  }
  return true;
}

std::optional<std::string> read_file(const std::string& path,
                                     std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    fail(error, "open " + path);
    return std::nullopt;
  }
  std::string out;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      fail(error, "read " + path);
      ::close(fd);
      return std::nullopt;
    }
    if (n == 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

std::optional<std::uint64_t> file_size(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return std::nullopt;
  return static_cast<std::uint64_t>(st.st_size);
}

bool truncate_file(const std::string& path, std::uint64_t size,
                   std::string* error) {
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) return fail(error, "open " + path);
  if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    fail(error, "ftruncate " + path);
    ::close(fd);
    return false;
  }
  if (::fsync(fd) != 0) {
    fail(error, "fsync " + path);
    ::close(fd);
    return false;
  }
  ::close(fd);
  return true;
}

std::size_t remove_stale_temps(const std::string& path) {
  const std::string dir = parent_dir(path);
  const auto slash = path.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const std::string prefix = base + ".tmp.";
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  std::size_t removed = 0;
  while (const dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.size() <= prefix.size() ||
        name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    // Only pid suffixes qualify — never delete an unrelated file that
    // merely contains ".tmp." in its name.
    if (name.find_first_not_of("0123456789", prefix.size()) !=
        std::string::npos) {
      continue;
    }
    if (::unlink((dir + "/" + name).c_str()) == 0) ++removed;
  }
  ::closedir(d);
  return removed;
}

bool fsync_file(const std::string& path, std::string* error) {
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) return fail(error, "open " + path);
  const bool ok = ::fsync(fd) == 0;
  if (!ok) fail(error, "fsync " + path);
  ::close(fd);
  return ok;
}

}  // namespace netd::util
