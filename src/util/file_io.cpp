#include "util/file_io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

namespace pts {

Status io_error(std::string_view prefix, const std::string& what) {
  return Status::internal(std::string(prefix) + ": " + what + ": " +
                          std::strerror(errno));
}

bool write_all(int fd, std::span<const std::uint8_t> bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const auto n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

Expected<int> replace_file(const std::string& path, const std::string& tmp,
                           std::span<const std::uint8_t> bytes,
                           std::string_view prefix, bool keep_open) {
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return io_error(prefix, "open " + tmp);
  const auto fail = [&](const std::string& what) {
    const auto status = io_error(prefix, what);
    ::close(fd);
    ::unlink(tmp.c_str());
    return status;
  };
  if (!write_all(fd, bytes)) return fail("write " + tmp);
  if (::fsync(fd) != 0) return fail("fsync " + tmp);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return fail("rename " + tmp + " -> " + path);
  }
  const auto dir = std::filesystem::path(path).parent_path();
  const std::string dir_path = dir.empty() ? "." : dir.string();
  if (const int dir_fd = ::open(dir_path.c_str(), O_RDONLY | O_DIRECTORY);
      dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  if (keep_open) return fd;
  ::close(fd);
  return -1;
}

Expected<std::vector<std::uint8_t>> read_file(const std::string& path,
                                              std::string_view prefix,
                                              std::size_t limit) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::unavailable(std::string(prefix) + ": no file at " + path);
    }
    return io_error(prefix, "open " + path);
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  while (bytes.size() < limit) {
    const auto n = ::read(fd, buf, std::min(sizeof buf, limit - bytes.size()));
    if (n < 0) {
      if (errno == EINTR) continue;
      const auto status = io_error(prefix, "read " + path);
      ::close(fd);
      return status;
    }
    if (n == 0) break;
    bytes.insert(bytes.end(), buf, buf + n);
  }
  ::close(fd);
  return bytes;
}

}  // namespace pts
