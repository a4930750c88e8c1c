#pragma once
// Whole-file I/O for the on-disk formats (master snapshots, the job journal,
// warm-start entries): one durable-replace sequence, one write loop, one
// read loop. Errors are Statuses prefixed with the caller's format name
// ("snapshot: write <path>: <errno text>").

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hpp"

namespace pts {

/// kInternal "<prefix>: <what>: <strerror(errno)>".
[[nodiscard]] Status io_error(std::string_view prefix, const std::string& what);

/// write(2) until done; short writes happen on signals even for regular files.
[[nodiscard]] bool write_all(int fd, std::span<const std::uint8_t> bytes);

/// Atomic replace: writes `bytes` to `tmp`, fsyncs it, renames it over
/// `path`, then fsyncs the directory. The fsync comes before the rename, so
/// the new name never becomes visible while its bytes are only in the page
/// cache: a crash leaves the old file or the new one, never a torn mix.
/// A failed directory fsync is not an error (the data itself is synced).
/// With `keep_open` the new file's descriptor is returned still open (the
/// journal keeps appending to it); otherwise it is closed and -1 returned.
[[nodiscard]] Expected<int> replace_file(const std::string& path,
                                         const std::string& tmp,
                                         std::span<const std::uint8_t> bytes,
                                         std::string_view prefix,
                                         bool keep_open = false);

/// Reads `path` up to `limit` bytes. A missing file is kUnavailable, any
/// other failure kInternal.
[[nodiscard]] Expected<std::vector<std::uint8_t>> read_file(
    const std::string& path, std::string_view prefix,
    std::size_t limit = std::numeric_limits<std::size_t>::max());

}  // namespace pts
