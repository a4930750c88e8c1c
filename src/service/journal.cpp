#include "service/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstring>
#include <map>

#include "obs/metrics.hpp"
#include "util/crc32.hpp"
#include "util/file_io.hpp"
#include "util/timer.hpp"

namespace pts::service::journal {

namespace {

using parallel::codec::Reader;
using parallel::codec::Writer;

constexpr std::uint8_t kMagic[4] = {'P', 'T', 'S', 'J'};

// -- Record bodies. Each field list drives the writers (append, compact)
//    and replay alike. --

/// kSubmitted: job id, instance, options, and the v3 tenant tail.
void submitted_body(auto& io, auto& id, auto& instance, auto& options,
                    auto& tenant, auto& warm_start) {
  io.u64(id);
  io.instance(instance);
  fields(io, options);
  if (io.since(3)) {
    io.str(tenant, 256);
    io.en(warm_start, WarmStartPolicy::kSimilar);
  }
}

/// kResolved: job id. kDispatched: job id + start sequence. kDedup:
/// follower id + primary id.
void ids_body(auto& io, auto&... ids) { (io.u64(ids), ...); }

std::vector<std::uint8_t> ids(std::same_as<std::uint64_t> auto... values) {
  Writer w;
  ids_body(w, values...);
  return w.take();
}

std::vector<std::uint8_t> submitted(JobId id, const mkp::Instance& inst,
                                    const JobOptions& options,
                                    const TenantId& tenant,
                                    WarmStartPolicy warm_start) {
  Writer w;
  submitted_body(w, id, inst, options, tenant, warm_start);
  return w.take();
}

/// Frames one record (type | crc | len | body) into `w` — shared between the
/// append path and the compaction rewrite so both produce identical bytes.
void put_record(Writer& w, RecordType type,
                const std::vector<std::uint8_t>& body) {
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(crc32(body));
  w.u32(static_cast<std::uint32_t>(body.size()));
  w.bytes(body);
}

void put_file_header(Writer& w) {
  for (const auto b : kMagic) w.u8(b);
  w.u8(kJournalVersion);
}

}  // namespace

void put_job_options(Writer& w, const JobOptions& options) {
  fields(w, options);
}

Expected<JobOptions> get_job_options(Reader& r, std::uint8_t version) {
  r.set_version(version);
  JobOptions options;
  fields(r, options);
  if (!r.ok()) return r.error("journal: job options");
  return options;
}

JobJournal::~JobJournal() {
  if (fd_ >= 0) ::close(fd_);
}

Expected<std::unique_ptr<JobJournal>> JobJournal::open_truncate(
    const std::string& path) {
  if (path.empty()) {
    return Status::invalid_argument("journal: empty journal path");
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return io_error("journal", "open " + path);
  Writer w;
  put_file_header(w);
  if (!write_all(fd, w.take()) || ::fsync(fd) != 0) {
    const auto status = io_error("journal", "write header " + path);
    ::close(fd);
    return status;
  }
  return std::unique_ptr<JobJournal>(new JobJournal(fd, path));
}

Status JobJournal::append(RecordType type, const std::vector<std::uint8_t>& body) {
  Writer w;
  put_record(w, type, body);
  const auto frame = w.take();
  const Stopwatch watch;
  std::lock_guard lock(mutex_);
  // One write, then fsync: a crash can tear at most the tail record, which
  // the reader detects (CRC) and discards — the replay contract.
  if (!write_all(fd_, frame)) return io_error("journal", "append");
  if (::fsync(fd_) != 0) return io_error("journal", "fsync");
  ++records_appended_;
  obs::metrics().counter("journal_appends_total").add();
  obs::metrics().histogram("journal_append_seconds")
      .record(watch.elapsed_seconds());
  return Status{};
}

Status JobJournal::append_submitted(JobId id, const mkp::Instance& instance,
                                    const JobOptions& options,
                                    const TenantId& tenant,
                                    WarmStartPolicy warm_start) {
  return append(RecordType::kSubmitted,
                submitted(id, instance, options, tenant, warm_start));
}

Status JobJournal::append_dedup(JobId follower, JobId primary) {
  return append(RecordType::kDedup, ids(follower, primary));
}

Status JobJournal::append_dispatched(JobId id, std::uint64_t start_sequence) {
  return append(RecordType::kDispatched, ids(id, start_sequence));
}

Status JobJournal::append_resolved(JobId id) {
  return append(RecordType::kResolved, ids(id));
}

std::uint64_t JobJournal::records_appended() const {
  std::lock_guard lock(mutex_);
  return records_appended_;
}

Status JobJournal::compact(const std::vector<LiveJob>& live) {
  const Stopwatch watch;
  // Build the full compacted image first — header, then one kSubmitted per
  // open job (plus kDispatched for the already-started ones, preserving the
  // committed start order) — so the file write is a single pass.
  Writer w;
  put_file_header(w);
  std::uint64_t records = 0;
  const TenantId default_tenant;
  for (const auto& job : live) {
    put_record(w, RecordType::kSubmitted,
               submitted(job.id, *job.instance, *job.options,
                         job.tenant != nullptr ? *job.tenant : default_tenant,
                         job.warm_start));
    ++records;
    if (job.dispatch_sequence != 0) {
      put_record(w, RecordType::kDispatched, ids(job.id, job.dispatch_sequence));
      ++records;
    }
    if (job.dedup_primary != 0) {
      put_record(w, RecordType::kDedup, ids(job.id, job.dedup_primary));
      ++records;
    }
  }

  std::lock_guard lock(mutex_);
  // The same atomic replace as a snapshot save: a crash at any point replays
  // the old log or the compacted one, never a mix.
  const auto fd = replace_file(path_, path_ + ".tmp", w.take(), "journal",
                               /*keep_open=*/true);
  if (!fd) return fd.status();
  // Future appends go to the new file: fd names the renamed inode.
  ::close(fd_);
  fd_ = *fd;
  records_appended_ = records;
  obs::metrics().counter("service_journal_compactions_total").add();
  obs::metrics().histogram("journal_compact_seconds")
      .record(watch.elapsed_seconds());
  return Status{};
}

Expected<std::vector<RecoveredJob>> recover_jobs(const std::string& path) {
  auto read = read_file(path, "journal");
  if (!read) {
    if (read.status().code() == StatusCode::kUnavailable) {
      return std::vector<RecoveredJob>{};  // no file: fresh start
    }
    return read.status();
  }
  const auto& bytes = *read;
  if (bytes.empty()) return std::vector<RecoveredJob>{};
  if (bytes.size() < kJournalHeaderBytes ||
      std::memcmp(bytes.data(), kMagic, 4) != 0) {
    return Status::invalid_argument("journal: bad magic (not a job journal)");
  }
  const std::uint8_t version = bytes[4];
  if (version < kJournalMinVersion || version > kJournalVersion) {
    return Status::invalid_argument(
        "journal: unsupported version " + std::to_string(version) +
        " (accepted " + std::to_string(kJournalMinVersion) + ".." +
        std::to_string(kJournalVersion) + ")");
  }

  // Replay. Ordered map keyed by the old id keeps submission order; a
  // resolved record erases its submission. Any malformed record is treated
  // as the torn tail of a crashed append: stop there, trust what came before.
  std::map<JobId, RecoveredJob> open;
  std::span<const std::uint8_t> rest =
      std::span(bytes).subspan(kJournalHeaderBytes);
  while (rest.size() >= kRecordHeaderBytes) {
    Reader header(rest.first(kRecordHeaderBytes));
    const auto type = static_cast<RecordType>(header.u8());
    const auto crc = header.u32();
    const auto body_len = header.u32();
    if (body_len > kMaxRecordBytes ||
        body_len > rest.size() - kRecordHeaderBytes) {
      break;  // torn tail
    }
    const auto body = rest.subspan(kRecordHeaderBytes, body_len);
    if (crc32(body) != crc) break;  // torn tail
    rest = rest.subspan(kRecordHeaderBytes + body_len);

    Reader r(body, nullptr, version);
    JobId id = 0;
    std::uint64_t other = 0;
    if (type == RecordType::kResolved) {
      ids_body(r, id);
      if (!r.done()) break;
      open.erase(id);
      // A dedup link into a resolved primary is inert provenance — the
      // follower recovers as a plain job rather than pointing at a solve
      // that no longer exists.
      for (auto& [other_id, job] : open) {
        if (job.dedup_primary == id) job.dedup_primary = 0;
      }
    } else if (type == RecordType::kDispatched) {
      ids_body(r, id, other);
      if (!r.done()) break;
      // Attaches to the open submission; a dispatch record whose job was
      // since resolved (or whose submission the tail tore away) is inert.
      if (auto it = open.find(id); it != open.end()) {
        it->second.dispatch_sequence = other;
      }
    } else if (type == RecordType::kDedup) {
      ids_body(r, id, other);
      if (!r.done()) break;
      // Provenance on the open follower; the link only stands while the
      // primary itself is still open (its solve never resolved anyone).
      if (auto it = open.find(id); it != open.end() && open.contains(other)) {
        it->second.dedup_primary = other;
      }
    } else if (type == RecordType::kSubmitted) {
      RecoveredJob job{0, r.make<mkp::Instance>()};
      submitted_body(r, job.id, job.instance, job.options, job.tenant,
                     job.warm_start);
      if (!r.done()) break;
      open.insert_or_assign(job.id, std::move(job));
    } else {
      break;  // unknown record type: written by a future version, stop
    }
  }

  std::vector<RecoveredJob> out;
  out.reserve(open.size());
  for (auto& [id, job] : open) out.push_back(std::move(job));
  return out;
}

}  // namespace pts::service::journal
