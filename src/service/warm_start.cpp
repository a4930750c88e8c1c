#include "service/warm_start.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "obs/metrics.hpp"
#include "parallel/wire.hpp"
#include "util/file_io.hpp"

namespace pts::service {

namespace {

constexpr std::string_view kMagic = "PTSW";
constexpr std::string_view kWhat = "warm-start store";

std::string entry_name(std::uint64_t content_hash) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "ws_%016llx.ptsw",
                static_cast<unsigned long long>(content_hash));
  return buf;
}

/// One entry body: features, per-slave (strategy, SGP score), seeds.
struct Entry {
  std::uint64_t content_hash = 0;
  std::uint32_t m = 0;
  std::uint32_t n = 0;
  double tightness = 0.0;
  double best_value = 0.0;
  std::vector<std::pair<tabu::Strategy, int>> slaves;
  std::vector<mkp::Solution> seeds;
};

/// The feature + strategy head, all a kSimilar candidate needs.
void head_fields(auto& io, auto& e) {
  io.u64(e.content_hash);
  io.u32(e.m);
  io.u32(e.n);
  io.f64(e.tightness);
  io.f64(e.best_value);
  io.seq(e.slaves, 8, parallel::codec::kAnyCount, [&](auto& slave) {
    fields(io, slave.first);
    io.i32(slave.second);
  });
}

void fields(auto& io, parallel::codec::Of<Entry> auto& e) {
  head_fields(io, e);
  io.solutions(e.seeds);
}

/// How much of an entry the kSimilar scan reads per file. The feature +
/// strategy head is a few hundred bytes even for wide pools; 64 KiB is
/// ludicrously generous while still bounding the scan's I/O — a directory
/// of large entries costs no full read + CRC of every file.
constexpr std::size_t kScanPrefixBytes = 64u << 10;

/// Reads the entry at `path` and decodes its head — plus, given `exact`
/// (the instance of an exact hit), its seed solutions, keeping those that
/// decode (a partial seed beats none). A `scan` reads only the first
/// kScanPrefixBytes and skips the size and CRC checks: it ranks candidates,
/// and the winner is re-read whole. Any malformation is a Status; lookup
/// treats it as a miss.
Expected<Entry> load_entry(const std::string& path,
                           const mkp::Instance* exact = nullptr,
                           bool scan = false) {
  const auto file =
      scan ? read_file(path, kWhat, kScanPrefixBytes) : read_file(path, kWhat);
  if (!file) return file.status();
  const auto sealed =
      parallel::codec::unseal(*file, kMagic, kWarmStartVersion, kWarmStartVersion,
                              kMaxWarmStartBytes, kWhat, /*whole_file=*/!scan);
  if (!sealed) return sealed.status();
  parallel::codec::Reader r(sealed->body, exact);
  Entry entry;
  head_fields(r, entry);
  if (!r.ok()) return r.error(kWhat);
  if (exact != nullptr) r.solutions(entry.seeds);
  return entry;
}

WarmStartStore::Hit make_hit(Entry& entry, bool exact) {
  WarmStartStore::Hit hit;
  hit.exact = exact;
  hit.stored_best = entry.best_value;
  for (const auto& [strategy, score] : entry.slaves) {
    hit.warm.strategies.push_back(strategy);
    hit.warm.scores.push_back(score);
  }
  hit.warm.initials = std::move(entry.seeds);
  return hit;
}

}  // namespace

std::string to_string(WarmStartPolicy policy) {
  switch (policy) {
    case WarmStartPolicy::kDisabled: return "off";
    case WarmStartPolicy::kExact: return "exact";
    case WarmStartPolicy::kSimilar: return "similar";
  }
  return "?";
}

Expected<WarmStartPolicy> warm_start_policy_from_string(const std::string& text) {
  std::string lower = text;
  for (char& c : lower) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  if (lower == "off" || lower == "none" || lower == "disabled") {
    return WarmStartPolicy::kDisabled;
  }
  if (lower == "exact") return WarmStartPolicy::kExact;
  if (lower == "similar") return WarmStartPolicy::kSimilar;
  return Status::invalid_argument("unknown warm-start policy '" + text +
                                  "' (accepted: off, exact, similar)");
}

double mean_tightness(const mkp::Instance& inst) {
  const std::size_t m = inst.num_constraints();
  if (m == 0) return 1.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const auto row = inst.weights_row(i);
    double row_sum = 0.0;
    for (double w : row) row_sum += w;
    sum += row_sum > 0.0 ? inst.capacity(i) / row_sum : 1.0;
  }
  return sum / static_cast<double>(m);
}

WarmStartStore::WarmStartStore(std::string dir, double tightness_tolerance)
    : dir_(std::move(dir)), tightness_tolerance_(tightness_tolerance) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  // A failed create degrades to a store that never hits and never saves.
  // Uniquely-named tmp files orphaned by a crash would otherwise accumulate
  // forever; lookup ignores them (wrong extension), so reclaim them here.
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    if (entry.path().filename().string().find(".ptsw.tmp") ==
        std::string::npos) {
      continue;
    }
    std::filesystem::remove(entry.path(), ec);
  }
}

std::optional<WarmStartStore::Hit> WarmStartStore::lookup(
    const mkp::Instance& inst, std::uint64_t content_hash,
    WarmStartPolicy policy) const {
  if (policy == WarmStartPolicy::kDisabled) return std::nullopt;

  // Exact: one file, addressed by content. Its saved elite solutions are
  // solutions OF this instance — decoded and seeded as initials.
  const auto exact_path =
      (std::filesystem::path(dir_) / entry_name(content_hash)).string();
  if (auto entry = load_entry(exact_path, &inst);
      entry && entry->content_hash == content_hash) {
    obs::metrics().counter("warm_start_exact_hits_total").add();
    return make_hit(*entry, /*exact=*/true);
  }
  if (policy != WarmStartPolicy::kSimilar) return std::nullopt;

  // Approximate: closest mean-tightness neighbor with the same shape.
  // Strategies and SGP scores transfer; solutions never do.
  //
  // Two passes. The scan reads only a bounded prefix of each entry to rank
  // candidates; the full read + CRC validation then runs only on the ranked
  // candidates, best first, and the first one that validates wins.
  const double t = mean_tightness(inst);
  struct Candidate {
    std::string path;
    double dt = 0.0;
    double best_value = 0.0;
  };
  std::vector<Candidate> candidates;
  std::error_code ec;
  for (const auto& file : std::filesystem::directory_iterator(dir_, ec)) {
    if (!file.is_regular_file(ec)) continue;
    if (file.path().extension() != ".ptsw") continue;
    // A head that outruns the scan window decodes as truncated and the
    // entry is skipped — fine, a legitimate one never gets near that large.
    const auto entry = load_entry(file.path().string(), nullptr, /*scan=*/true);
    if (!entry) continue;  // unreadable or corrupt entry: skip, never fatal
    if (entry->m != inst.num_constraints() || entry->n != inst.num_items()) {
      continue;
    }
    const double dt = std::abs(entry->tightness - t);
    if (dt > tightness_tolerance_) continue;
    candidates.push_back({file.path().string(), dt, entry->best_value});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.dt != b.dt) return a.dt < b.dt;
              return a.best_value > b.best_value;
            });
  for (const auto& candidate : candidates) {
    auto entry = load_entry(candidate.path);  // full read + CRC, only now
    if (!entry) continue;  // corrupt entry: fall through to the runner-up
    obs::metrics().counter("warm_start_similar_hits_total").add();
    return make_hit(*entry, /*exact=*/false);
  }
  return std::nullopt;
}

Status WarmStartStore::save(
    const mkp::Instance& inst, std::uint64_t content_hash,
    const mkp::Solution& best,
    const std::vector<parallel::snapshot::SlaveState>& slaves) {
  if (slaves.empty()) {
    return Status::invalid_argument("warm-start store: nothing to save");
  }
  const auto path =
      (std::filesystem::path(dir_) / entry_name(content_hash)).string();

  // Serialize saves: the keep-the-best read below and the rename at the end
  // must be atomic as a pair, or a concurrent save for the same hash could
  // clobber a stronger entry written between the check and the rename.
  std::lock_guard save_lock(save_mutex_);

  // Keep-the-best policy: a weaker run never clobbers a stronger entry.
  if (const auto existing = load_entry(path);
      existing && existing->best_value > best.value()) {
    return Status{};
  }

  Entry entry{content_hash,
              static_cast<std::uint32_t>(inst.num_constraints()),
              static_cast<std::uint32_t>(inst.num_items()),
              mean_tightness(inst),
              best.value()};
  // Seed solutions: the run's best first (it may be in no slave's final
  // pool), then each slave's strongest elite, else its last initial.
  entry.seeds.push_back(best);
  for (const auto& slave : slaves) {
    entry.slaves.emplace_back(slave.strategy, slave.score);
    const mkp::Solution* seed = nullptr;
    for (const auto& elite : slave.b_best) {
      if (seed == nullptr || elite.value() > seed->value()) seed = &elite;
    }
    if (seed == nullptr && slave.initial) seed = &*slave.initial;
    if (seed != nullptr) entry.seeds.push_back(*seed);
  }

  // Atomic replace, so a crash leaves the old entry or the new one. The tmp
  // name is unique per (process, save) so writers never share a tmp file —
  // the mutex above covers this process, the pid covers siblings on a
  // shared store directory.
  const std::string tmp = path + ".tmp." +
                          std::to_string(static_cast<long long>(::getpid())) +
                          "." + std::to_string(tmp_seq_.fetch_add(1));
  const auto written = replace_file(
      path, tmp,
      parallel::codec::seal(kMagic, kWarmStartVersion,
                            parallel::codec::encode(entry)),
      kWhat);
  if (!written) return written.status();
  obs::metrics().counter("warm_start_saves_total").add();
  return Status{};
}

}  // namespace pts::service
