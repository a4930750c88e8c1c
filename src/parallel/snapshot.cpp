#include "parallel/snapshot.hpp"

#include "parallel/wire.hpp"
#include "util/crc32.hpp"
#include "util/file_io.hpp"

namespace pts::parallel::snapshot {

namespace {

constexpr std::string_view kMagic = "PTSC";

}  // namespace

// -- Field lists of the checkpoint body. --

void fields(auto& io, codec::Of<SlaveState> auto& s) {
  fields(io, s.strategy);
  io.i32(s.score);
  io.maybe(s.initial, [&](auto& solution) { io.solution(solution); });
  io.solutions(s.b_best);
  io.u64(s.rounds_unchanged);
  io.u64(s.moves_before_round);
  io.u64(s.consecutive_faults);
  io.u8(s.active);
}

void fields(auto& io, codec::Of<MasterCheckpoint> auto& cp) {
  io.u32(cp.instance_fingerprint);
  io.u64(cp.seed);
  io.u32(cp.num_slaves);
  io.u8(cp.share_solutions);
  io.u8(cp.adapt_strategies);
  io.u64(cp.next_round);
  // Reject a foreign file before trusting any solution bits against the
  // instance — a checkpoint of another instance would otherwise fail with a
  // confusing item-count or value-mismatch error inside the solution codec.
  io.check(io.context() == nullptr ||
               cp.instance_fingerprint == instance_fingerprint(*io.context()),
           "checkpoint was written for a different instance (fingerprint "
           "mismatch)");
  io.solution(cp.best);
  for (auto& word : cp.master_rng_state) io.u64(word);
  // Each slave record costs at least strategy + score + flags.
  io.seq(cp.slaves, 4 * 8 + 4, codec::kAnyCount, [&](auto& s) { fields(io, s); });
  io.check(cp.slaves.size() == cp.num_slaves,
           "slave table count disagrees with the header");
  io.u64(cp.total_moves);
  io.f64(cp.elapsed_seconds);
  io.u64(cp.rounds_completed);
  io.u64(cp.strategy_retunes);
  io.u64(cp.global_best_injections);
  io.u64(cp.random_restarts);
  io.u64(cp.relink_improvements);
  io.u64(cp.slave_faults);
  io.u64(cp.slave_respawns);
  // v2: the core-reduction section — an engaged flag, then (only when
  // engaged) the full instance's fingerprint and the fixing status.
  if (io.since(2)) {
    bool engaged = cp.core.engaged();
    io.u8(engaged);
    if (engaged) {
      io.u32(cp.core.full_instance_fingerprint);
      wire::fixed_status(io, cp.core.status);
      io.check(!cp.core.status.empty(), "core section is engaged but empty");
    }
  }
}

std::vector<std::uint8_t> instance_bytes(const mkp::Instance& inst) {
  codec::Writer w;
  w.instance(inst);
  return w.take();
}

std::uint32_t instance_fingerprint(const mkp::Instance& inst) {
  return crc32(instance_bytes(inst));
}

std::uint64_t instance_hash64(const mkp::Instance& inst) {
  // FNV-1a 64: tiny, stable across platforms, and strong enough for a
  // byte-verified content index.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : instance_bytes(inst)) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::vector<std::uint8_t> encode_checkpoint(const MasterCheckpoint& checkpoint) {
  return codec::seal(kMagic, kSnapshotVersion, codec::encode(checkpoint));
}

Expected<MasterCheckpoint> decode_checkpoint(std::span<const std::uint8_t> bytes,
                                             const mkp::Instance& inst) {
  const auto sealed = codec::unseal(bytes, kMagic, kSnapshotMinVersion,
                                    kSnapshotVersion, kMaxBodyBytes, "snapshot");
  if (!sealed) return sealed.status();
  return codec::decode<MasterCheckpoint>(sealed->body, "snapshot", &inst,
                                         sealed->version);
}

Status save_checkpoint(const std::string& path,
                       const MasterCheckpoint& checkpoint) {
  if (path.empty()) {
    return Status::invalid_argument("snapshot: empty checkpoint path");
  }
  const auto written = replace_file(path, path + ".tmp",
                                    encode_checkpoint(checkpoint), "snapshot");
  return written ? Status{} : written.status();
}

Expected<MasterCheckpoint> load_checkpoint(const std::string& path,
                                           const mkp::Instance& inst) {
  constexpr std::size_t kMaxFileBytes = kMaxBodyBytes + kSnapshotHeaderBytes;
  const auto bytes = read_file(path, "snapshot", kMaxFileBytes + 1);
  if (!bytes) return bytes.status();
  if (bytes->size() > kMaxFileBytes) {
    return Status::invalid_argument(
        "snapshot: file exceeds the checkpoint ceiling");
  }
  return decode_checkpoint(*bytes, inst);
}

Status check_compatible(const MasterCheckpoint& checkpoint,
                        const mkp::Instance& inst, std::uint64_t seed,
                        std::size_t num_slaves, bool share_solutions,
                        bool adapt_strategies) {
  if (checkpoint.instance_fingerprint != instance_fingerprint(inst)) {
    return Status::invalid_argument(
        "snapshot: checkpoint was written for a different instance");
  }
  if (checkpoint.seed != seed) {
    return Status::invalid_argument(
        "snapshot: checkpoint seed " + std::to_string(checkpoint.seed) +
        " does not match configured seed " + std::to_string(seed));
  }
  if (checkpoint.num_slaves != num_slaves) {
    return Status::invalid_argument(
        "snapshot: checkpoint has " + std::to_string(checkpoint.num_slaves) +
        " slaves but the run is configured for " + std::to_string(num_slaves));
  }
  if (checkpoint.share_solutions != share_solutions ||
      checkpoint.adapt_strategies != adapt_strategies) {
    return Status::invalid_argument(
        "snapshot: checkpoint cooperation mode does not match the configured "
        "mode");
  }
  return Status{};
}

}  // namespace pts::parallel::snapshot
