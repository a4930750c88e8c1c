#pragma once
// Crash-safe master checkpoints (DESIGN.md §9).
//
// A checkpoint captures everything the master needs to continue a cooperative
// run after a kill -9: the global best, every slave's record (strategy,
// score, B-best pool, next initial, stagnation counter), the master RNG's raw
// xoshiro state, and the aggregate counters already earned. Slave-side state
// needs no capture: each round's slave RNG derives from (seed, slave, round)
// and the round-local frequency memory is rebuilt per assignment, so
// restoring the master restores the whole run — a resumed run replays the
// exact draw sequence of an uninterrupted one (bit-identical final best).
//
// File layout: a codec::seal container (parallel/codec.hpp) —
//
//   offset 0   u8[4]  magic   'P' 'T' 'S' 'C'
//   offset 4   u8     version kSnapshotVersion
//   offset 5   u32    crc     CRC-32 (util/crc32.hpp) of the body bytes
//   offset 9   u64    size    body byte count
//   offset 17  ...    body    MasterCheckpoint's field list (snapshot.cpp)
//
// Writes are atomic (util/file_io.hpp replace_file): a crash mid-write
// leaves either the old checkpoint or the new one, never a torn file. The
// loader is total: short headers, bad magic/version, size mismatches, CRC
// failures and truncated or over-counted sections all come back as a Status,
// never a crash or an unbounded allocation; solutions are revalidated
// against the instance (bit/value consistency) exactly as frames from a
// worker are.

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bounds/reduction.hpp"
#include "mkp/instance.hpp"
#include "mkp/solution.hpp"
#include "parallel/codec.hpp"
#include "tabu/strategy.hpp"
#include "util/status.hpp"

namespace pts::parallel::snapshot {

/// v2 appends the core-reduction section (see CoreSection). v1 files are
/// still accepted — they decode with an empty (disengaged) core section.
inline constexpr std::uint8_t kSnapshotVersion = 2;
inline constexpr std::uint8_t kSnapshotMinVersion = 1;
inline constexpr std::size_t kSnapshotHeaderBytes = codec::kSealHeaderBytes;

/// Ceiling on one checkpoint body, mirroring wire::kMaxPayloadBytes: a
/// corrupt size field must be rejected before any allocation happens.
inline constexpr std::uint64_t kMaxBodyBytes = 256ull << 20;

/// One slave's master-side record — the paper's data-structure entry
/// (strategy St_i, initial S_i, B best solutions, score_i) plus the
/// recovery-era fields the degradation policy and telemetry stitching need.
struct SlaveState {
  tabu::Strategy strategy;
  int score = 0;
  std::optional<mkp::Solution> initial;
  std::vector<mkp::Solution> b_best;
  std::size_t rounds_unchanged = 0;
  /// Work-unit offset for anytime stitching (moves this slave had already
  /// spent before the next round).
  std::uint64_t moves_before_round = 0;
  /// Back-to-back faulted rounds; feeds the pool-degradation threshold.
  std::size_t consecutive_faults = 0;
  /// False once the master retired this slave (pool degradation): it gets no
  /// further assignments and the survivors absorb its work share.
  bool active = true;
};

/// Provenance of a core-reduced run (DESIGN.md "Core-problem reduction").
/// When ParallelConfig::core engaged, every solution in the checkpoint —
/// best, initials, elite pools — lives in CORE coordinates, and the
/// instance_fingerprint above is the fingerprint of the core instance the
/// master actually searched. This section records the reduction that built
/// that core: the FULL instance's fingerprint plus the per-variable fixing
/// status. A resumed run rederives the reduction from the full instance
/// (build_core_problem is deterministic) and refuses to resume if it does
/// not reproduce this section bit-for-bit — a drifted reduction would remap
/// the checkpointed core bits onto the wrong variables.
struct CoreSection {
  std::uint32_t full_instance_fingerprint = 0;
  std::vector<bounds::FixedValue> status;  ///< one entry per FULL variable

  /// Disengaged sections (no core reduction, or a v1 file) are empty.
  [[nodiscard]] bool engaged() const { return !status.empty(); }

  friend bool operator==(const CoreSection&, const CoreSection&) = default;
};

/// The master's full resumable state at a round boundary.
struct MasterCheckpoint {
  explicit MasterCheckpoint(const mkp::Instance& inst) : best(inst) {}

  // -- Identity: a checkpoint only resumes the run that wrote it. --
  std::uint32_t instance_fingerprint = 0;  ///< CRC-32 of the encoded instance
  std::uint64_t seed = 0;
  std::uint32_t num_slaves = 0;
  bool share_solutions = true;
  bool adapt_strategies = true;

  /// First round the resumed run should execute.
  std::uint64_t next_round = 0;

  // -- Global search state. --
  mkp::Solution best;
  std::array<std::uint64_t, 4> master_rng_state{};
  std::vector<SlaveState> slaves;

  // -- Aggregates carried across the restart so a resumed MasterResult
  //    reports whole-run totals, and offsets for anytime re-basing. --
  std::uint64_t total_moves = 0;
  double elapsed_seconds = 0.0;
  std::uint64_t rounds_completed = 0;
  std::uint64_t strategy_retunes = 0;
  std::uint64_t global_best_injections = 0;
  std::uint64_t random_restarts = 0;
  std::uint64_t relink_improvements = 0;
  std::uint64_t slave_faults = 0;
  std::uint64_t slave_respawns = 0;

  // -- Core-reduction provenance (v2; empty = not core-reduced). --
  CoreSection core;
};

/// The canonical wire encoding of an instance (codec::Writer::instance):
/// what a worker handshake carries and what both identities below hash.
[[nodiscard]] std::vector<std::uint8_t> instance_bytes(const mkp::Instance& inst);

/// Identity hash of an instance: CRC-32 over its wire encoding (name, sizes,
/// profits, weights, capacities, known optimum). Two instances fingerprint
/// equal iff a worker handshake would serialize them identically.
[[nodiscard]] std::uint32_t instance_fingerprint(const mkp::Instance& inst);

/// 64-bit content address over the same canonical wire encoding (FNV-1a).
/// The service's dedup index and warm-start store key on this — the wider
/// width keeps accidental collisions out of cross-tenant state sharing (and
/// collisions are verified by byte comparison anyway, never trusted).
[[nodiscard]] std::uint64_t instance_hash64(const mkp::Instance& inst);

// -- Byte-level round trip (tests and tooling drive these directly). --

[[nodiscard]] std::vector<std::uint8_t> encode_checkpoint(
    const MasterCheckpoint& checkpoint);

/// Total decoder over a full file image (header + body). Solutions are
/// rebuilt against `inst`; a fingerprint mismatch rejects the file as
/// foreign before any solution is trusted.
[[nodiscard]] Expected<MasterCheckpoint> decode_checkpoint(
    std::span<const std::uint8_t> bytes, const mkp::Instance& inst);

// -- File I/O. --

/// Atomic write via `path.tmp` (replace_file).
[[nodiscard]] Status save_checkpoint(const std::string& path,
                                     const MasterCheckpoint& checkpoint);

/// Reads and decodes `path`. kUnavailable when the file does not exist (the
/// caller distinguishes "no checkpoint yet" from "corrupt checkpoint");
/// kInvalidArgument for any malformed content.
[[nodiscard]] Expected<MasterCheckpoint> load_checkpoint(
    const std::string& path, const mkp::Instance& inst);

/// Rejects resuming under a different configuration than the one that wrote
/// the checkpoint — seed, slave count or cooperation mode drift would
/// silently break the deterministic replay the snapshot promises.
[[nodiscard]] Status check_compatible(const MasterCheckpoint& checkpoint,
                                      const mkp::Instance& inst,
                                      std::uint64_t seed,
                                      std::size_t num_slaves,
                                      bool share_solutions,
                                      bool adapt_strategies);

}  // namespace pts::parallel::snapshot
