#pragma once
// Peer control protocol of the solver cluster (DESIGN.md §11): the frames a
// coordinator exchanges with a worker node over their persistent peer
// socket. Job traffic (submissions, acks, results) rides the v3 client
// range (net/protocol.hpp) on the SAME connection; this header covers only
// what clustering adds on top — membership (hello/welcome), liveness
// (ping/pong with a load sample) and journal replication (record batches
// plus applied-through acks).
//
// Total decoders. Each frame is one field list (parallel/codec.hpp), run by
// wire::encode_frame / wire::decode_frame: truncated payloads, absurd
// counts, unknown enum bytes and over-long strings come back as a Status —
// never a crash, never an unbounded allocation. Peer frames cross a machine
// boundary, so neither side trusts the other's bytes;
// tests/cluster/test_peer_protocol.cpp fuzzes every frame.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "mkp/instance.hpp"
#include "parallel/wire.hpp"
#include "service/job.hpp"
#include "service/journal.hpp"
#include "util/status.hpp"

namespace pts::cluster {

/// Ceiling on records per kPeerReplicate frame: a long catch-up streams in
/// bounded batches instead of one outsized frame.
inline constexpr std::size_t kMaxReplicateRecordsPerFrame = 256;

/// coordinator -> worker: the join handshake, sent once per connection
/// before anything else. A worker refuses a foreign cluster name with a
/// Goodbye; the epoch is bumped per coordinator incarnation so a worker can
/// tell a restarted (promoted) coordinator from a reconnect of the old one.
struct PeerHello {
  static constexpr auto kType = parallel::wire::MessageType::kPeerHello;
  std::string cluster_name;
  std::uint64_t coordinator_epoch = 0;
};

/// worker -> coordinator: the handshake answer. `last_applied_seq` is the
/// replication catch-up cursor — the coordinator resends every journal
/// record with a later sequence; a fresh (or restarted) worker reports 0 and
/// receives the full live image.
struct PeerWelcome {
  static constexpr auto kType = parallel::wire::MessageType::kPeerWelcome;
  std::string node_name;
  std::uint64_t last_applied_seq = 0;
  std::uint32_t num_workers = 0;  ///< the node's pool width (capacity hint)
};

/// coordinator -> worker: liveness probe. The coordinator declares a node
/// dead after `heartbeat_misses` intervals without a matching pong (or any
/// other inbound frame) and fails its jobs over.
struct PeerPing {
  static constexpr auto kType = parallel::wire::MessageType::kPeerPing;
  std::uint64_t seq = 0;
};

/// worker -> coordinator: probe echo plus the node's load sample and
/// replication cursor. The coordinator places work by its own count of
/// runs in flight per node; the sample is informational.
struct PeerPong {
  static constexpr auto kType = parallel::wire::MessageType::kPeerPong;
  std::uint64_t seq = 0;
  std::uint32_t running_jobs = 0;
  std::uint32_t queued_jobs = 0;
  std::uint64_t last_applied_seq = 0;
};

/// One replicated job-journal record. Mirrors the service journal's record
/// vocabulary (service/journal.hpp): a kSubmitted carries everything needed
/// to re-run the job, kResolved strikes it, kDedup links a follower to the
/// primary job whose solve it shares. The worker applies these to a replica
/// journal file in the standard PTSJ format, so a promoted node can boot a
/// coordinator straight off its replica via journal::recover_jobs.
struct ReplicateRecord {
  enum class Kind : std::uint8_t { kSubmitted = 1, kResolved = 2, kDedup = 3 };
  std::uint64_t seq = 0;  ///< monotone replication sequence (1-based)
  Kind kind = Kind::kResolved;
  service::JobId job_id = 0;
  // -- kSubmitted only. --
  std::optional<mkp::Instance> instance;
  service::JobOptions options;
  service::TenantId tenant;
  service::WarmStartPolicy warm_start = service::WarmStartPolicy::kDisabled;
  // -- kDedup only. --
  service::JobId dedup_primary = 0;
};

/// coordinator -> worker: a batch of journal records in ascending sequence
/// order. Fire-and-forget on the send side; the worker answers with a
/// kPeerReplicateAck once the batch is applied (and fsynced) to its replica.
struct PeerReplicate {
  static constexpr auto kType = parallel::wire::MessageType::kPeerReplicate;
  std::vector<ReplicateRecord> records;
};

/// worker -> coordinator: the replica has applied (and fsynced) every
/// record up to and including this sequence.
struct PeerReplicateAck {
  static constexpr auto kType = parallel::wire::MessageType::kPeerReplicateAck;
  std::uint64_t last_applied_seq = 0;
};

/// Every frame of the peer range, in tag order (see wire::WorkerFrame).
using PeerFrame = std::variant<PeerHello, PeerWelcome, PeerPing, PeerPong,
                               PeerReplicate, PeerReplicateAck>;

// -- Field lists. --

void fields(auto& io, parallel::codec::Of<PeerHello> auto& m) {
  io.str(m.cluster_name, 256);
  io.u64(m.coordinator_epoch);
}

void fields(auto& io, parallel::codec::Of<PeerWelcome> auto& m) {
  io.str(m.node_name, 256);
  io.u64(m.last_applied_seq);
  io.u32(m.num_workers);
}

void fields(auto& io, parallel::codec::Of<PeerPing> auto& m) { io.u64(m.seq); }

void fields(auto& io, parallel::codec::Of<PeerPong> auto& m) {
  io.u64(m.seq);
  io.u32(m.running_jobs);
  io.u32(m.queued_jobs);
  io.u64(m.last_applied_seq);
}

/// The body after (seq, kind, job id) depends on the kind.
void fields(auto& io, parallel::codec::Of<ReplicateRecord> auto& r) {
  using Kind = ReplicateRecord::Kind;
  io.u64(r.seq);
  io.en(r.kind, Kind::kDedup, Kind::kSubmitted);
  io.u64(r.job_id);
  switch (r.kind) {
    case Kind::kSubmitted:
      io.instance(r.instance);
      fields(io, r.options);
      io.str(r.tenant, 256);
      io.en(r.warm_start, service::WarmStartPolicy::kSimilar);
      break;
    case Kind::kDedup:
      io.u64(r.dedup_primary);
      break;
    case Kind::kResolved:
      break;
  }
}

void fields(auto& io, parallel::codec::Of<PeerReplicate> auto& m) {
  // 17 bytes is the smallest record (seq + kind + job id); the explicit cap
  // keeps one frame's decode allocation bounded independent of the payload
  // ceiling.
  io.seq(m.records, 17, kMaxReplicateRecordsPerFrame,
         [&](auto& record) { fields(io, record); });
}

void fields(auto& io, parallel::codec::Of<PeerReplicateAck> auto& m) {
  io.u64(m.last_applied_seq);
}

// -- Encoders. Each returns a complete frame, header included. --

using parallel::wire::encode_frame;
[[nodiscard]] inline std::vector<std::uint8_t> encode_peer_hello(const PeerHello& m) {
  return encode_frame(m);
}
[[nodiscard]] inline std::vector<std::uint8_t> encode_peer_welcome(
    const PeerWelcome& m) {
  return encode_frame(m);
}
[[nodiscard]] inline std::vector<std::uint8_t> encode_peer_ping(const PeerPing& m) {
  return encode_frame(m);
}
[[nodiscard]] inline std::vector<std::uint8_t> encode_peer_pong(const PeerPong& m) {
  return encode_frame(m);
}
[[nodiscard]] inline std::vector<std::uint8_t> encode_peer_replicate(
    const PeerReplicate& m) {
  return encode_frame(m);
}
[[nodiscard]] inline std::vector<std::uint8_t> encode_peer_replicate_ack(
    const PeerReplicateAck& m) {
  return encode_frame(m);
}

// -- Payload decoders (payload only — the header is consumed by the frame
//    reader). All total. --

using parallel::wire::decode_frame;
[[nodiscard]] inline Expected<PeerHello> decode_peer_hello(
    std::span<const std::uint8_t> payload) {
  return decode_frame<PeerHello>(payload);
}
[[nodiscard]] inline Expected<PeerWelcome> decode_peer_welcome(
    std::span<const std::uint8_t> payload) {
  return decode_frame<PeerWelcome>(payload);
}
[[nodiscard]] inline Expected<PeerPing> decode_peer_ping(
    std::span<const std::uint8_t> payload) {
  return decode_frame<PeerPing>(payload);
}
[[nodiscard]] inline Expected<PeerPong> decode_peer_pong(
    std::span<const std::uint8_t> payload) {
  return decode_frame<PeerPong>(payload);
}
[[nodiscard]] inline Expected<PeerReplicate> decode_peer_replicate(
    std::span<const std::uint8_t> payload) {
  return decode_frame<PeerReplicate>(payload);
}
[[nodiscard]] inline Expected<PeerReplicateAck> decode_peer_replicate_ack(
    std::span<const std::uint8_t> payload) {
  return decode_frame<PeerReplicateAck>(payload);
}

}  // namespace pts::cluster
