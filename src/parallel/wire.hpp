#pragma once
// Wire format of the distributed backend (DESIGN.md §8): length-prefixed
// binary frames carrying the Section-4 protocol between the master's
// supervisor and a pts_worker process.
//
// Frame layout (all integers little-endian):
//
//   offset 0  u16  magic   0x5054 ("PT")
//   offset 2  u8   version kVersion — bumped on any payload layout change
//   offset 3  u8   type    MessageType
//   offset 4  u32  size    payload byte count (<= kMaxPayloadBytes)
//   offset 8  ...  payload
//
// Every payload is one message struct's field list (parallel/codec.hpp):
// encode_frame<M> and decode_frame<M> run it with a Writer or a Reader, so
// each frame type has exactly one byte layout. Doubles travel as IEEE-754
// bit patterns (bit-exact round trip), which is what makes
// `--backend=proc` reproduce `--backend=thread` result-for-result on a fixed
// seed: the worker computes on exactly the numbers the master serialized.
//
// Every decoder is total: truncated payloads, bad magic, unsupported
// versions, oversized or inconsistent length prefixes and absurd element
// counts all come back as a Status — never a crash, never an unbounded
// allocation. The frames originate from a child process we spawned, but the
// decoder trusts nothing: a crashing worker can hand us half a frame.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "bounds/reduction.hpp"
#include "mkp/instance.hpp"
#include "parallel/codec.hpp"
#include "parallel/comm.hpp"
#include "util/status.hpp"

namespace pts::parallel::wire {

inline constexpr std::uint16_t kMagic = 0x5054;  // "PT"
/// v2: Hello carries a trailing flags byte (telemetry opt-in) and the
/// worker->master direction gains the kTelemetry chunk message.
/// v3: the client/server frame range (kSubmitJob..kGoodbye) joins the
/// protocol — the network front-end (src/net/) speaks the same framed
/// header, so FrameSocket serves both the worker farm and remote clients.
inline constexpr std::uint8_t kVersion = 3;
inline constexpr std::size_t kHeaderBytes = 8;

/// Ceiling on one payload. A corrupt length prefix must be rejected before
/// any allocation happens, so a dying worker cannot OOM the supervisor.
inline constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;

enum class MessageType : std::uint8_t {
  kHello = 1,       ///< master -> worker: identity + problem data
  kAssignment = 2,  ///< master -> worker: one round of work
  kStop = 3,        ///< master -> worker: shut down
  kReport = 4,      ///< worker -> master: round outcome
  kFault = 5,       ///< worker -> master: round died; SlaveFault payload
  kTelemetry = 6,   ///< worker -> master: TelemetryChunk (trace + metrics)

  // -- Client/server range (v3): the network front-end's request/response
  //    protocol. Payload structs live in net/protocol.hpp; the types are
  //    registered here so decode_header stays the single total-decoder gate
  //    for every frame a FrameSocket can carry. --
  kSubmitJob = 16,  ///< client -> server: one submission (instance + options)
  kSubmitAck = 17,  ///< server -> client: admission verdict for a submission
  kJobEvent = 18,   ///< server -> client: streamed progress (anytime chunks)
  kJobResult = 19,  ///< server -> client: terminal result of a submission
  kCancelJob = 20,  ///< client -> server: cancel one accepted submission
  kGoodbye = 21,    ///< server -> client: draining / at capacity; no new work

  // -- Cluster peer range (v3): the coordinator/worker-node control
  //    protocol of src/cluster/ (DESIGN.md §11). Payload structs live in
  //    cluster/peer_protocol.hpp. Job traffic between nodes rides the client
  //    range above — the peer range carries only membership, heartbeats and
  //    journal replication. --
  kPeerHello = 32,         ///< coordinator -> worker: join handshake
  kPeerWelcome = 33,       ///< worker -> coordinator: identity + applied seq
  kPeerPing = 34,          ///< coordinator -> worker: liveness probe
  kPeerPong = 35,          ///< worker -> coordinator: probe echo + load
  kPeerReplicate = 36,     ///< coordinator -> worker: journal record batch
  kPeerReplicateAck = 37,  ///< worker -> coordinator: applied-through seq
};

/// Validated header fields of one frame.
struct FrameHeader {
  std::uint8_t version = 0;
  MessageType type = MessageType::kStop;
  std::uint32_t payload_size = 0;
};

/// One frame after header validation: its type plus the raw payload.
struct Frame {
  MessageType type = MessageType::kStop;
  std::vector<std::uint8_t> payload;
};

/// Hello.flags bit: the master is tracing — enable the worker's tracer and
/// ship its drained trace events in TelemetryChunks before each report.
inline constexpr std::uint8_t kHelloFlagTrace = 1;
/// Hello.flags bit: the master's telemetry kill switch is on — keep the
/// worker's switch on too and ship its metrics-counter deltas in
/// TelemetryChunks. Cleared when the master runs with telemetry off, so the
/// kill-switch-off baseline pays zero chunk traffic.
inline constexpr std::uint8_t kHelloFlagMetrics = 2;

/// The proc backend's handshake — the paper's "read and send problem data
/// to the slaves" step, performed once per spawned worker (and again on
/// every respawn).
struct Hello {
  static constexpr auto kType = MessageType::kHello;
  std::uint32_t slave_id = 0;
  std::uint64_t seed = 0;
  mkp::Instance instance;
  std::uint8_t flags = 0;
};

/// One trace event in transit inside a TelemetryChunk. Mirrors
/// obs::TraceEvent, but strings are owned — the receiving supervisor interns
/// names back into stable pointers before recording into its tracer.
struct ChunkEvent {
  std::string name;
  char phase = 'i';
  std::uint32_t tid = 0;
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
  std::vector<std::pair<std::string, double>> args;
  bool has_detail = false;
  std::string detail_key;
  std::string detail;
};

/// Worker -> master telemetry batch (DESIGN.md §6): the trace events the
/// worker recorded since its previous chunk plus the growth of its metrics
/// counters, stamped with the worker's current tracer clock so the
/// supervisor can offset timestamps onto the master timeline.
struct TelemetryChunk {
  static constexpr auto kType = MessageType::kTelemetry;
  std::uint32_t slave_id = 0;
  std::int64_t worker_now_us = 0;  ///< worker tracer clock at encode time
  std::vector<ChunkEvent> events;
  std::vector<std::pair<std::string, std::uint64_t>> counter_deltas;
};

/// The frame tag of payload struct M: its kType member, or a
/// specialisation for the in-process messages of parallel/comm.hpp.
template <class M>
inline constexpr MessageType kFrameType = M::kType;
template <>
inline constexpr MessageType kFrameType<Assignment> = MessageType::kAssignment;
template <>
inline constexpr MessageType kFrameType<Stop> = MessageType::kStop;
template <>
inline constexpr MessageType kFrameType<Report> = MessageType::kReport;
template <>
inline constexpr MessageType kFrameType<SlaveFault> = MessageType::kFault;

/// Every frame of the worker range, in tag order. With net::ClientFrame and
/// cluster::PeerFrame this is the complete message list the fuzz tests walk.
using WorkerFrame =
    std::variant<Hello, Assignment, Stop, Report, SlaveFault, TelemetryChunk>;

/// Bytes of one serialized obs::AnytimeSample (i32 + f64 + u64 + f64).
inline constexpr std::size_t kAnytimeSampleBytes = 28;

/// Rejects bad magic, unsupported version, and a payload_size beyond
/// kMaxPayloadBytes. `bytes` must hold at least kHeaderBytes.
[[nodiscard]] Expected<FrameHeader> decode_header(
    std::span<const std::uint8_t> bytes);

/// A complete frame, header included, of message `m`.
template <class M>
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const M& m) {
  codec::Writer w;
  w.u16(kMagic);
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(kFrameType<M>));
  w.u32(0);  // payload size, patched once the field list has run
  fields(w, m);
  auto frame = w.take();
  PTS_CHECK_MSG(frame.size() - kHeaderBytes <= kMaxPayloadBytes,
                "outgoing frame exceeds kMaxPayloadBytes");
  const auto size = static_cast<std::uint32_t>(frame.size() - kHeaderBytes);
  std::memcpy(frame.data() + 4, &size, sizeof size);
  return frame;
}

/// Total decode of one frame payload (the header is consumed by the frame
/// reader). Solutions are rebuilt against `inst`.
template <class M>
[[nodiscard]] Expected<M> decode_frame(std::span<const std::uint8_t> payload,
                                       const mkp::Instance* inst = nullptr) {
  codec::Reader r(payload, inst);
  auto m = r.make<M>();
  fields(r, m);
  if (!r.done()) {
    return r.error("wire: frame type " +
                   std::to_string(static_cast<int>(kFrameType<M>)));
  }
  return m;
}

/// Decodes a payload of `type` into whichever alternative of Variant carries
/// that tag; a type outside the variant is an error.
template <class Variant>
[[nodiscard]] Expected<Variant> decode_one_of(
    MessageType type, std::span<const std::uint8_t> payload,
    const mkp::Instance* inst = nullptr) {
  std::optional<Expected<Variant>> out;
  const auto attempt = [&]<class M>(std::type_identity<M>) {
    if (out || kFrameType<M> != type) return;
    auto decoded = decode_frame<M>(payload, inst);
    out.emplace(decoded ? Expected<Variant>(Variant(std::move(*decoded)))
                        : Expected<Variant>(decoded.status()));
  };
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (attempt(std::type_identity<std::variant_alternative_t<I, Variant>>{}), ...);
  }(std::make_index_sequence<std::variant_size_v<Variant>>{});
  if (!out) {
    return Status::invalid_argument("wire: unexpected frame type " +
                                    std::to_string(static_cast<int>(type)));
  }
  return std::move(*out);
}

// -- Field lists. --

void fields(auto& io, codec::Of<Hello> auto& m) {
  io.u32(m.slave_id);
  io.u64(m.seed);
  io.instance(m.instance);
  io.u8(m.flags);
}
inline Hello blank(std::type_identity<Hello>, const codec::Reader& r) {
  return {.instance = r.make<mkp::Instance>()};
}

void fields(auto& io, codec::Of<ChunkEvent> auto& e) {
  io.str(e.name, 256);
  io.u8(e.phase);
  // The tracer only ever emits these phases; anything else is corruption.
  io.check(e.phase == 'X' || e.phase == 'i' || e.phase == 'C' || e.phase == 'M',
           "telemetry event has an unknown phase");
  io.u32(e.tid);
  io.u64(e.ts_us);
  io.u64(e.dur_us);
  io.seq(e.args, 10, 64, [&](auto& arg) {
    io.str(arg.first, 256);
    io.f64(arg.second);
  });
  io.u8(e.has_detail);
  if (e.has_detail) {
    io.str(e.detail_key, 256);
    io.str(e.detail, 4096);
  }
}

void fields(auto& io, codec::Of<TelemetryChunk> auto& m) {
  io.u32(m.slave_id);
  io.u64(m.worker_now_us);
  // A serialized event costs at least its name length + fixed fields.
  io.seq(m.events, 24, codec::kAnyCount, [&](auto& e) { fields(io, e); });
  io.seq(m.counter_deltas, 10, codec::kAnyCount, [&](auto& delta) {
    io.str(delta.first, 256);
    io.u64(delta.second);
  });
}

}  // namespace pts::parallel::wire

// Field lists of the value types the protocol nests, declared in their own
// namespaces so every format's field lists find them.

namespace pts::tabu {

void fields(auto& io, parallel::codec::Of<Strategy> auto& s) {
  io.u64(s.tabu_tenure);
  io.u64(s.nb_drop);
  io.u64(s.nb_local);
  io.u64(s.nb_candidates);
}

// TsParams::cancel does not travel: a process boundary has no shared stop
// flag. The proc backend stops workers via Stop frames and, in the limit,
// SIGKILL (see proc_backend.hpp).
void fields(auto& io, parallel::codec::Of<TsParams> auto& p) {
  fields(io, p.strategy);
  io.u64(p.nb_div);
  io.u64(p.nb_int);
  io.u64(p.b_best);
  io.en(p.intensification, IntensificationKind::kStrategicOscillation);
  io.u64(p.oscillation_depth);
  io.en(p.tenure_control, TenureControl::kReactive);
  io.f64(p.high_frequency);
  io.f64(p.low_frequency);
  io.u64(p.diversify_hold);
  io.u64(p.max_moves);
  io.f64(p.time_limit_seconds);
  io.opt(p.target_value);
  io.u8(p.run_to_budget);
}

}  // namespace pts::tabu

namespace pts::obs {

void fields(auto& io, parallel::codec::Of<AnytimeSample> auto& s) {
  io.i32(s.source);
  io.f64(s.seconds);
  io.u64(s.work_units);
  io.f64(s.value);
}

// Strict: both ends are built from the same counter taxonomy; a different
// count is a version skew the header byte should have caught.
void fields(auto& io, parallel::codec::Of<Counters> auto& c) {
  std::uint32_t count = kCounterCount;
  io.u32(count);
  io.check(count == kCounterCount, "report counter count disagrees");
  for (auto& slot : c.slots) io.u64(slot);
}

}  // namespace pts::obs

namespace pts::parallel {

void fields(auto& io, codec::Of<Assignment> auto& m) {
  io.u64(m.round);
  io.solution(m.initial);
  fields(io, m.params);
}
inline Assignment blank(std::type_identity<Assignment>, const codec::Reader& r) {
  return {.initial = r.make<mkp::Solution>()};
}

void fields(auto& /*io*/, codec::Of<Stop> auto& /*m*/) {}

void fields(auto& io, codec::Of<Report> auto& m) {
  io.u32(m.slave_id);
  io.u64(m.round);
  io.f64(m.initial_value);
  io.f64(m.final_value);
  io.solutions(m.elite);
  io.u64(m.moves);
  io.f64(m.seconds);
  io.u8(m.reached_target);
  fields(io, m.counters);
  io.seq(m.anytime, wire::kAnytimeSampleBytes, codec::kAnyCount,
         [&](auto& s) { fields(io, s); });
}

void fields(auto& io, codec::Of<SlaveFault> auto& m) {
  io.u32(m.slave_id);
  io.u64(m.round);
  io.str(m.what, 65536);
}

}  // namespace pts::parallel

namespace pts::parallel::wire {

// -- Public entry points. --

[[nodiscard]] inline std::vector<std::uint8_t> encode_hello(const Hello& m) {
  return encode_frame(m);
}
[[nodiscard]] inline std::vector<std::uint8_t> encode_to_slave(
    const ToSlave& message) {
  return std::visit([](const auto& m) { return encode_frame(m); }, message);
}
[[nodiscard]] inline std::vector<std::uint8_t> encode_from_slave(
    const FromSlave& message) {
  return std::visit([](const auto& m) { return encode_frame(m); }, message);
}
[[nodiscard]] inline std::vector<std::uint8_t> encode_telemetry_chunk(
    const TelemetryChunk& m) {
  return encode_frame(m);
}

[[nodiscard]] inline Expected<Hello> decode_hello(
    std::span<const std::uint8_t> payload) {
  return decode_frame<Hello>(payload);
}
/// Solutions are rebuilt against `inst`, whose item count must match what
/// was serialized.
[[nodiscard]] inline Expected<ToSlave> decode_to_slave(
    MessageType type, std::span<const std::uint8_t> payload,
    const mkp::Instance& inst) {
  return decode_one_of<ToSlave>(type, payload, &inst);
}
[[nodiscard]] inline Expected<FromSlave> decode_from_slave(
    MessageType type, std::span<const std::uint8_t> payload,
    const mkp::Instance& inst) {
  return decode_one_of<FromSlave>(type, payload, &inst);
}
[[nodiscard]] inline Expected<TelemetryChunk> decode_telemetry_chunk(
    std::span<const std::uint8_t> payload) {
  return decode_frame<TelemetryChunk>(payload);
}

// -- Standalone sub-codecs (tests and tooling drive these directly).
//    Decoding requires the buffer to be fully consumed. --

[[nodiscard]] std::vector<std::uint8_t> encode_solution(
    const mkp::Solution& solution);
[[nodiscard]] Expected<mkp::Solution> decode_solution(
    std::span<const std::uint8_t> bytes, const mkp::Instance& inst);

[[nodiscard]] inline std::vector<std::uint8_t> encode_strategy(
    const tabu::Strategy& strategy) {
  return codec::encode(strategy);
}
[[nodiscard]] inline Expected<tabu::Strategy> decode_strategy(
    std::span<const std::uint8_t> bytes) {
  return codec::decode<tabu::Strategy>(bytes, "wire: strategy");
}

/// Core-reduction fixing status (bounds::FixedValue per original variable),
/// one byte each behind a count; the v2 snapshot embeds it. Rejects counts
/// that cannot fit the remaining buffer and any byte that is not a
/// FixedValue enumerator.
void fixed_status(auto& io, auto& status) {
  io.seq(status, 1, codec::kAnyCount,
         [&](auto& v) { io.en(v, bounds::FixedValue::kOne); });
}
inline void put_fixed_status(codec::Writer& w,
                             const std::vector<bounds::FixedValue>& status) {
  fixed_status(w, status);
}
[[nodiscard]] Expected<std::vector<bounds::FixedValue>> get_fixed_status(
    codec::Reader& r);

}  // namespace pts::parallel::wire
