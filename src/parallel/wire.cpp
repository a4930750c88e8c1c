#include "parallel/wire.hpp"

namespace pts::parallel::wire {

Expected<FrameHeader> decode_header(std::span<const std::uint8_t> bytes) {
  codec::Reader r(bytes);
  FrameHeader header;
  const auto magic = r.u16();
  header.version = r.u8();
  const auto type = r.u8();
  header.payload_size = r.u32();
  if (!r.ok()) return Status::invalid_argument("wire: short frame header");
  if (magic != kMagic) return Status::invalid_argument("wire: bad frame magic");
  if (header.version != kVersion) {
    return Status::invalid_argument("wire: unsupported version " +
                                    std::to_string(header.version) +
                                    " (expected " + std::to_string(kVersion) + ")");
  }
  const bool worker_range =
      type >= static_cast<std::uint8_t>(MessageType::kHello) &&
      type <= static_cast<std::uint8_t>(MessageType::kTelemetry);
  const bool client_range =
      type >= static_cast<std::uint8_t>(MessageType::kSubmitJob) &&
      type <= static_cast<std::uint8_t>(MessageType::kGoodbye);
  const bool peer_range =
      type >= static_cast<std::uint8_t>(MessageType::kPeerHello) &&
      type <= static_cast<std::uint8_t>(MessageType::kPeerReplicateAck);
  if (!worker_range && !client_range && !peer_range) {
    return Status::invalid_argument("wire: unknown message type " +
                                    std::to_string(type));
  }
  header.type = static_cast<MessageType>(type);
  if (header.payload_size > kMaxPayloadBytes) {
    return Status::invalid_argument("wire: payload length " +
                                    std::to_string(header.payload_size) +
                                    " exceeds the frame ceiling");
  }
  return header;
}

std::vector<std::uint8_t> encode_solution(const mkp::Solution& solution) {
  codec::Writer w;
  w.solution(solution);
  return w.take();
}

Expected<mkp::Solution> decode_solution(std::span<const std::uint8_t> bytes,
                                        const mkp::Instance& inst) {
  codec::Reader r(bytes, &inst);
  mkp::Solution solution(inst);
  r.solution(solution);
  if (!r.done()) return r.error("wire: solution");
  return solution;
}

Expected<std::vector<bounds::FixedValue>> get_fixed_status(codec::Reader& r) {
  std::vector<bounds::FixedValue> status;
  fixed_status(r, status);
  if (!r.ok()) return r.error("wire: fixing status");
  return status;
}

}  // namespace pts::parallel::wire
