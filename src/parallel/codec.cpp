#include "parallel/codec.hpp"

#include <cmath>

#include "util/crc32.hpp"

namespace pts::parallel::codec {

// Solution: u32 item count, u32 word count, the bitvec words, f64 value.
void Writer::solution(const mkp::Solution& solution) {
  u32(static_cast<std::uint32_t>(solution.num_items()));
  const auto& words = solution.bits().words();
  u32(static_cast<std::uint32_t>(words.size()));
  for (const auto word : words) u64(word);
  f64(solution.value());
}

void Reader::solution(mkp::Solution& out) {
  const auto n_bits = u32();
  const auto n_words = u32();
  if (!ok_) return;
  if (context_ == nullptr || n_bits != context_->num_items()) {
    return fail("solution is over a different item count than the instance");
  }
  if (n_words != (n_bits + 63) / 64 || !plausible_count(n_words, 8)) {
    return fail();
  }
  mkp::Solution solution(*context_);
  for (std::uint32_t k = 0; k < n_words; ++k) {
    for (std::uint64_t word = u64(); word != 0; word &= word - 1) {
      const std::size_t j = k * 64 + static_cast<std::size_t>(std::countr_zero(word));
      if (j >= n_bits) return fail("solution has bits past the item count");
      solution.add(j);
    }
  }
  const double claimed = f64();
  if (!ok_) return;
  // The serialized value must match what the bits imply. A mismatch means
  // corruption in flight (or a peer with a different objective); poisoning
  // an incumbent would be silent and permanent, so reject the message.
  const double rebuilt = solution.value();
  if (!(std::abs(claimed - rebuilt) <= 1e-6 * std::max(1.0, std::abs(rebuilt)))) {
    return fail("solution value does not match its bits");
  }
  out = std::move(solution);
}

// Instance: name, u32 n, u32 m, profits, weight rows, capacities, and the
// known optimum as flag + value.
void Writer::instance(const mkp::Instance& inst) {
  str(inst.name(), 4096);
  u32(static_cast<std::uint32_t>(inst.num_items()));
  u32(static_cast<std::uint32_t>(inst.num_constraints()));
  for (const double v : inst.profits()) f64(v);
  for (std::size_t i = 0; i < inst.num_constraints(); ++i) {
    for (const double v : inst.weights_row(i)) f64(v);
  }
  for (const double v : inst.capacities()) f64(v);
  opt(inst.known_optimum());
}

void Reader::instance(mkp::Instance& out) {
  std::string name;
  str(name, 4096);
  const std::uint64_t n = u32();
  const std::uint64_t m = u32();
  if (!ok_) return;
  if (n == 0 || m == 0) return fail("serialized instance is empty");
  // Every matrix entry still has to fit in the remaining input.
  if (!plausible_count(n * m + n + m, 8)) return;
  const auto doubles = [this](std::uint64_t count) {
    std::vector<double> v(count);
    for (auto& x : v) x = f64();
    return v;
  };
  auto profits = doubles(n);
  auto weights = doubles(n * m);
  auto capacities = doubles(m);
  std::optional<double> known_optimum;
  opt(known_optimum);
  if (!ok_) return;
  out = mkp::Instance(std::move(name), std::move(profits), std::move(weights),
                      std::move(capacities));
  if (known_optimum) out.set_known_optimum(*known_optimum);
}

// Status: code byte + message.
void Writer::status(const Status& status) {
  u8(static_cast<std::uint8_t>(status.code()));
  str(status.message(), 4096);
}

void Reader::status(Status& out) {
  StatusCode code = StatusCode::kOk;
  std::string message;
  en(code, StatusCode::kInternal);
  str(message, 4096);
  out = Status(code, std::move(message));
}

Status Reader::error(std::string_view what) const {
  return Status::invalid_argument(
      std::string(what) + ": " +
      (reason_ != nullptr ? reason_ : "truncated or corrupt payload"));
}

const mkp::Instance& Reader::placeholder() {
  static const mkp::Instance inst("", {1.0}, {1.0}, {1.0});
  return inst;
}

std::vector<std::uint8_t> seal(std::string_view magic, std::uint8_t version,
                               std::span<const std::uint8_t> body) {
  Writer w;
  for (const char c : magic) w.u8(static_cast<std::uint8_t>(c));
  w.u8(version);
  w.u32(crc32(body));
  w.u64(body.size());
  w.bytes(body);
  return w.take();
}

Expected<Sealed> unseal(std::span<const std::uint8_t> file,
                        std::string_view magic, std::uint8_t min_version,
                        std::uint8_t max_version, std::uint64_t max_body,
                        std::string_view what, bool whole_file) {
  const std::string prefix(what);
  if (file.size() < kSealHeaderBytes) {
    return Status::invalid_argument(prefix + ": file too short for a header");
  }
  if (std::memcmp(file.data(), magic.data(), 4) != 0) {
    return Status::invalid_argument(prefix + ": bad magic");
  }
  Reader r(file.subspan(4, kSealHeaderBytes - 4));
  const Sealed sealed{r.u8(), file.subspan(kSealHeaderBytes)};
  const auto crc = r.u32();
  const auto size = r.u64();
  if (sealed.version < min_version || sealed.version > max_version) {
    return Status::invalid_argument(
        prefix + ": unsupported version " + std::to_string(sealed.version) +
        " (accepted " + std::to_string(min_version) + ".." +
        std::to_string(max_version) + ")");
  }
  if (size > max_body) {
    return Status::invalid_argument(prefix + ": body length " +
                                    std::to_string(size) +
                                    " exceeds the ceiling");
  }
  if (!whole_file) return sealed;
  if (size != sealed.body.size()) {
    return Status::invalid_argument(
        prefix + ": body length prefix disagrees with the file size");
  }
  if (crc32(sealed.body) != crc) {
    return Status::invalid_argument(prefix + ": CRC mismatch");
  }
  return sealed;
}

}  // namespace pts::parallel::codec
