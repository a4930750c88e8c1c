#pragma once
// The one binary codec behind all six formats (DESIGN.md §8): the worker
// wire (parallel/wire.hpp), the client protocol (net/protocol.hpp), the
// cluster peer frames (cluster/peer_protocol.hpp), master snapshots
// (parallel/snapshot.hpp), the job journal (service/journal.hpp) and
// warm-start entries (service/warm_start.hpp).
//
// Every message declares its fields once, as a function template over an
// `io` that is either a Writer or a Reader:
//
//   void fields(auto& io, codec::Of<PeerPong> auto& m) {
//     io.u64(m.seq);
//     io.u32(m.running_jobs);
//   }
//
// Run with a Writer the list appends the fields; run with a Reader it fills
// them in — so the encoder and the total decoder cannot drift apart. The
// vocabulary below is the only code that knows a byte layout, and it holds
// every check a decoder makes: string caps (str), count ceilings and
// minimum element sizes (seq), enum ranges (en), the two optional encodings
// (opt: flag + value always written; maybe: flag, then the value only if
// present), the solution value-vs-bits check, and version gates (since).
//
// The Reader is total. The first failure latches a Status and every later
// read yields zero, so a field list runs to its end unconditionally and the
// caller checks once (done()): a truncation or a corrupt count anywhere
// comes back as one Status — never a crash, never an unbounded allocation.
// Integers are little-endian; doubles travel as IEEE-754 bit patterns.

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "mkp/instance.hpp"
#include "mkp/solution.hpp"
#include "util/check.hpp"
#include "util/status.hpp"

namespace pts::parallel::codec {

/// T is U or const U: one field list serves encode (const) and decode.
template <class T, class U>
concept Of = std::same_as<std::remove_const_t<T>, U>;

/// No ceiling beyond what the u32 count prefix can express.
inline constexpr std::size_t kAnyCount = std::numeric_limits<std::uint32_t>::max();

class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void bytes(std::span<const std::uint8_t> data) {
    out_.insert(out_.end(), data.begin(), data.end());
  }

  // -- Field vocabulary (the Reader mirrors each signature). --
  void str(const std::string& s, std::size_t /*max_len*/) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }
  template <class E>
  void en(E e, E /*last*/, E /*first*/ = E{}) {
    u8(static_cast<std::uint8_t>(e));
  }
  void opt(const std::optional<double>& o) {
    u8(o.has_value() ? 1 : 0);
    f64(o.value_or(0.0));
  }
  template <class T, class Fn>
  void opt(const std::optional<T>& o, Fn&& value) {
    u8(o.has_value() ? 1 : 0);
    const T v = o.value_or(T{});
    value(v);
  }
  template <class T, class Fn>
  void maybe(const std::optional<T>& o, Fn&& value) {
    u8(o.has_value() ? 1 : 0);
    if (o) value(*o);
  }
  template <class V, class Fn>
  void seq(const V& v, std::size_t /*min_element_bytes*/, std::size_t max_count,
           Fn&& each) {
    PTS_CHECK_MSG(v.size() <= max_count,
                  "outgoing sequence exceeds its protocol ceiling");
    u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& e : v) each(e);
  }
  void solution(const mkp::Solution& solution);
  void solutions(const std::vector<mkp::Solution>& v) {
    seq(v, 0, kAnyCount, [this](const mkp::Solution& s) { solution(s); });
  }
  void instance(const mkp::Instance& inst);
  /// An optional Instance the message's tag says is present: no flag.
  void instance(const std::optional<mkp::Instance>& inst) {
    PTS_CHECK_MSG(inst.has_value(), "a tagged-present instance is missing");
    instance(*inst);
  }
  void status(const Status& status);
  void check(bool /*holds*/, const char* /*why*/ = nullptr) {}
  [[nodiscard]] bool since(std::uint8_t /*version*/) const { return true; }
  /// Encoding needs no instance: checks against one are decode-only.
  [[nodiscard]] const mkp::Instance* context() const { return nullptr; }

  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  void raw(const void* p, std::size_t n) {
    const auto* data = static_cast<const std::uint8_t*>(p);
    static_assert(std::endian::native == std::endian::little,
                  "binary formats are little-endian; add byte swaps for this host");
    out_.insert(out_.end(), data, data + n);
  }

  std::vector<std::uint8_t> out_;
};

class Reader {
 public:
  /// Version of the bytes being read; unversioned payloads read as latest.
  static constexpr std::uint8_t kLatest = 0xFF;

  /// `context` is the instance solutions are rebuilt against (none needed
  /// for messages without solutions); `version` gates since() fields.
  explicit Reader(std::span<const std::uint8_t> bytes,
                  const mkp::Instance* context = nullptr,
                  std::uint8_t version = kLatest)
      : bytes_(bytes), context_(context), version_(version) {}

  std::uint8_t u8() { return take<std::uint8_t>(); }
  std::uint16_t u16() { return take<std::uint16_t>(); }
  std::uint32_t u32() { return take<std::uint32_t>(); }
  std::uint64_t u64() { return take<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }

  // -- Field vocabulary: each fills its argument from the next field. --
  template <class T> void u8(T& v) { v = static_cast<T>(u8()); }
  template <class T> void u32(T& v) { v = static_cast<T>(u32()); }
  template <class T> void u64(T& v) { v = static_cast<T>(u64()); }
  template <class T> void i32(T& v) { v = static_cast<T>(i32()); }
  void f64(double& v) { v = f64(); }

  void str(std::string& out, std::size_t max_len) {
    const auto len = u32();
    if (len > max_len || len > remaining()) return fail();
    out.assign(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
    pos_ += len;
  }
  /// An enumerator stored as one byte; anything outside [first, last] is
  /// corruption, not a new enumerator.
  template <class E>
  void en(E& e, E last, E first = E{}) {
    const auto byte = u8();
    if (byte < static_cast<std::uint8_t>(first) ||
        byte > static_cast<std::uint8_t>(last)) {
      return fail();
    }
    e = static_cast<E>(byte);
  }
  /// Flag + value, the value written even when absent.
  void opt(std::optional<double>& o) {
    const bool present = u8() != 0;
    const double v = f64();
    o = present ? std::optional<double>(v) : std::nullopt;
  }
  template <class T, class Fn>
  void opt(std::optional<T>& o, Fn&& value) {
    const bool present = u8() != 0;
    T v{};
    value(v);
    o = present ? std::optional<T>(v) : std::nullopt;
  }
  /// Flag, then the value only if present.
  template <class T, class Fn>
  void maybe(std::optional<T>& o, Fn&& value) {
    o.reset();
    if (u8() == 0) return;
    o.emplace(make<T>());
    value(*o);
  }
  /// u32 count + elements. The count must respect `max_count` and leave at
  /// least `min_element_bytes` of input per element — checked before
  /// anything is reserved. Elements decoded before a failure are kept.
  template <class V, class Fn>
  void seq(V& v, std::size_t min_element_bytes, std::size_t max_count,
           Fn&& each) {
    const auto count = u32();
    if (count > max_count || !plausible_count(count, min_element_bytes)) {
      return fail();
    }
    v.clear();
    v.reserve(count);
    for (std::uint32_t k = 0; k < count && ok(); ++k) {
      v.push_back(make<typename V::value_type>());
      each(v.back());
      if (!ok()) v.pop_back();
    }
  }
  void solution(mkp::Solution& out);
  /// A solution costs at least its bitvec words on the wire.
  void solutions(std::vector<mkp::Solution>& v) {
    const std::size_t n = context_ != nullptr ? context_->num_items() : 0;
    seq(v, 8 + n / 8, kAnyCount, [this](mkp::Solution& s) { solution(s); });
  }
  void instance(mkp::Instance& out);
  void instance(std::optional<mkp::Instance>& out) {
    out.emplace(make<mkp::Instance>());
    instance(*out);
  }
  void status(Status& out);
  void check(bool holds, const char* why = nullptr) {
    if (!holds) fail(why);
  }
  [[nodiscard]] bool since(std::uint8_t version) const {
    return version_ >= version;
  }
  void set_version(std::uint8_t version) { version_ = version; }

  /// Latches the first failure (a specific reason, or a generic truncated-
  /// or-corrupt one) and stops all further reads.
  void fail(const char* why = nullptr) {
    if (ok_) reason_ = why;
    ok_ = false;
    pos_ = bytes_.size();
  }

  /// A value to decode into. Types holding an Instance or a Solution have
  /// no empty state: Solutions and checkpoints are built over the context
  /// instance, Instances over a 1x1 placeholder, and aggregates holding
  /// either provide `blank(std::type_identity<T>, const Reader&)` beside
  /// their field list.
  template <class T>
  [[nodiscard]] T make() const {
    if constexpr (std::is_same_v<T, mkp::Instance>) {
      return placeholder();
    } else if constexpr (std::is_constructible_v<T, const mkp::Instance&>) {
      return T(context_ != nullptr ? *context_ : placeholder());
    } else if constexpr (std::is_default_constructible_v<T>) {
      return T{};
    } else {
      return blank(std::type_identity<T>{}, *this);
    }
  }

  /// Bound check for a count prefix: every element needs at least
  /// `min_element_bytes` more input, so a count beyond remaining/min is
  /// corrupt regardless of content — reject before reserving anything.
  [[nodiscard]] bool plausible_count(std::uint64_t count,
                                     std::size_t min_element_bytes) {
    if (count > remaining() / std::max<std::size_t>(min_element_bytes, 1)) {
      fail();
    }
    return ok_;
  }
  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }
  [[nodiscard]] bool ok() const { return ok_; }
  /// ok() and every byte consumed.
  [[nodiscard]] bool done() const { return ok_ && pos_ == bytes_.size(); }
  /// The failure as a Status: "<what>: <reason>", the reason defaulting to
  /// truncated-or-corrupt (also for trailing bytes after a clean decode).
  [[nodiscard]] Status error(std::string_view what) const;
  [[nodiscard]] const mkp::Instance* context() const { return context_; }

 private:
  static const mkp::Instance& placeholder();

  template <typename T>
  T take() {
    if (remaining() < sizeof(T)) {
      fail();
      return T{};
    }
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> bytes_;
  const mkp::Instance* context_ = nullptr;
  std::uint8_t version_ = kLatest;
  std::size_t pos_ = 0;
  bool ok_ = true;
  const char* reason_ = nullptr;
};

/// The bytes of one message's field list.
template <class M>
[[nodiscard]] std::vector<std::uint8_t> encode(const M& m) {
  Writer w;
  fields(w, m);
  return w.take();
}

/// Total decode of one message that must fill `bytes` exactly.
template <class M>
[[nodiscard]] Expected<M> decode(std::span<const std::uint8_t> bytes,
                                 std::string_view what,
                                 const mkp::Instance* context = nullptr,
                                 std::uint8_t version = Reader::kLatest) {
  Reader r(bytes, context, version);
  auto m = r.make<M>();
  fields(r, m);
  if (!r.done()) return r.error(what);
  return m;
}

// -- Sealed files (snapshots, warm-start entries): 4 magic bytes, a version
//    byte, the body's CRC-32, its u64 size, then the body. --

inline constexpr std::size_t kSealHeaderBytes = 17;

[[nodiscard]] std::vector<std::uint8_t> seal(std::string_view magic,
                                             std::uint8_t version,
                                             std::span<const std::uint8_t> body);

struct Sealed {
  std::uint8_t version = 0;
  std::span<const std::uint8_t> body;
};

/// Validates magic, version range and the body ceiling, then (with
/// `whole_file`) that the size matches the file and the CRC the body. A
/// bounded prefix read passes whole_file=false and gets whatever body bytes
/// it holds. Errors are prefixed with `what`.
[[nodiscard]] Expected<Sealed> unseal(std::span<const std::uint8_t> file,
                                      std::string_view magic,
                                      std::uint8_t min_version,
                                      std::uint8_t max_version,
                                      std::uint64_t max_body,
                                      std::string_view what,
                                      bool whole_file = true);

}  // namespace pts::parallel::codec
