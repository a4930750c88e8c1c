#pragma once
// In-memory span recorder for the traced run.
//
// Spans are recorded only from the benchmark's own code, around its calls
// into each layer's public functions; the program itself is not
// instrumented. A span has a name, start and end (microseconds since the
// recorder was made), its parent, the job it belongs to and a lane (the
// calling thread's row in the trace viewer). Nothing is written until the
// run ends.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  std::int64_t parent = -1;  ///< index into the recorder's span list; -1 = root
  std::uint64_t job = 0;
  int lane = 0;
};

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  SpanRecorder() : origin_(Clock::now()) {}

  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }
  [[nodiscard]] double us_of(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  /// Records a finished span; returns its index (a parent handle).
  std::int64_t add(Span span);
  /// Opens a span now; close() stamps its end.
  std::int64_t open(const std::string& name, std::int64_t parent, std::uint64_t job,
                    int lane);
  void close(std::int64_t index);

  [[nodiscard]] std::vector<Span> spans() const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once).
std::vector<double> self_times_us(const std::vector<Span>& spans);

/// Per span name: count, median duration and median self time (us).
struct SpanSummary {
  std::size_t count = 0;
  double median_us = 0.0;
  double median_self_us = 0.0;
};
std::map<std::string, SpanSummary> summarize(const std::vector<Span>& spans);

/// Chrome trace-event JSON ("X" complete events, one tid per lane) with each
/// span's job, parent and self time in its args. Loads in Perfetto and
/// chrome://tracing.
std::string chrome_trace_json(const std::vector<Span>& spans);

}  // namespace e2e
