#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "stats.hpp"

namespace e2e {

std::int64_t SpanRecorder::add(Span span) {
  std::lock_guard lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t SpanRecorder::open(const std::string& name, std::int64_t parent,
                                std::uint64_t job, int lane) {
  const double start = now_us();
  return add(Span{name, start, start, parent, job, lane});
}

void SpanRecorder::close(std::int64_t index) {
  const double end = now_us();
  std::lock_guard lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_us = end;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

std::vector<double> self_times_us(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const auto& span : spans) {
    if (span.parent < 0) continue;
    const auto& parent = spans[static_cast<std::size_t>(span.parent)];
    const double lo = std::max(span.start_us, parent.start_us);
    const double hi = std::min(span.end_us, parent.end_us);
    if (hi > lo) children[static_cast<std::size_t>(span.parent)].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& covered = children[i];
    std::sort(covered.begin(), covered.end());
    double union_us = 0.0;
    double reach = spans[i].start_us;
    for (const auto& [lo, hi] : covered) {
      const double from = std::max(lo, reach);
      if (hi > from) {
        union_us += hi - from;
        reach = hi;
      }
    }
    self[i] = (spans[i].end_us - spans[i].start_us) - union_us;
  }
  return self;
}

std::map<std::string, SpanSummary> summarize(const std::vector<Span>& spans) {
  const auto self = self_times_us(spans);
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& [durations, selfs] = by_name[spans[i].name];
    durations.push_back(spans[i].end_us - spans[i].start_us);
    selfs.push_back(self[i]);
  }
  std::map<std::string, SpanSummary> out;
  for (auto& [name, samples] : by_name) {
    out[name] = {samples.first.size(), median(samples.first), median(samples.second)};
  }
  return out;
}

namespace {

std::string escaped(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

std::string chrome_trace_json(const std::vector<Span>& spans) {
  const auto self = self_times_us(spans);
  std::string json = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buffer[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& span = spans[i];
    std::snprintf(buffer, sizeof buffer,
                  "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"job\":%llu,\"id\":%zu,\"parent\":%lld,\"self_us\":%.3f},"
                  "\"name\":\"",
                  span.lane, span.start_us, span.end_us - span.start_us,
                  static_cast<unsigned long long>(span.job), i,
                  static_cast<long long>(span.parent), self[i]);
    json += buffer;
    json += escaped(span.name);
    json += i + 1 < spans.size() ? "\"},\n" : "\"}\n";
  }
  json += "]}\n";
  return json;
}

}  // namespace e2e
