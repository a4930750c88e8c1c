// Self-tests of the benchmark's own machinery: the percentile rule, span
// self time, and the correctness gate (which must be able to fail).
// Exits 0 when every check passes.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "rows.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "verifier.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

void test_percentiles() {
  std::mt19937_64 rng(7);
  for (std::size_t n = 1; n <= 400; n += (n < 40 ? 1 : 37)) {
    std::vector<double> samples(n);
    for (auto& s : samples) s = static_cast<double>(rng() % 1000) / 10.0;
    auto sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    for (const double q : {1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
      // Reference: the smallest sample with at least q% of samples at or below it.
      std::size_t k = 0;
      while (static_cast<double>(k + 1) < q * static_cast<double>(n) / 100.0 - 1e-9) ++k;
      expect(e2e::percentile(samples, q) == sorted[k],
             "p" + std::to_string(q) + " of " + std::to_string(n) + " samples");
      expect(e2e::samples_beyond(n, q) == n - (k + 1),
             "samples beyond p" + std::to_string(q) + " of " + std::to_string(n));
    }
    int best = 0;
    for (int q = 50; q <= 99; ++q) {
      const std::size_t rank = (static_cast<std::size_t>(q) * n + 99) / 100;
      if (n - rank >= e2e::kMinBeyond) best = q;
    }
    expect(e2e::highest_supported_percentile(n) == best,
           "highest supported percentile of " + std::to_string(n));
  }
  expect(e2e::highest_supported_percentile(100) == 90, "100 samples support p90");
  expect(e2e::highest_supported_percentile(99) < 90, "99 samples do not support p90");
  expect(e2e::median({3.0, 1.0, 2.0, 10.0}) == 2.0, "median of four is the lower middle");
}

void test_self_time() {
  // root [0,100]: children [10,30] and [20,50] overlap, [90,120] runs past
  // the root's end; [15,20] is a grandchild and must not count for root.
  std::vector<e2e::Span> spans = {
      {"root", 0, 100, -1, 1, 0},  {"a", 10, 30, 0, 1, 0}, {"b", 20, 50, 0, 1, 0},
      {"c", 90, 120, 0, 1, 0},     {"a.x", 15, 20, 1, 1, 0}, {"other", 0, 10, -1, 2, 1},
  };
  const auto self = e2e::self_times_us(spans);
  expect(self[0] == 50.0, "root self time " + std::to_string(self[0]));
  expect(self[1] == 15.0, "a self time " + std::to_string(self[1]));
  expect(self[2] == 30.0 && self[3] == 30.0 && self[4] == 5.0 && self[5] == 10.0,
         "leaf self times");
  const auto summary = e2e::summarize(spans);
  expect(summary.at("root").count == 1 && summary.at("root").median_self_us == 50.0,
         "summary of root");
  const auto json = e2e::chrome_trace_json(spans);
  expect(json.find("\"traceEvents\"") != std::string::npos &&
             std::count(json.begin(), json.end(), '{') == 1 + 2 * 6,
         "chrome trace has one event per span");
}

void test_checker() {
  const auto rows = e2e::gk_rows(5, 40, 11);
  // A feasible answer: greedy in index order.
  e2e::Answer answer;
  answer.picked.assign(rows.n, 0);
  std::vector<double> load(rows.m, 0.0);
  for (std::size_t j = 0; j < rows.n; ++j) {
    bool fits = true;
    for (std::size_t i = 0; i < rows.m; ++i) {
      fits = fits && load[i] + rows.weights[i * rows.n + j] <= rows.capacities[i];
    }
    if (!fits) continue;
    answer.picked[j] = 1;
    answer.value += rows.profits[j];
    for (std::size_t i = 0; i < rows.m; ++i) load[i] += rows.weights[i * rows.n + j];
  }
  expect(e2e::check_answer(rows, answer).empty(), "feasible greedy answer accepted");

  for (std::size_t j = 0; j < rows.n; ++j) {
    auto flipped = answer;
    flipped.picked[j] ^= 1;
    expect(!e2e::check_answer(rows, flipped).empty(),
           "answer with bit " + std::to_string(j) + " flipped rejected");
  }
  auto overclaimed = answer;
  overclaimed.value += 1.0;
  expect(!e2e::check_answer(rows, overclaimed).empty(), "value not matching its bits rejected");
  auto infeasible = answer;
  infeasible.picked.assign(rows.n, 1);
  infeasible.value = 0.0;
  for (const double p : rows.profits) infeasible.value += p;
  expect(!e2e::check_answer(rows, infeasible).empty(), "overloaded answer rejected");

  // The gate turns a wrong solution and a non-repeating repeat into a
  // failed run.
  const auto inst = e2e::build_instance(rows, "selftest");
  pts::mkp::Solution good(inst);
  for (std::size_t j = 0; j < rows.n; ++j) {
    if (answer.picked[j]) good.add(j);
  }
  const e2e::Verifier::Job job{"job", &rows, 1e18, std::nullopt};
  {
    e2e::Verifier gate;
    expect(gate.record(job, {}, good, good.value(), 10) && gate.correct(), "good job passes");
    expect(gate.record(job, {}, good, good.value(), 10) && gate.correct(), "same repeat passes");
    gate.record(job, {}, good, good.value(), 11);
    expect(!gate.correct(), "repeat with another move count fails the run");
  }
  {
    e2e::Verifier gate;
    auto bad = good;
    bad.flip(0);
    gate.record(job, {}, bad, good.value(), 10);
    expect(!gate.correct() && gate.failed() == 1, "flipped solution fails the run");
  }
  {
    e2e::Verifier gate;
    gate.record({"bounded", &rows, good.value() - 1.0, std::nullopt}, {}, good, good.value(), 1);
    expect(!gate.correct(), "value above the LP bound fails the run");
  }
  {
    e2e::Verifier gate;
    gate.record({"target", &rows, 1e18, good.value() + 1.0}, {}, good, good.value(), 1);
    gate.record(job, pts::Status::unavailable("down"), std::nullopt, 0.0, 0);
    expect(gate.correct() && gate.failed() == 2 && gate.attempted() == 2,
           "missed target and error status count as failed, not wrong");
  }
}

}  // namespace

int main() {
  test_percentiles();
  test_self_time();
  test_checker();
  std::printf("%s\n", failures == 0 ? "selftest: all checks passed" : "selftest: FAILED");
  return failures == 0 ? 0 : 1;
}
