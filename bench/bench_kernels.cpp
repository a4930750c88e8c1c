// Micro-kernel benchmarks (google-benchmark): the inner loops whose cost
// model the paper's work balancing assumes — O(m) add/drop, O(n m) move
// application scaling with nb_drop, plus the LP solve and pool-spread
// kernels the master relies on.
//
// In addition to the google-benchmark suite, a self-timed comparison of the
// hoisted AddScan sweep against per-call fit_and_score_scalar always runs
// first and writes machine-readable results to BENCH_kernels.json (override
// with --json=PATH). The table has three columns per shape — the scalar
// reference called once per item, the AddScan sweep pinned to scalar
// dispatch, the AddScan sweep on the best vector kind — plus four
// self-timed sections: the cooperation round-trip latency (scatter→gather,
// thread vs process backend), the 25x500 hot-path figures (sweeps per add
// and µs per MoveKernel::apply over a fixed-seed move replay, µs per
// swap_intensify call on states taken from it), the 25x500 engine figures
// (µs per move, intensification share and µs per select_drop of a
// fixed-seed tabu_search for the two kinds of slave that set a balanced
// round) and the core-reduction work comparison on the paper's 10x500 /
// 30x500 GK shapes. `--smoke` skips the google-benchmark suite, shrinks
// everything to well under the ctest timeout, and exits nonzero if the
// AddScan sweep is more than 10% slower than the per-call scalar reference
// or the vector kind regresses against the scalar sweep — the
// `bench_smoke_kernels` regression gate.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bounds/core.hpp"
#include "bounds/greedy.hpp"
#include "bounds/lagrangian.hpp"
#include "bounds/reduction.hpp"
#include "bounds/simplex.hpp"
#include "mkp/generator.hpp"
#include "obs/counters.hpp"
#include "parallel/runner.hpp"
#include "tabu/cets.hpp"
#include "tabu/elite_pool.hpp"
#include "tabu/engine.hpp"
#include "tabu/intensify.hpp"
#include "tabu/kernels.hpp"
#include "tabu/moves.hpp"
#include "tabu/path_relink.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace {

using namespace pts;

mkp::Instance bench_instance(std::size_t n, std::size_t m) {
  return mkp::generate_gk({.num_items = n, .num_constraints = m}, 12345);
}

// A mid-search Add-step state: greedy-fill, then drop a few items so there
// are real candidates with mixed fit/non-fit outcomes, like the scans the
// tabu engine actually runs.
mkp::Solution sweep_state(const mkp::Instance& inst) {
  auto x = bounds::greedy_construct(inst);
  Rng rng(99);
  const auto selected = x.selected_items();
  for (std::size_t k = 0; k < selected.size() / 4; ++k) {
    const std::size_t j = selected[rng.index(selected.size())];
    if (x.contains(j)) x.drop(j);
  }
  return x;
}

// One full candidate sweep through the scalar reference, called per item:
// every unselected item pays the per-call pointer set-up, the O(1) prune
// and, past it, the scalar fused body.
double sweep_scalar(const mkp::Solution& x) {
  const std::size_t n = x.num_items();
  double acc = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    if (x.contains(j)) continue;
    const auto fs = tabu::kernels::fit_and_score_scalar(x, j);
    if (fs.fit) acc += fs.score;
  }
  return acc;
}

// The same sweep through the fused column-major kernel with O(1) pruning,
// enumerating the unselected items word by word as the engine's Add list
// does (BitVec::for_each_zero).
double sweep_fused(const mkp::Solution& x) {
  // One AddScan per sweep, exactly as the engine's select_add does: the
  // dispatch resolve and pointer bundle are hoisted, candidates evaluated
  // through the same prune + checked/certain-fit bodies.
  const tabu::kernels::AddScan scan(x);
  double acc = 0.0;
  x.bits().for_each_zero([&](std::size_t j) {
    const auto fs = scan(j);
    if (fs.fit) acc += fs.score;
  });
  return acc;
}

struct SweepTiming {
  double scalar_ns_per_sweep = 0.0;  ///< fit_and_score_scalar, once per item
  double fused_ns_per_sweep = 0.0;   ///< fused kernel, dispatch pinned to scalar
  double simd_ns_per_sweep = 0.0;    ///< fused kernel, best supported vector kind
  [[nodiscard]] double speedup() const {
    return fused_ns_per_sweep > 0.0 ? scalar_ns_per_sweep / fused_ns_per_sweep : 0.0;
  }
  [[nodiscard]] double simd_speedup() const {
    return simd_ns_per_sweep > 0.0 ? fused_ns_per_sweep / simd_ns_per_sweep : 0.0;
  }
};

template <typename Fn>
double time_ns_per_call(Fn&& fn, std::size_t reps) {
  volatile double sink = 0.0;
  // Warm-up pass so both paths start with the same cache state.
  sink = sink + fn();
  const auto begin = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < reps; ++r) sink = sink + fn();
  const auto end = std::chrono::steady_clock::now();
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin).count()) /
         static_cast<double>(reps);
}

SweepTiming time_sweeps(const mkp::Instance& inst, std::size_t reps) {
  const auto x = sweep_state(inst);
  const auto previous = simd::active();
  const auto vector_kind = simd::best_supported();
  SweepTiming timing;
  // Interleave A/B/C/A/B/C halves so no path benefits from running last.
  // The dispatch pin makes the columns honest: "fused" is the scalar body
  // even on AVX2 hardware, "simd" is the vector path.
  const auto scalar_pass = [&] {
    simd::set_active(simd::Kind::kScalar);
    return time_ns_per_call([&] { return sweep_scalar(x); }, reps / 2);
  };
  const auto fused_pass = [&] {
    simd::set_active(simd::Kind::kScalar);
    return time_ns_per_call([&] { return sweep_fused(x); }, reps / 2);
  };
  const auto simd_pass = [&] {
    simd::set_active(vector_kind);
    return time_ns_per_call([&] { return sweep_fused(x); }, reps / 2);
  };
  // Keep the MINIMUM over three interleaved passes, not an average: a pass
  // that loses the core to a neighbour inflates a mean (and once flipped the
  // A/B verdict on shared CI hardware) but can never deflate a minimum.
  timing.scalar_ns_per_sweep = scalar_pass();
  timing.fused_ns_per_sweep = fused_pass();
  timing.simd_ns_per_sweep = simd_pass();
  for (int pass = 0; pass < 2; ++pass) {
    timing.scalar_ns_per_sweep =
        std::min(timing.scalar_ns_per_sweep, scalar_pass());
    timing.fused_ns_per_sweep = std::min(timing.fused_ns_per_sweep, fused_pass());
    timing.simd_ns_per_sweep = std::min(timing.simd_ns_per_sweep, simd_pass());
  }
  simd::set_active(previous);
  return timing;
}

/// Wall-clock per cooperation round (scatter assignments → gather reports)
/// with a work budget small enough that the search itself is noise: the
/// number is dominated by the mailbox/socket round trip plus the barrier.
double coop_round_trip_us(parallel::Backend backend, std::size_t rounds) {
  const auto inst = bench_instance(100, 5);
  parallel::ParallelConfig config;
  config.mode = parallel::CooperationMode::kCooperativePool;
  config.backend = backend;
  config.num_slaves = 4;
  config.search_iterations = rounds;
  config.work_per_slave_round = 32;
  config.seed = 7;
  const auto result = run_parallel_tabu_search(inst, config);
  if (!result.status.ok() || result.master.rounds_completed == 0) {
    std::fprintf(stderr, "coop latency (%s backend): %s\n",
                 parallel::to_string(backend).c_str(),
                 result.status.to_string().c_str());
    return -1.0;
  }
  return result.seconds * 1e6 / static_cast<double>(result.master.rounds_completed);
}

struct CoreComparison {
  bool engaged = false;
  bool reached = false;          ///< core run reached the full run's best
  double full_best = 0.0;
  double gap_eps = 0.0;          ///< approximate-core tolerance used
  std::uint64_t full_moves = 0;  ///< moves the full-space run spent
  std::uint64_t core_moves = 0;  ///< moves the core run spent to reach it
  std::size_t fixed = 0;         ///< variables the LP fixed
};

/// Full-space run for a fixed round budget, then a core-reduced run chasing
/// the full run's best as target. On the GK family strict (gap_eps = 0)
/// reduced-cost fixing cannot bite — every reduced cost is smaller than the
/// ~1% LP–incumbent gap — so this comparison runs the documented
/// approximate core: the incumbent as lower-bound hint plus a gap_eps of
/// 95% of the remaining LP gap, the classic core-problem trade (a few
/// hundred variables fixed, optimality certificate given up). Everything is
/// seeded, so the moves columns are machine-independent.
CoreComparison compare_core_reduction(std::size_t n, std::size_t m,
                                      std::size_t rounds, std::uint64_t work) {
  const auto inst = bench_instance(n, m);
  parallel::ParallelConfig config;
  config.mode = parallel::CooperationMode::kCooperativeAdaptive;
  config.num_slaves = 3;
  config.search_iterations = rounds;
  config.work_per_slave_round = work;
  config.seed = 13;

  const auto full = run_parallel_tabu_search(inst, config);
  CoreComparison out;
  if (!full.status.ok()) return out;
  out.full_best = full.best_value;
  out.full_moves = full.total_moves;

  auto core_config = config;
  core_config.core.enabled = true;
  core_config.core.min_fixed_fraction = 0.0;
  core_config.core.lower_bound_hint = full.best_value;
  // One strict probe for the LP objective, then 95% of the gap as the
  // approximate-core tolerance.
  const auto strict = bounds::build_core_problem(inst, core_config.core);
  if (strict.fixing.lp_solved) {
    out.gap_eps =
        0.95 * std::max(0.0, strict.fixing.lp_objective - full.best_value);
  }
  core_config.core.gap_eps = out.gap_eps;
  core_config.target_value = full.best_value;
  core_config.search_iterations = rounds * 4;  // headroom; target stops it early
  const auto core = run_parallel_tabu_search(inst, core_config);
  if (!core.status.ok()) return out;
  out.engaged = core.core_engaged;
  out.fixed = core.core_fixed_zero + core.core_fixed_one;
  out.reached = core.best_value >= full.best_value;
  out.core_moves = core.total_moves;
  return out;
}

/// Layer figures for the two loops that set a 25x500 slave round: the Add
/// phase of MoveKernel::apply and swap_intensify. States come from a fixed-
/// seed replay of Drop/Add moves, so every count below is machine-independent
/// and only the times move between builds.
struct HotPathFigures {
  std::uint64_t moves = 0;
  std::uint64_t adds = 0;
  std::uint64_t sweeps = 0;           ///< kFitScoreCalls over the replay
  std::uint64_t prune_outs = 0;       ///< kPruneEarlyOuts over the replay
  std::uint64_t tabu_rejections = 0;  ///< MoveStats::tabu_blocked_adds
  double apply_us_scalar = 0.0;       ///< per MoveKernel::apply, scalar kernel
  double apply_us_simd = 0.0;         ///< per MoveKernel::apply, best vector kind
  std::size_t swap_calls = 0;         ///< swap_intensify states timed
  std::uint64_t swaps = 0;            ///< exchanges applied over those calls
  double swap_us = 0.0;               ///< per swap_intensify call
};

HotPathFigures time_hot_path(std::size_t reps) {
  const auto inst = bench_instance(500, 25);
  const tabu::MoveKernel kernel(inst);
  tabu::Strategy strategy;
  strategy.tabu_tenure = 15;
  strategy.nb_drop = 4;
  constexpr std::size_t kWarmMoves = 200;
  constexpr std::size_t kReplayMoves = 200;
  constexpr std::size_t kSwapEvery = 20;

  // Warm up past the greedy start so the replay sees mid-search states.
  auto x = bounds::greedy_construct(inst);
  tabu::TabuList tabu(inst.num_items());
  Rng rng(2024);
  double best = x.value();
  std::uint64_t iter = 0;
  tabu::MoveStats warm_stats;
  for (std::size_t k = 0; k < kWarmMoves; ++k) {
    kernel.apply(x, tabu, ++iter, strategy, strategy.tabu_tenure, best, rng,
                 warm_stats);
    best = std::max(best, x.value());
  }
  const auto start_x = x;
  const auto start_tabu = tabu;
  const auto start_rng = rng;
  const std::uint64_t start_iter = iter;
  const double start_best = best;

  HotPathFigures out;
  std::vector<mkp::Solution> swap_states;
  // One replay from the snapshot; `record` keeps counts and swap states.
  const auto replay = [&](bool record) {
    auto rx = start_x;
    auto rtabu = start_tabu;
    auto rrng = start_rng;
    std::uint64_t riter = start_iter;
    double rbest = start_best;
    tabu::MoveStats stats;
    obs::Counters counters;
    const obs::CounterScope scope(record ? &counters : nullptr);
    for (std::size_t k = 0; k < kReplayMoves; ++k) {
      kernel.apply(rx, rtabu, ++riter, strategy, strategy.tabu_tenure, rbest, rrng,
                   stats);
      rbest = std::max(rbest, rx.value());
      if (record && k % kSwapEvery == 0) swap_states.push_back(rx);
    }
    if (record) {
      out.moves = kReplayMoves;
      out.adds = stats.adds;
      out.sweeps = counters[obs::Counter::kFitScoreCalls];
      out.prune_outs = counters[obs::Counter::kPruneEarlyOuts];
      out.tabu_rejections = stats.tabu_blocked_adds;
    }
    return rx.value();
  };
  replay(/*record=*/true);

  const auto previous = simd::active();
  const auto apply_pass = [&](simd::Kind kind) {
    simd::set_active(kind);
    return time_ns_per_call([&] { return replay(false); }, reps) * 1e-3 /
           static_cast<double>(kReplayMoves);
  };
  const auto swap_pass = [&] {
    return time_ns_per_call(
               [&] {
                 double acc = 0.0;
                 for (const auto& state : swap_states) {
                   auto y = state;
                   tabu::swap_intensify(y);
                   acc += y.value();
                 }
                 return acc;
               },
               reps) *
           1e-3 / static_cast<double>(swap_states.size());
  };
  // Minimum over three interleaved passes, as in time_sweeps.
  out.apply_us_scalar = apply_pass(simd::Kind::kScalar);
  out.apply_us_simd = apply_pass(simd::best_supported());
  out.swap_us = swap_pass();
  for (int pass = 0; pass < 2; ++pass) {
    out.apply_us_scalar =
        std::min(out.apply_us_scalar, apply_pass(simd::Kind::kScalar));
    out.apply_us_simd =
        std::min(out.apply_us_simd, apply_pass(simd::best_supported()));
    out.swap_us = std::min(out.swap_us, swap_pass());
  }
  simd::set_active(previous);

  out.swap_calls = swap_states.size();
  for (const auto& state : swap_states) {
    auto y = state;
    out.swaps += tabu::swap_intensify(y);
  }
  return out;
}

/// The two kinds of slave that hold a 25x500 balanced-preset round (the
/// e2e solve's fixed job): many drops with every fitting item scored and
/// swap intensification, and one drop with 25 sampled candidates and
/// strategic oscillation. Their drop, candidate and patience values are the
/// job's; the tenure is fixed at 15 as in the hot-path replay.
struct EngineCase {
  const char* name;
  tabu::Strategy strategy;
  tabu::IntensificationKind intensification;
};

const EngineCase kEngineCases[] = {
    {"drop4_all_swap",
     {.tabu_tenure = 15, .nb_drop = 4, .nb_local = 34, .nb_candidates = 0},
     tabu::IntensificationKind::kSwap},
    {"drop1_cand25_oscillation",
     {.tabu_tenure = 15, .nb_drop = 1, .nb_local = 138, .nb_candidates = 25},
     tabu::IntensificationKind::kStrategicOscillation},
};

/// Wall-clock split of one tabu_search run: the intensification phase is
/// the interval from the last move of a local-search loop to the
/// on_intensification callback that follows it.
class PhaseClock final : public tabu::TsTrace {
 public:
  void on_move(std::uint64_t, double, bool) override { last_ = Clock::now(); }
  void on_intensification(tabu::IntensificationKind, double, double) override {
    intensify_ += Clock::now() - last_;
  }
  [[nodiscard]] double intensify_seconds() const {
    return std::chrono::duration<double>(intensify_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point last_ = Clock::now();
  Clock::duration intensify_{0};
};

struct EngineFigures {
  std::uint64_t moves = 0;
  double best = 0.0;
  double move_us = 0.0;          ///< run wall per move, every phase included
  double intensify_share = 0.0;  ///< share of the run wall in intensification
  double drop_us = 0.0;          ///< per MoveKernel::select_drop call
};

/// A fixed-seed tabu_search with the case's strategy (moves and best are
/// machine-independent), then select_drop timed on states of a move replay
/// with the same strategy. Times are minima over three passes.
EngineFigures time_engine(const EngineCase& engine_case, std::uint64_t max_moves,
                          std::size_t drop_reps) {
  const auto inst = bench_instance(500, 25);
  tabu::TsParams params;
  params.strategy = engine_case.strategy;
  params.intensification = engine_case.intensification;
  params.max_moves = max_moves;

  EngineFigures out;
  for (int pass = 0; pass < 3; ++pass) {
    Rng rng(2024);
    PhaseClock clock;
    const auto begin = std::chrono::steady_clock::now();
    const auto result = tabu::tabu_search_from_scratch(inst, params, rng, &clock);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
    const double move_us = seconds * 1e6 / static_cast<double>(result.moves);
    if (pass == 0 || move_us < out.move_us) {
      out.move_us = move_us;
      out.intensify_share = clock.intensify_seconds() / seconds;
    }
    out.moves = result.moves;
    out.best = result.best_value;
  }

  struct DropState {
    mkp::Solution x;
    tabu::TabuList tabu;
    std::uint64_t iter;
  };
  const tabu::MoveKernel kernel(inst);
  auto x = bounds::greedy_construct(inst);
  tabu::TabuList tabu(inst.num_items());
  Rng rng(2024);
  tabu::MoveStats stats;
  std::vector<DropState> states;
  double best = x.value();
  for (std::uint64_t iter = 1; iter <= 400; ++iter) {
    kernel.apply(x, tabu, iter, engine_case.strategy, engine_case.strategy.tabu_tenure,
                 best, rng, stats);
    best = std::max(best, x.value());
    if (iter > 200 && iter % 4 == 0) states.push_back({x, tabu, iter + 1});
  }
  const auto drop_pass = [&] {
    return time_ns_per_call(
               [&] {
                 double acc = 0.0;
                 for (const auto& state : states) {
                   acc += static_cast<double>(
                       *kernel.select_drop(state.x, state.tabu, state.iter));
                 }
                 return acc;
               },
               drop_reps) *
           1e-3 / static_cast<double>(states.size());
  };
  out.drop_us = drop_pass();
  for (int pass = 0; pass < 2; ++pass) out.drop_us = std::min(out.drop_us, drop_pass());
  return out;
}

/// Writes BENCH_kernels.json and returns 0 when the fused kernel is no more
/// than `tolerance` slower than the scalar reference on every shape AND the
/// vector kind never regresses against fused-scalar.
int run_kernel_comparison(const std::string& json_path, bool smoke) {
  struct Shape {
    std::size_t m;
    std::size_t n;
  };
  // 25x500 is the paper's largest GK shape — the acceptance target; 10x500
  // and 30x500 are the core-reduction shapes, timed here too so the sweep
  // columns and the core section describe the same instances.
  static constexpr Shape kShapes[] = {
      {5, 100}, {10, 250}, {10, 500}, {25, 500}, {30, 500}};
  const std::size_t reps = smoke ? 1200 : 20000;
  constexpr double kTolerance = 1.10;  // fail only if >10% slower

  const auto vector_kind = simd::best_supported();
  std::string json = "{\n  \"unit\": \"ns_per_sweep\",\n  \"reps\": " +
                     std::to_string(reps) + ",\n  \"simd_kind\": \"" +
                     simd::to_string(vector_kind) + "\",\n  \"shapes\": [\n";
  bool ok = true;
  for (std::size_t s = 0; s < std::size(kShapes); ++s) {
    const auto& shape = kShapes[s];
    const auto inst = bench_instance(shape.n, shape.m);
    // A genuine kernel regression fails EVERY measurement; a measurement that
    // lost its core to a noisy neighbour fails one. Re-measure a failing
    // shape before calling it a regression — the 10% tolerance itself never
    // loosens, only the noise has to lose three times in a row.
    const auto within_tolerance = [](const SweepTiming& t) {
      return t.fused_ns_per_sweep <= t.scalar_ns_per_sweep * kTolerance &&
             t.simd_ns_per_sweep <= t.fused_ns_per_sweep * kTolerance;
    };
    auto timing = time_sweeps(inst, reps);
    for (int retry = 0; retry < 2 && !within_tolerance(timing); ++retry) {
      timing = time_sweeps(inst, reps);
    }
    ok = ok && within_tolerance(timing);
    char row[320];
    std::snprintf(row, sizeof(row),
                  "    {\"m\": %zu, \"n\": %zu, \"scalar_ns\": %.1f, "
                  "\"fused_ns\": %.1f, \"simd_ns\": %.1f, \"speedup\": %.2f, "
                  "\"simd_speedup\": %.2f}%s\n",
                  shape.m, shape.n, timing.scalar_ns_per_sweep,
                  timing.fused_ns_per_sweep, timing.simd_ns_per_sweep,
                  timing.speedup(), timing.simd_speedup(),
                  s + 1 < std::size(kShapes) ? "," : "");
    json += row;
    std::printf(
        "fit_and_score sweep %zux%zu: scalar %.0f ns, fused %.0f ns, "
        "%s %.0f ns (%.2fx fused, %.2fx simd-over-fused)\n",
        shape.m, shape.n, timing.scalar_ns_per_sweep, timing.fused_ns_per_sweep,
        simd::to_string(vector_kind), timing.simd_ns_per_sweep,
        timing.speedup(), timing.simd_speedup());
  }
  json += "  ],\n  \"fused_within_tolerance\": ";
  json += ok ? "true" : "false";

  // Cooperation round-trip latency: same master/slave logic, two transports.
  const std::size_t coop_rounds = smoke ? 6 : 24;
  const double thread_us = coop_round_trip_us(parallel::Backend::kThread, coop_rounds);
  const double proc_us = coop_round_trip_us(parallel::Backend::kProcess, coop_rounds);
  ok = ok && thread_us > 0.0 && proc_us > 0.0;
  {
    char row[256];
    std::snprintf(row, sizeof(row),
                  ",\n  \"coop_round_trip\": {\"slaves\": 4, \"rounds\": %zu, "
                  "\"thread_us_per_round\": %.1f, \"proc_us_per_round\": %.1f}",
                  coop_rounds, thread_us, proc_us);
    json += row;
    std::printf("cooperation round trip (4 slaves): thread %.0f us, proc %.0f us\n",
                thread_us, proc_us);
  }

  // Add-phase and swap-intensification layer figures on the 25x500 shape.
  {
    const auto hot = time_hot_path(smoke ? 2 : 20);
    const auto per_add = [&](std::uint64_t count) {
      return hot.adds > 0 ? static_cast<double>(count) / static_cast<double>(hot.adds)
                          : 0.0;
    };
    char row[640];
    std::snprintf(row, sizeof(row),
                  ",\n  \"hot_path_25x500\": {\"moves\": %llu, \"adds\": %llu, "
                  "\"sweeps_per_add\": %.2f, \"prune_outs_per_add\": %.2f, "
                  "\"tabu_rejections_per_add\": %.2f, \"apply_us_scalar\": %.2f, "
                  "\"apply_us_simd\": %.2f, \"swap_calls\": %zu, "
                  "\"swaps_per_call\": %.2f, \"swap_us\": %.1f}",
                  static_cast<unsigned long long>(hot.moves),
                  static_cast<unsigned long long>(hot.adds), per_add(hot.sweeps),
                  per_add(hot.prune_outs), per_add(hot.tabu_rejections),
                  hot.apply_us_scalar, hot.apply_us_simd, hot.swap_calls,
                  hot.swap_calls > 0 ? static_cast<double>(hot.swaps) /
                                           static_cast<double>(hot.swap_calls)
                                     : 0.0,
                  hot.swap_us);
    json += row;
    std::printf(
        "hot path 25x500: %.1f sweeps/add, apply %.1f us scalar / %.1f us %s, "
        "swap_intensify %.0f us per call\n",
        per_add(hot.sweeps), hot.apply_us_scalar, hot.apply_us_simd,
        simd::to_string(vector_kind), hot.swap_us);
  }

  // Engine figures for the two kinds of slave that set a 25x500 round.
  json += ",\n  \"engine_25x500\": [\n";
  for (std::size_t c = 0; c < std::size(kEngineCases); ++c) {
    const auto& engine_case = kEngineCases[c];
    const auto fig = time_engine(engine_case, smoke ? 600 : 3000, smoke ? 20 : 400);
    const auto& strategy = engine_case.strategy;
    char row[512];
    std::snprintf(row, sizeof(row),
                  "    {\"strategy\": \"%s\", \"nb_drop\": %zu, \"nb_candidates\": %zu, "
                  "\"nb_local\": %zu, \"tabu_tenure\": %zu, \"intensify\": \"%s\", "
                  "\"moves\": %llu, \"best\": %.1f, \"move_us\": %.2f, "
                  "\"intensify_share\": %.3f, \"drop_us\": %.3f}%s\n",
                  engine_case.name, strategy.nb_drop, strategy.nb_candidates,
                  strategy.nb_local, strategy.tabu_tenure,
                  tabu::to_string(engine_case.intensification),
                  static_cast<unsigned long long>(fig.moves), fig.best, fig.move_us,
                  fig.intensify_share, fig.drop_us,
                  c + 1 < std::size(kEngineCases) ? "," : "");
    json += row;
    std::printf(
        "engine 25x500 %s: %.1f us/move over %llu moves, %.0f%% intensifying, "
        "select_drop %.3f us\n",
        engine_case.name, fig.move_us, static_cast<unsigned long long>(fig.moves),
        100.0 * fig.intensify_share, fig.drop_us);
  }
  json += "  ]";

  // Core-problem reduction on the GK shapes the acceptance names: the core
  // run chases the full run's best and reports the moves it took.
  json += ",\n  \"core_reduction\": [\n";
  static constexpr Shape kCoreShapes[] = {{10, 500}, {30, 500}};
  const std::size_t core_rounds = smoke ? 3 : 8;
  const std::uint64_t core_work = smoke ? 1'500 : 10'000;
  for (std::size_t s = 0; s < std::size(kCoreShapes); ++s) {
    const auto& shape = kCoreShapes[s];
    const auto cmp = compare_core_reduction(shape.n, shape.m, core_rounds, core_work);
    char row[384];
    std::snprintf(row, sizeof(row),
                  "    {\"m\": %zu, \"n\": %zu, \"engaged\": %s, \"fixed\": %zu, "
                  "\"gap_eps\": %.1f, \"full_best\": %.1f, \"full_moves\": %llu, "
                  "\"reached_full_best\": %s, \"core_moves\": %llu}%s\n",
                  shape.m, shape.n, cmp.engaged ? "true" : "false", cmp.fixed,
                  cmp.gap_eps, cmp.full_best,
                  static_cast<unsigned long long>(cmp.full_moves),
                  cmp.reached ? "true" : "false",
                  static_cast<unsigned long long>(cmp.core_moves),
                  s + 1 < std::size(kCoreShapes) ? "," : "");
    json += row;
    std::printf(
        "core reduction %zux%zu: fixed %zu, full best %.1f in %llu moves, "
        "core %s it in %llu moves\n",
        shape.m, shape.n, cmp.fixed, cmp.full_best,
        static_cast<unsigned long long>(cmp.full_moves),
        cmp.reached ? "reached" : "MISSED",
        static_cast<unsigned long long>(cmp.core_moves));
    ok = ok && cmp.reached && cmp.core_moves < cmp.full_moves;
  }
  json += "  ]\n}\n";

  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: kernel regression, backend failure, or core run "
                 "missed the full-space best (see table above)\n");
    return 1;
  }
  return 0;
}

void BM_FitScoreSweepScalar(benchmark::State& state) {
  const auto inst = bench_instance(static_cast<std::size_t>(state.range(1)),
                                   static_cast<std::size_t>(state.range(0)));
  const auto x = sweep_state(inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sweep_scalar(x));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(1));
}
BENCHMARK(BM_FitScoreSweepScalar)->Args({5, 100})->Args({25, 500});

void BM_FitScoreSweepFused(benchmark::State& state) {
  const auto inst = bench_instance(static_cast<std::size_t>(state.range(1)),
                                   static_cast<std::size_t>(state.range(0)));
  const auto x = sweep_state(inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sweep_fused(x));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(1));
}
BENCHMARK(BM_FitScoreSweepFused)->Args({5, 100})->Args({25, 500});

void BM_SolutionAddDrop(benchmark::State& state) {
  const auto inst = bench_instance(500, static_cast<std::size_t>(state.range(0)));
  mkp::Solution s(inst);
  std::size_t j = 0;
  for (auto _ : state) {
    s.add(j);
    s.drop(j);
    j = (j + 1) % inst.num_items();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_SolutionAddDrop)->Arg(5)->Arg(10)->Arg(25);

void BM_MoveApply(benchmark::State& state) {
  const auto inst = bench_instance(static_cast<std::size_t>(state.range(0)), 10);
  auto x = bounds::greedy_construct(inst);
  tabu::TabuList tabu(inst.num_items());
  tabu::MoveKernel kernel(inst);
  tabu::MoveStats stats;
  tabu::Strategy strategy;
  strategy.nb_drop = static_cast<std::size_t>(state.range(1));
  Rng rng(1);
  std::uint64_t iter = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernel.apply(x, tabu, ++iter, strategy, 7, 1e18, rng, stats));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MoveApply)
    ->Args({100, 1})
    ->Args({100, 4})
    ->Args({250, 1})
    ->Args({250, 4})
    ->Args({500, 1})
    ->Args({500, 4});

void BM_GreedyConstruct(benchmark::State& state) {
  const auto inst = bench_instance(static_cast<std::size_t>(state.range(0)), 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bounds::greedy_construct(inst));
  }
}
BENCHMARK(BM_GreedyConstruct)->Arg(100)->Arg(500);

void BM_LpRelaxation(benchmark::State& state) {
  const auto inst = bench_instance(static_cast<std::size_t>(state.range(0)),
                                   static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bounds::solve_lp_relaxation(inst));
  }
}
BENCHMARK(BM_LpRelaxation)->Args({100, 5})->Args({250, 10})->Args({500, 25});

void BM_HammingDistance(benchmark::State& state) {
  const auto inst = bench_instance(static_cast<std::size_t>(state.range(0)), 5);
  Rng rng(2);
  const auto a = bounds::random_feasible(inst, rng);
  const auto b = bounds::random_feasible(inst, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.hamming_distance(b));
  }
}
BENCHMARK(BM_HammingDistance)->Arg(500)->Arg(2000);

void BM_ElitePoolSpread(benchmark::State& state) {
  const auto inst = bench_instance(250, 10);
  Rng rng(3);
  tabu::ElitePool pool(static_cast<std::size_t>(state.range(0)));
  for (int k = 0; k < state.range(0) * 3; ++k) {
    pool.offer(bounds::random_feasible(inst, rng));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.mean_pairwise_hamming());
  }
}
BENCHMARK(BM_ElitePoolSpread)->Arg(5)->Arg(20);

void BM_CetsStep(benchmark::State& state) {
  // One add/drop oscillation step, amortized over a bounded run.
  const auto inst = bench_instance(static_cast<std::size_t>(state.range(0)), 10);
  Rng rng(4);
  for (auto _ : state) {
    tabu::CetsParams params;
    params.max_steps = 256;
    benchmark::DoNotOptimize(tabu::critical_event_tabu_search(inst, rng, params));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_CetsStep)->Arg(100)->Arg(250);

void BM_PathRelink(benchmark::State& state) {
  const auto inst = bench_instance(static_cast<std::size_t>(state.range(0)), 10);
  Rng rng(5);
  const auto a = bounds::greedy_randomized(inst, rng);
  const auto b = bounds::random_feasible(inst, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tabu::path_relink(a, b));
  }
}
BENCHMARK(BM_PathRelink)->Arg(100)->Arg(250);

void BM_ReducedCostFixing(benchmark::State& state) {
  const auto inst = bench_instance(static_cast<std::size_t>(state.range(0)), 10);
  const double lb = bounds::greedy_construct(inst).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bounds::reduced_cost_fixing(inst, lb));
  }
}
BENCHMARK(BM_ReducedCostFixing)->Arg(100)->Arg(250);

void BM_LagrangianDual(benchmark::State& state) {
  const auto inst = bench_instance(250, static_cast<std::size_t>(state.range(0)));
  bounds::LagrangianOptions options;
  options.max_iterations = 100;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bounds::solve_lagrangian(inst, options));
  }
}
BENCHMARK(BM_LagrangianDual)->Arg(5)->Arg(25);

void BM_GenerateGk(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mkp::generate_gk(
        {.num_items = static_cast<std::size_t>(state.range(0)),
         .num_constraints = 25},
        ++seed));
  }
}
BENCHMARK(BM_GenerateGk)->Arg(100)->Arg(500);

}  // namespace

int main(int argc, char** argv) {
#ifdef PTS_WORKER_BIN_FOR_TESTS
  // Point the process backend at the build-tree worker without requiring
  // the caller to export anything; an explicit env var still wins.
  ::setenv("PTS_WORKER_BIN", PTS_WORKER_BIN_FOR_TESTS, /*overwrite=*/0);
#endif
  bool smoke = false;
  std::string json_path = "BENCH_kernels.json";
  // Strip our flags before handing argv to google-benchmark.
  std::vector<char*> passthrough = {argv[0]};
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[a], "--json=", 7) == 0) {
      json_path = argv[a] + 7;
    } else {
      passthrough.push_back(argv[a]);
    }
  }
  const int comparison = run_kernel_comparison(json_path, smoke);
  if (smoke) return comparison;

  argc = static_cast<int>(passthrough.size());
  argv = passthrough.data();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return comparison;
}
