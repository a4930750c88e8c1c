// MoveKernel::apply's Add phase (one candidate list per move, tabu tested
// before the sweep) against the loop it replaced: select_add repeated over
// every unselected item until nothing fits, with the fit test first. The
// reference below is that loop; both run in lockstep along a search, and
// every move must flip the same items in the same order, count the same
// adds, drops, aspiration hits and forced drops, and leave the rng in the
// same state. (tabu_blocked_adds is not compared: it now counts tabu items
// whether or not they fit.)
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bounds/greedy.hpp"
#include "mkp/generator.hpp"
#include "tabu/kernels.hpp"
#include "tabu/moves.hpp"
#include "util/rng.hpp"

namespace pts::tabu {
namespace {

std::optional<std::size_t> reference_select_add(const mkp::Instance& inst,
                                                const mkp::Solution& x,
                                                const TabuList& tabu, std::uint64_t iter,
                                                double best_value, MoveStats& stats,
                                                Rng& rng, std::size_t max_candidates) {
  const std::size_t n = inst.num_items();
  const std::size_t start = max_candidates > 0 ? rng.index(n) : 0;
  std::size_t evaluated = 0;
  std::size_t best = n;
  double best_key = -1.0;
  const kernels::AddScan scan(x);
  auto consider = [&](std::size_t j) -> bool {
    const auto fs = scan(j);
    if (!fs.fit) return true;
    if (tabu.is_add_tabu(j, iter)) {
      if (!(x.value() + inst.profit(j) > best_value)) return true;
      ++stats.aspiration_hits;
    }
    if (fs.score > best_key) {
      best_key = fs.score;
      best = j;
    }
    return !(max_candidates > 0 && ++evaluated >= max_candidates);
  };
  bool stopped = false;
  for (std::size_t j = start; j < n && !stopped; ++j) {
    if (!x.contains(j)) stopped = !consider(j);
  }
  for (std::size_t j = 0; j < start && !stopped; ++j) {
    if (!x.contains(j)) stopped = !consider(j);
  }
  return best < n ? std::optional<std::size_t>(best) : std::nullopt;
}

MoveOutcome reference_apply(const mkp::Instance& inst, mkp::Solution& x, TabuList& tabu,
                            std::uint64_t iter, const Strategy& strategy,
                            std::size_t tenure, double best_value, Rng& rng,
                            MoveStats& stats) {
  const MoveKernel kernel(inst);
  MoveOutcome outcome;
  const std::size_t drops_this_move =
      strategy.nb_drop == 1
          ? 1
          : 1 + static_cast<std::size_t>(rng.index(strategy.nb_drop));
  for (std::size_t d = 0; d < drops_this_move; ++d) {
    bool forced = false;
    const auto victim = kernel.select_drop(x, tabu, iter, &forced);
    if (!victim) break;
    x.drop(*victim);
    tabu.forbid_add(*victim, iter, tenure);
    outcome.flipped.push_back(*victim);
    ++outcome.num_drops;
    ++stats.drops;
    if (forced) ++stats.forced_drops;
  }
  while (auto candidate = reference_select_add(inst, x, tabu, iter, best_value, stats,
                                               rng, strategy.nb_candidates)) {
    x.add(*candidate);
    tabu.forbid_drop(*candidate, iter, tenure / 2 + 1);
    outcome.flipped.push_back(*candidate);
    ++outcome.num_adds;
    ++stats.adds;
  }
  return outcome;
}

enum class Aspiration { kNever, kTracked, kAlways };

std::string to_string(Aspiration mode) {
  switch (mode) {
    case Aspiration::kNever:
      return "never";
    case Aspiration::kTracked:
      return "tracked";
    case Aspiration::kAlways:
      return "always";
  }
  return "?";
}

/// Runs `moves` moves of both implementations in lockstep from the same
/// mid-search state and compares every move.
void run_lockstep(const mkp::Instance& inst, std::uint64_t seed,
                  std::size_t nb_candidates, std::size_t nb_drop, Aspiration aspiration,
                  std::size_t moves) {
  const std::string label = inst.name() + " seed " + std::to_string(seed) + " cand " +
                            std::to_string(nb_candidates) + " drop " +
                            std::to_string(nb_drop) + " aspiration " +
                            to_string(aspiration);
  Strategy strategy;
  strategy.nb_drop = nb_drop;
  strategy.nb_candidates = nb_candidates;
  const std::size_t tenure = 12;

  Rng start_rng(seed);
  mkp::Solution x = bounds::greedy_randomized(inst, start_rng, 4);
  TabuList tabu(inst.num_items());
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  const MoveKernel kernel(inst);
  double best = x.value();
  // Warm up with production moves so the states are mid-search: a populated
  // tabu list and a solution away from the greedy start.
  MoveStats warm;
  for (std::uint64_t iter = 1; iter <= 40; ++iter) {
    kernel.apply(x, tabu, iter, strategy, tenure, best, rng, warm);
    if (x.value() > best) best = x.value();
  }

  mkp::Solution ref_x = x;
  TabuList ref_tabu = tabu;
  Rng ref_rng = rng;
  MoveStats stats, ref_stats;
  for (std::uint64_t iter = 41; iter < 41 + moves; ++iter) {
    const double best_value = aspiration == Aspiration::kNever    ? 1e18
                              : aspiration == Aspiration::kAlways ? 0.0
                                                                  : best;
    const auto got =
        kernel.apply(x, tabu, iter, strategy, tenure, best_value, rng, stats);
    const auto want = reference_apply(inst, ref_x, ref_tabu, iter, strategy, tenure,
                                      best_value, ref_rng, ref_stats);
    ASSERT_EQ(got.flipped, want.flipped) << label << " move " << iter;
    ASSERT_EQ(got.num_adds, want.num_adds) << label << " move " << iter;
    ASSERT_EQ(got.num_drops, want.num_drops) << label << " move " << iter;
    ASSERT_EQ(stats.drops, ref_stats.drops) << label << " move " << iter;
    ASSERT_EQ(stats.adds, ref_stats.adds) << label << " move " << iter;
    ASSERT_EQ(stats.aspiration_hits, ref_stats.aspiration_hits)
        << label << " move " << iter;
    ASSERT_EQ(stats.forced_drops, ref_stats.forced_drops) << label << " move " << iter;
    ASSERT_EQ(x, ref_x) << label << " move " << iter;
    Rng probe = rng, ref_probe = ref_rng;
    ASSERT_EQ(probe(), ref_probe()) << label << " move " << iter;
    ASSERT_EQ(probe(), ref_probe()) << label << " move " << iter;
    if (x.value() > best) best = x.value();
  }
  if (aspiration == Aspiration::kAlways) {
    EXPECT_GT(stats.aspiration_hits, 0U) << label;
  }
}

TEST(AddEquivalence, MatchesRepeatedSelectAddOnGkShapes) {
  struct Shape {
    std::size_t n, m;
  };
  for (const Shape shape : {Shape{100, 5}, Shape{250, 10}, Shape{500, 25}}) {
    const auto inst = mkp::generate_gk(
        {.num_items = shape.n, .num_constraints = shape.m}, 900 + shape.n);
    for (const std::size_t nb_candidates : {0, 1, 8}) {
      for (const std::size_t nb_drop : {1, 4}) {
        for (const Aspiration aspiration :
             {Aspiration::kNever, Aspiration::kTracked, Aspiration::kAlways}) {
          run_lockstep(inst, shape.n + nb_candidates + nb_drop, nb_candidates, nb_drop,
                       aspiration, shape.n >= 500 ? 60 : 150);
        }
      }
    }
  }
}

TEST(AddEquivalence, MatchesRepeatedSelectAddWithFractionalWeights) {
  // Non-integral weights: the O(1) prune and certain-fit bounds are then
  // approximate, so the striking rule is exercised where rounding matters.
  Rng rng(77);
  const std::size_t n = 80, m = 7;
  std::vector<double> profits(n), weights(n * m), caps(m, 0.0);
  for (auto& p : profits) p = static_cast<double>(1 + rng.index(6));
  for (auto& w : weights) w = 0.1 * static_cast<double>(1 + rng.index(9));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) caps[i] += weights[i * n + j];
    caps[i] *= 0.3;
  }
  const mkp::Instance inst("fractional", profits, weights, caps);
  for (const std::size_t nb_candidates : {0, 1, 8}) {
    for (const Aspiration aspiration :
         {Aspiration::kNever, Aspiration::kTracked, Aspiration::kAlways}) {
      run_lockstep(inst, 5 + nb_candidates, nb_candidates, 3, aspiration, 200);
    }
  }
}

TEST(AddEquivalence, SelectAddMatchesReferenceOnFreshStates) {
  const auto inst = mkp::generate_gk({.num_items = 120, .num_constraints = 6}, 5);
  const MoveKernel kernel(inst);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng state_rng(seed);
    auto x = bounds::random_feasible(inst, state_rng);
    TabuList tabu(inst.num_items());
    for (std::size_t k = 0; k < 30; ++k) tabu.forbid_add(state_rng.index(120), 0, 10);
    for (const std::size_t budget : {0, 1, 8}) {
      for (const double best_value : {0.0, x.value() + 500.0, 1e18}) {
        Rng a(seed * 17 + budget), b = a;
        MoveStats got_stats, want_stats;
        const auto got =
            kernel.select_add(x, tabu, 1, best_value, &got_stats, &a, budget);
        const auto want =
            reference_select_add(inst, x, tabu, 1, best_value, want_stats, b, budget);
        EXPECT_EQ(got, want) << "seed " << seed << " budget " << budget;
        EXPECT_EQ(got_stats.aspiration_hits, want_stats.aspiration_hits);
        EXPECT_EQ(a(), b());
      }
    }
  }
}

}  // namespace
}  // namespace pts::tabu
