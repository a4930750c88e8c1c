// swap_intensify's profit-ordered partner search against the plain double
// loop it replaced. The reference below scans every (out, in) pair in index
// order and takes the first improving feasible exchange; the production
// search must apply the very same exchanges, so bits, value and swap count
// agree exactly on every state.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bounds/greedy.hpp"
#include "mkp/generator.hpp"
#include "tabu/intensify.hpp"
#include "util/rng.hpp"

namespace pts::tabu {
namespace {

bool reference_exchange_feasible(const mkp::Solution& x, std::size_t out,
                                 std::size_t in) {
  const auto& inst = x.instance();
  const std::size_t m = inst.num_constraints();
  for (std::size_t i = 0; i < m; ++i) {
    const double load = x.load(i) - inst.weight(i, out) + inst.weight(i, in);
    if (load > inst.capacity(i)) return false;
  }
  return true;
}

std::size_t reference_swap_intensify(mkp::Solution& x) {
  const auto& inst = x.instance();
  const std::size_t n = inst.num_items();
  std::size_t applied = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t out = 0; out < n && !changed; ++out) {
      if (!x.contains(out)) continue;
      for (std::size_t in = 0; in < n; ++in) {
        if (x.contains(in)) continue;
        if (inst.profit(in) <= inst.profit(out)) continue;
        if (!reference_exchange_feasible(x, out, in)) continue;
        x.drop(out);
        x.add(in);
        ++applied;
        changed = true;
        break;
      }
    }
  }
  return applied;
}

/// Feasible starting states of several kinds: random, randomized greedy,
/// and greedy with a quarter of its items dropped.
std::vector<mkp::Solution> start_states(const mkp::Instance& inst, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<mkp::Solution> states;
  for (int k = 0; k < 4; ++k) states.push_back(bounds::random_feasible(inst, rng));
  states.push_back(bounds::greedy_randomized(inst, rng, 6));
  auto thinned = bounds::greedy_construct(inst, bounds::GreedyOrder::kDensity);
  const auto selected = thinned.selected_items();
  for (std::size_t k = 0; k < selected.size() / 4; ++k) {
    const std::size_t j = selected[rng.index(selected.size())];
    if (thinned.contains(j)) thinned.drop(j);
  }
  states.push_back(thinned);
  states.emplace_back(inst);  // empty
  return states;
}

void expect_same_swaps(const mkp::Solution& start, const std::string& label) {
  ASSERT_TRUE(start.is_feasible()) << label;
  mkp::Solution expected = start;
  mkp::Solution actual = start;
  const std::size_t expected_swaps = reference_swap_intensify(expected);
  IntensifyStats stats;
  const std::size_t actual_swaps = swap_intensify(actual, &stats);
  EXPECT_EQ(actual_swaps, expected_swaps) << label;
  EXPECT_EQ(stats.swaps, expected_swaps) << label;
  EXPECT_EQ(actual, expected) << label;
  EXPECT_EQ(actual.value(), expected.value()) << label;
  EXPECT_TRUE(actual.is_feasible()) << label;
}

TEST(SwapEquivalence, MatchesDoubleLoopOnGkShapes) {
  struct Shape {
    std::size_t n, m;
  };
  for (const Shape shape : {Shape{20, 2}, Shape{60, 5}, Shape{100, 5}, Shape{100, 30},
                            Shape{250, 10}, Shape{500, 25}}) {
    const auto inst = mkp::generate_gk(
        {.num_items = shape.n, .num_constraints = shape.m}, 700 + shape.n + shape.m);
    const auto states = start_states(inst, shape.n * 31 + shape.m);
    for (std::size_t k = 0; k < states.size(); ++k) {
      expect_same_swaps(states[k], "gk " + std::to_string(shape.n) + "x" +
                                       std::to_string(shape.m) + " state " +
                                       std::to_string(k));
    }
  }
}

TEST(SwapEquivalence, MatchesDoubleLoopOnFpShapes) {
  for (const std::size_t n : {30, 80}) {
    const auto inst = mkp::generate_fp({.num_items = n, .num_constraints = 10}, n);
    const auto states = start_states(inst, n);
    for (std::size_t k = 0; k < states.size(); ++k) {
      expect_same_swaps(states[k], "fp " + std::to_string(n) + " state " +
                                       std::to_string(k));
    }
  }
}

/// Profits drawn from five values (ties everywhere) and weights that are
/// non-integral doubles, so (load - a_out) + a_in rounds differently from
/// other groupings and the tie order of the profit walk matters.
mkp::Instance tied_fractional_instance(std::size_t n, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> profits(n);
  for (auto& p : profits) p = static_cast<double>(1 + rng.index(5));
  std::vector<double> weights(n * m);
  for (auto& w : weights) {
    w = 0.1 * static_cast<double>(1 + rng.index(9)) + 1e-3 * rng.uniform01();
  }
  std::vector<double> caps(m);
  for (std::size_t i = 0; i < m; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < n; ++j) row += weights[i * n + j];
    caps[i] = 0.4 * row;
  }
  return mkp::Instance("tied_fractional", std::move(profits), std::move(weights),
                       std::move(caps));
}

TEST(SwapEquivalence, MatchesDoubleLoopWithProfitTiesAndFractionalWeights) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto inst = tied_fractional_instance(40 + 5 * seed, 1 + seed % 6, seed);
    const auto states = start_states(inst, seed);
    for (std::size_t k = 0; k < states.size(); ++k) {
      expect_same_swaps(states[k], "seed " + std::to_string(seed) + " state " +
                                       std::to_string(k));
    }
  }
}

TEST(SwapEquivalence, MatchesDoubleLoopAcrossWordBoundaries) {
  // The unselected list is built from the selection mask; sizes around a
  // word boundary (and no multiple of 64 but 64 itself) must agree too.
  for (const std::size_t n : {63U, 64U, 65U, 130U}) {
    const auto inst = mkp::generate_gk({.num_items = n, .num_constraints = 5}, 900 + n);
    const auto states = start_states(inst, n);
    for (std::size_t k = 0; k < states.size(); ++k) {
      expect_same_swaps(states[k], "gk " + std::to_string(n) + "x5 state " +
                                       std::to_string(k));
    }
    const auto tied = tied_fractional_instance(n, 3, n);
    const auto tied_states = start_states(tied, n + 1);
    for (std::size_t k = 0; k < tied_states.size(); ++k) {
      expect_same_swaps(tied_states[k], "tied " + std::to_string(n) + " state " +
                                            std::to_string(k));
    }
  }
}

TEST(SwapEquivalence, HandBuiltTiesPickTheLowestIndexPartner) {
  // From {0, 4}: items 1, 2 and 3 out-profit item 0 (2 and 3 tie at 7) and
  // item 3 never fits. The first exchange takes item 1, the lowest-index
  // feasible partner, although item 2 is worth more. Four exchanges follow
  // in all: 0->1, 1->2, 4->0, 0->1, ending at {1, 2}. Weights such as
  // 0.1/0.2/0.3 make the slack arithmetic non-integral.
  mkp::Instance inst("hand", {5, 6, 7, 7, 4},
                     {0.3, 0.1, 0.2, 0.7, 0.3,  //
                      0.2, 0.2, 0.1, 0.3, 0.1},
                     {0.6, 0.4});
  mkp::Solution s(inst);
  s.add(0);
  s.add(4);
  expect_same_swaps(s, "hand");
  mkp::Solution swapped = s;
  EXPECT_EQ(swap_intensify(swapped), 4U);
  EXPECT_EQ(swapped.selected_items(), (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(swapped.value(), 13.0);
}

TEST(SwapEquivalence, ExchangeTestRoundsLikeTheReference) {
  // One constraint, load 0.1 + 0.1. Swapping item 0 (0.1) for item 2 (0.4)
  // is feasible as (load - 0.1) + 0.4 = 0.5 <= 0.5, but a regrouped test
  // load - 0.1 > 0.5 - 0.4 would reject it (0.5 - 0.4 rounds below 0.1).
  mkp::Instance inst("rounding", {1, 2, 3}, {0.1, 0.1, 0.4}, {0.5});
  mkp::Solution s(inst);
  s.add(0);
  s.add(1);
  expect_same_swaps(s, "rounding");
  mkp::Solution swapped = s;
  EXPECT_EQ(swap_intensify(swapped), 1U);
  EXPECT_EQ(swapped.selected_items(), (std::vector<std::size_t>{1, 2}));
}

}  // namespace
}  // namespace pts::tabu
