#include "tabu/moves.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "mkp/generator.hpp"
#include "obs/counters.hpp"
#include "tabu/kernels.hpp"

namespace pts::tabu {
namespace {

// 1 constraint, 4 items; weights {4, 3, 2, 1}, profits {4, 6, 2, 3}.
// Drop rule key on the bottleneck row is a_j / c_j: {1.0, 0.5, 1.0, 0.333}.
// Ties break to the lowest index, so a full solution drops item 0 first.
mkp::Instance make_drop_inst() {
  return mkp::Instance("d", {4, 6, 2, 3}, {4, 3, 2, 1}, {10});
}

TEST(DropRule, PicksWorstLoadPerProfitOnBottleneck) {
  const auto inst = make_drop_inst();
  mkp::Solution s(inst);
  for (std::size_t j = 0; j < 4; ++j) s.add(j);  // load 10 == b
  TabuList tabu(4);
  MoveKernel kernel(inst);
  const auto victim = kernel.select_drop(s, tabu, 1);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 0U);
}

TEST(DropRule, RespectsDropTabu) {
  const auto inst = make_drop_inst();
  mkp::Solution s(inst);
  for (std::size_t j = 0; j < 4; ++j) s.add(j);
  TabuList tabu(4);
  tabu.forbid_drop(0, 0, 10);
  MoveKernel kernel(inst);
  const auto victim = kernel.select_drop(s, tabu, 1);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 2U);  // next-worst ratio 1.0 at index 2
}

TEST(DropRule, FallsBackWhenEverythingTabu) {
  const auto inst = make_drop_inst();
  mkp::Solution s(inst);
  s.add(0);
  s.add(1);
  TabuList tabu(4);
  tabu.forbid_drop(0, 0, 10);
  tabu.forbid_drop(1, 0, 10);
  MoveKernel kernel(inst);
  bool forced = false;
  const auto victim = kernel.select_drop(s, tabu, 1, &forced);
  ASSERT_TRUE(victim.has_value());
  EXPECT_TRUE(forced);
  EXPECT_EQ(*victim, 0U);
}

TEST(DropRule, EmptySolutionHasNothingToDrop) {
  const auto inst = make_drop_inst();
  mkp::Solution s(inst);
  TabuList tabu(4);
  MoveKernel kernel(inst);
  EXPECT_FALSE(kernel.select_drop(s, tabu, 1).has_value());
}

TEST(DropRule, TargetsMostSaturatedConstraint) {
  // Two constraints; constraint 1 is tighter after adding both items.
  // a0 = {1, 1}, b0 = 10 (slack 8); a1 = {5, 1}, b1 = 7 (slack 1).
  // On row 1 the ratios a/c are {5/1, 1/10}: item 0 must go.
  mkp::Instance inst("two", {1, 10}, {1, 1, 5, 1}, {10, 7});
  mkp::Solution s(inst);
  s.add(0);
  s.add(1);
  TabuList tabu(2);
  MoveKernel kernel(inst);
  const auto victim = kernel.select_drop(s, tabu, 1);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 0U);
}

TEST(AddRule, PicksBestFittingItem) {
  const auto inst = make_drop_inst();
  mkp::Solution s(inst);
  TabuList tabu(4);
  MoveKernel kernel(inst);
  const auto pick = kernel.select_add(s, tabu, 1, 100.0);
  ASSERT_TRUE(pick.has_value());
  // Score c_j / (a_j / slack) with slack 10: {10, 20, 10, 30}.
  EXPECT_EQ(*pick, 3U);
}

TEST(AddRule, SkipsNonFittingItems) {
  const auto inst = make_drop_inst();
  mkp::Solution s(inst);
  s.add(0);
  s.add(1);
  s.add(2);  // load 9, slack 1: only item 3 (w=1) fits
  TabuList tabu(4);
  MoveKernel kernel(inst);
  const auto pick = kernel.select_add(s, tabu, 1, 100.0);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 3U);
}

TEST(AddRule, RespectsAddTabu) {
  const auto inst = make_drop_inst();
  mkp::Solution s(inst);
  TabuList tabu(4);
  tabu.forbid_add(3, 0, 10);
  MoveKernel kernel(inst);
  MoveStats stats;
  const auto pick = kernel.select_add(s, tabu, 1, /*best_value=*/1000.0, &stats);
  ASSERT_TRUE(pick.has_value());
  EXPECT_NE(*pick, 3U);
  EXPECT_EQ(stats.tabu_blocked_adds, 1U);
}

TEST(AddRule, AspirationOverridesTabu) {
  const auto inst = make_drop_inst();
  mkp::Solution s(inst);
  TabuList tabu(4);
  for (std::size_t j = 0; j < 4; ++j) tabu.forbid_add(j, 0, 10);
  MoveKernel kernel(inst);
  MoveStats stats;
  // best_value 0: any add beats it, so aspiration admits every candidate.
  const auto pick = kernel.select_add(s, tabu, 1, 0.0, &stats);
  ASSERT_TRUE(pick.has_value());
  EXPECT_GT(stats.aspiration_hits, 0U);
}

TEST(AddRule, NothingFitsReturnsNull) {
  mkp::Instance inst("full", {1, 1}, {10, 10}, {5});
  mkp::Solution s(inst);
  TabuList tabu(2);
  MoveKernel kernel(inst);
  EXPECT_FALSE(kernel.select_add(s, tabu, 1, 100.0).has_value());
}

TEST(AddScore, ZeroWhenConstraintSaturated) {
  // Item 0 fills the only constraint (slack 0): item 1 cannot fit, and the
  // scalar reference reports no fit with a zero score.
  mkp::Instance sat("sat", {5, 5}, {3, 3}, {3});
  mkp::Solution t(sat);
  t.add(0);
  const auto fs = kernels::fit_and_score_scalar(t, 1);
  EXPECT_FALSE(fs.fit);
  EXPECT_DOUBLE_EQ(fs.score, 0.0);
}

TEST(ApplyMove, FillsToMaximalAfterDrops) {
  const auto inst = mkp::generate_gk({.num_items = 40, .num_constraints = 5}, 3);
  mkp::Solution s(inst);
  TabuList tabu(40);
  MoveKernel kernel(inst);
  Rng rng(1);
  MoveStats stats;
  Strategy strategy;
  strategy.nb_drop = 2;
  const auto outcome = kernel.apply(s, tabu, 1, strategy, strategy.tabu_tenure,
                                    /*best_value=*/1e18, rng, stats);
  EXPECT_GT(outcome.num_adds, 0U);
  EXPECT_TRUE(s.is_feasible());
  // Maximality: nothing non-tabu fits.
  for (std::size_t j = 0; j < inst.num_items(); ++j) {
    if (!s.contains(j) && !tabu.is_add_tabu(j, 1)) {
      EXPECT_FALSE(s.fits(j)) << "item " << j;
    }
  }
}

TEST(ApplyMove, DropsBoundedByNbDrop) {
  const auto inst = mkp::generate_gk({.num_items = 40, .num_constraints = 5}, 4);
  mkp::Solution s(inst);
  TabuList tabu(40);
  MoveKernel kernel(inst);
  Rng rng(2);
  MoveStats stats;
  Strategy strategy;
  strategy.nb_drop = 3;
  // First fill the solution.
  (void)kernel.apply(s, tabu, 1, strategy, 0, 1e18, rng, stats);
  for (int iter = 2; iter < 30; ++iter) {
    const auto outcome =
        kernel.apply(s, tabu, iter, strategy, strategy.tabu_tenure, 1e18, rng, stats);
    EXPECT_LE(outcome.num_drops, 3U);
  }
}

TEST(ApplyMove, DroppedItemsBecomeAddTabu) {
  const auto inst = mkp::generate_gk({.num_items = 30, .num_constraints = 3}, 5);
  mkp::Solution s(inst);
  TabuList tabu(30);
  MoveKernel kernel(inst);
  Rng rng(3);
  MoveStats stats;
  Strategy strategy;
  strategy.tabu_tenure = 9;
  (void)kernel.apply(s, tabu, 1, strategy, 9, 1e18, rng, stats);  // fill
  const auto outcome = kernel.apply(s, tabu, 2, strategy, 9, 1e18, rng, stats);
  ASSERT_GT(outcome.num_drops, 0U);
  const std::size_t dropped = outcome.flipped.front();
  EXPECT_TRUE(tabu.is_add_tabu(dropped, 3));
}

TEST(ApplyMove, FlippedRecordsDropsThenAdds) {
  const auto inst = mkp::generate_gk({.num_items = 30, .num_constraints = 3}, 6);
  mkp::Solution s(inst);
  TabuList tabu(30);
  MoveKernel kernel(inst);
  Rng rng(4);
  MoveStats stats;
  Strategy strategy;
  (void)kernel.apply(s, tabu, 1, strategy, 7, 1e18, rng, stats);
  const auto outcome = kernel.apply(s, tabu, 2, strategy, 7, 1e18, rng, stats);
  EXPECT_EQ(outcome.flipped.size(), outcome.num_drops + outcome.num_adds);
}

TEST(ApplyMove, AddPhaseSeesExactlyTheUnselectedItemsAcrossWordBoundaries) {
  // Unit weights and capacity n: from the empty solution the Add phase must
  // add all n items (and no pad bit of the mask's last word); with one item
  // missing, select_add must pick exactly that item.
  for (const std::size_t n : {63U, 64U, 65U, 130U}) {
    std::vector<double> profits(n);
    for (std::size_t j = 0; j < n; ++j) profits[j] = 1.0 + static_cast<double>(j % 7);
    const mkp::Instance inst("words", std::move(profits), std::vector<double>(n, 1.0),
                             {static_cast<double>(n)});
    mkp::Solution s(inst);
    TabuList tabu(n);
    const MoveKernel kernel(inst);
    Rng rng(n);
    MoveStats stats;
    const auto outcome = kernel.apply(s, tabu, 1, Strategy{}, 7, 1e18, rng, stats);
    EXPECT_EQ(outcome.num_drops, 0U) << "n " << n;
    EXPECT_EQ(outcome.num_adds, n) << "n " << n;
    EXPECT_EQ(s.cardinality(), n) << "n " << n;
    for (const std::size_t j : outcome.flipped) EXPECT_LT(j, n) << "n " << n;

    // Every candidate the scan visits is either pruned or swept, so the two
    // counters count the list: empty when all items are in, then one item.
    obs::Counters counters;
    const obs::CounterScope scope(&counters);
    const auto visited = [&] {
      return counters[obs::Counter::kFitScoreCalls] +
             counters[obs::Counter::kPruneEarlyOuts];
    };
    EXPECT_FALSE(kernel.select_add(s, tabu, 2, 1e18).has_value()) << "n " << n;
    if (obs::kTelemetryCompiled) {
      EXPECT_EQ(visited(), 0U) << "n " << n;
    }
    s.drop(n - 1);
    const auto last = kernel.select_add(s, tabu, 2, 1e18);
    ASSERT_TRUE(last.has_value()) << "n " << n;
    EXPECT_EQ(*last, n - 1) << "n " << n;
    if (obs::kTelemetryCompiled) {
      EXPECT_EQ(visited(), 1U) << "n " << n;
    }
  }
}

}  // namespace
}  // namespace pts::tabu
