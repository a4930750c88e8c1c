// Equivalence and soundness of the cache-aware Add-step kernels: the
// dispatched fit_and_score must agree with the scalar reference
// (fit_and_score_scalar) and with Solution::fits everywhere the search can
// observe, its score must match a direct two-pass formula, the O(1) prune
// must never reject a fitting item, and the column-mirror add/drop update
// path must keep incremental state exact.
#include "tabu/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "mkp/generator.hpp"
#include "tabu/moves.hpp"
#include "util/rng.hpp"

namespace pts::tabu {
namespace {

struct Shape {
  std::size_t n;
  std::size_t m;
};

// The ISSUE-mandated grid: n in {50, 250, 500}, m in {5, 25}.
const std::vector<Shape>& shapes() {
  static const std::vector<Shape> kShapes = {{50, 5},  {50, 25},  {250, 5},
                                             {250, 25}, {500, 5}, {500, 25}};
  return kShapes;
}

// c_j / sum_i a_ij / max(slack_i, floor), one division per weight: the
// slack-scaled profit density written out directly, with none of the
// kernel's reciprocal or accumulation-order shortcuts. Fitting items only.
double two_pass_score(const mkp::Solution& x, std::size_t j) {
  const auto& inst = x.instance();
  double scaled_weight = 0.0;
  for (std::size_t i = 0; i < inst.num_constraints(); ++i) {
    const double w = inst.weight(i, j);
    if (w == 0.0) continue;
    scaled_weight += w / std::max(x.slack(i), kernels::kSlackFloor);
  }
  if (scaled_weight == 0.0) return std::numeric_limits<double>::infinity();
  return inst.profit(j) / scaled_weight;
}

// Walk the solution through random flips so the kernels see empty, partial,
// saturated and infeasible states.
template <typename Check>
void for_random_states(std::uint64_t seed, const Check& check) {
  for (const auto& shape : shapes()) {
    const auto inst =
        mkp::generate_gk({.num_items = shape.n, .num_constraints = shape.m}, seed);
    mkp::Solution x(inst);
    Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
    for (int step = 0; step < 400; ++step) {
      x.flip(rng.index(inst.num_items()));
      if (step % 20 != 0) continue;
      check(inst, x);
    }
  }
}

TEST(FusedKernel, FitMatchesScalarPathOnRandomStates) {
  for_random_states(1, [](const mkp::Instance& inst, const mkp::Solution& x) {
    for (std::size_t j = 0; j < inst.num_items(); ++j) {
      if (x.contains(j)) continue;
      const auto fused = kernels::fit_and_score(x, j);
      const auto ref = kernels::fit_and_score_scalar(x, j);
      ASSERT_EQ(fused.fit, x.fits(j)) << inst.name() << " item " << j;
      ASSERT_EQ(fused.fit, ref.fit) << inst.name() << " item " << j;
    }
  });
}

TEST(FusedKernel, ScoreMatchesAddScoreWhenFitting) {
  for_random_states(2, [](const mkp::Instance& inst, const mkp::Solution& x) {
    for (std::size_t j = 0; j < inst.num_items(); ++j) {
      if (x.contains(j)) continue;
      const auto fused = kernels::fit_and_score(x, j);
      if (!fused.fit) continue;
      const double scalar = kernels::fit_and_score_scalar(x, j).score;
      // The fused kernel's reciprocal-multiply + unrolled accumulation may
      // differ from a direct division chain by ulps; the contract demands 1e-9.
      ASSERT_NEAR(fused.score, scalar, 1e-9) << inst.name() << " item " << j;
      ASSERT_NEAR(fused.score, two_pass_score(x, j), 1e-9)
          << inst.name() << " item " << j;
    }
  });
}

TEST(FusedKernel, PruneNeverRejectsAFittingItem) {
  for_random_states(3, [](const mkp::Instance& inst, const mkp::Solution& x) {
    for (std::size_t j = 0; j < inst.num_items(); ++j) {
      if (x.contains(j)) continue;
      if (kernels::prune_add_candidate(x, j)) {
        ASSERT_FALSE(x.fits(j)) << inst.name() << " item " << j;
      }
    }
  });
}

TEST(FusedKernel, SelectAddUnchangedByKernelSwap) {
  // Replays a plain select_add scan (scalar reference kernel, per-bit mask
  // test) and demands the production select_add picks the same item.
  for (const auto& shape : shapes()) {
    const auto inst =
        mkp::generate_gk({.num_items = shape.n, .num_constraints = shape.m}, 4);
    const MoveKernel kernel(inst);
    TabuList tabu(inst.num_items());
    mkp::Solution x(inst);
    Rng rng(17);
    for (std::uint64_t iter = 1; iter <= 40; ++iter) {
      x.flip(rng.index(inst.num_items()));
      if (rng.index(3) == 0) tabu.forbid_add(rng.index(inst.num_items()), iter, 5);

      std::size_t best = inst.num_items();
      double best_key = -1.0;
      for (std::size_t j = 0; j < inst.num_items(); ++j) {
        if (x.contains(j)) continue;
        const auto ref = kernels::fit_and_score_scalar(x, j);
        if (!ref.fit) continue;
        if (tabu.is_add_tabu(j, iter) && !(x.value() + inst.profit(j) > 1e17)) continue;
        if (ref.score > best_key) {
          best_key = ref.score;
          best = j;
        }
      }
      const auto picked = kernel.select_add(x, tabu, iter, 1e17);
      if (best == inst.num_items()) {
        EXPECT_FALSE(picked.has_value());
      } else {
        ASSERT_TRUE(picked.has_value());
        EXPECT_EQ(*picked, best) << inst.name() << " iter " << iter;
      }
    }
  }
}

TEST(ColumnMirror, ConsistencyHoldsAfterTenThousandFlips) {
  for (const auto& shape : shapes()) {
    const auto inst =
        mkp::generate_gk({.num_items = shape.n, .num_constraints = shape.m}, 5);
    mkp::Solution x(inst);
    Rng rng(0xC01DULL + shape.n * 31 + shape.m);
    for (int step = 0; step < 10000; ++step) {
      x.flip(rng.index(inst.num_items()));
    }
    EXPECT_TRUE(x.check_consistency()) << inst.name();
  }
}

TEST(CandidateBudget, PrunedAndTabuItemsConsumeNoBudget) {
  // 1 constraint, 6 items, capacity 10. Item 0 can never fit (weight 20 >
  // capacity), item 1 is add-tabu; both must be skipped WITHOUT consuming
  // the max_candidates budget, so a budget of 1 still reaches item 2.
  mkp::Instance inst("budget", {5, 9, 3, 8, 8, 8}, {20, 4, 2, 1, 1, 1}, {10});
  mkp::Solution x(inst);
  TabuList tabu(6);
  tabu.forbid_add(1, 0, 100);
  const MoveKernel kernel(inst);

  // Find a seed whose first index(6) draw is 0 so the circular scan starts
  // at item 0 deterministically.
  std::uint64_t seed = 0;
  while (Rng(seed).index(6) != 0) ++seed;

  Rng rng(seed);
  MoveStats stats;
  const auto pick =
      kernel.select_add(x, tabu, /*iter=*/1, /*best_value=*/1e18, &stats, &rng,
                        /*max_candidates=*/1);
  ASSERT_TRUE(pick.has_value());
  // Item 0: pruned in O(1) (min weight 20 > slack 10) — no budget. Item 1:
  // fits but tabu without aspiration — no budget. Item 2 is the first fully
  // scored candidate; the budget of one stops the scan there even though
  // items 3..5 score higher (profit 8 over weight 1).
  EXPECT_EQ(*pick, 2U);
  EXPECT_EQ(stats.tabu_blocked_adds, 1U);

  // Budget 2 admits one more scored candidate: item 3 wins.
  Rng rng2(seed);
  MoveStats stats2;
  const auto pick2 = kernel.select_add(x, tabu, 1, 1e18, &stats2, &rng2, 2);
  ASSERT_TRUE(pick2.has_value());
  EXPECT_EQ(*pick2, 3U);
}

TEST(CandidateBudget, ZeroBudgetScansEverything) {
  mkp::Instance inst("all", {5, 9, 3, 8}, {2, 4, 2, 1}, {10});
  mkp::Solution x(inst);
  TabuList tabu(4);
  const MoveKernel kernel(inst);
  const auto pick = kernel.select_add(x, tabu, 1, 1e18);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 3U);  // global best score, budget unlimited
}

}  // namespace
}  // namespace pts::tabu
