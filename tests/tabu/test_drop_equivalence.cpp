// MoveKernel::select_drop walks a presorted per-row order; the linear scan
// it replaced visited every selected item and kept the first one with the
// largest a_{i*,j} / c_j. The two must pick the same item and report the
// same forced flag on every state: tied keys, zero-profit items (infinite
// keys), fractional weights and the all-tabu fallback included.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mkp/generator.hpp"
#include "tabu/moves.hpp"
#include "util/rng.hpp"

namespace pts::tabu {
namespace {

std::optional<std::size_t> reference_select_drop(const mkp::Solution& x,
                                                 const TabuList& tabu, std::uint64_t iter,
                                                 bool& forced) {
  forced = false;
  if (x.cardinality() == 0) return std::nullopt;
  const auto& inst = x.instance();
  const auto row = inst.weights_row(x.most_saturated_constraint());
  const std::size_t n = inst.num_items();
  auto pick = [&](bool honor_tabu) -> std::optional<std::size_t> {
    std::size_t best = n;
    double best_key = -1.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (!x.contains(j)) continue;
      if (honor_tabu && tabu.is_drop_tabu(j, iter)) continue;
      const double profit = inst.profit(j);
      const double key =
          profit > 0.0 ? row[j] / profit : std::numeric_limits<double>::infinity();
      if (key > best_key) {
        best_key = key;
        best = j;
      }
    }
    return best < n ? std::optional<std::size_t>(best) : std::nullopt;
  };
  if (auto choice = pick(true)) return choice;
  forced = true;
  return pick(false);
}

/// Random flips and drop-tabu marks; one kernel serves the whole walk, so
/// its lazily built orders are reused as the bottleneck row moves.
void expect_lockstep(const mkp::Instance& inst, std::uint64_t seed,
                     const std::string& label) {
  const std::size_t n = inst.num_items();
  const MoveKernel kernel(inst);
  mkp::Solution x(inst);
  TabuList tabu(n);
  Rng rng(seed);
  for (std::uint64_t iter = 1; iter <= 600; ++iter) {
    x.flip(rng.index(n));
    const std::size_t marks = rng.index(4);
    for (std::size_t k = 0; k < marks; ++k) {
      tabu.forbid_drop(rng.index(n), iter, 1 + rng.index(40));
    }
    bool want_forced = false;
    const auto want = reference_select_drop(x, tabu, iter, want_forced);
    bool got_forced = true;
    const auto got = kernel.select_drop(x, tabu, iter, &got_forced);
    ASSERT_EQ(got, want) << label << " iter " << iter;
    ASSERT_EQ(got_forced, want_forced) << label << " iter " << iter;
  }
}

TEST(DropEquivalence, MatchesLinearScanOnGkShapes) {
  struct Shape {
    std::size_t n, m;
  };
  for (const Shape shape : {Shape{20, 2}, Shape{63, 5}, Shape{64, 5}, Shape{65, 5},
                            Shape{130, 10}, Shape{500, 25}}) {
    const auto inst = mkp::generate_gk(
        {.num_items = shape.n, .num_constraints = shape.m}, 300 + shape.n + shape.m);
    expect_lockstep(inst, shape.n * 7 + shape.m,
                    "gk " + std::to_string(shape.n) + "x" + std::to_string(shape.m));
  }
}

/// Profits and weights from small sets, so a_ij / c_j ties everywhere;
/// every fifth item has zero profit (an infinite key, tied with the other
/// zero-profit items); weights are fractional.
mkp::Instance tied_instance(std::size_t n, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> profits(n);
  for (std::size_t j = 0; j < n; ++j) {
    profits[j] = j % 5 == 4 ? 0.0 : static_cast<double>(1 + rng.index(3));
  }
  std::vector<double> weights(n * m);
  for (auto& w : weights) w = 0.5 * static_cast<double>(rng.index(4)) + 0.25;
  std::vector<double> caps(m);
  for (std::size_t i = 0; i < m; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < n; ++j) row += weights[i * n + j];
    caps[i] = 0.5 * row;
  }
  return mkp::Instance("tied", std::move(profits), std::move(weights), std::move(caps));
}

TEST(DropEquivalence, MatchesLinearScanWithTiesZeroProfitsAndFractionalWeights) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto inst = tied_instance(30 + 11 * seed, 1 + seed % 4, seed);
    expect_lockstep(inst, seed, "tied seed " + std::to_string(seed));
  }
}

TEST(DropEquivalence, AllTabuFallsBackToTheUntabooedRule) {
  const auto inst = tied_instance(70, 3, 5);
  const MoveKernel kernel(inst);
  mkp::Solution x(inst);
  TabuList tabu(inst.num_items());
  for (std::size_t j = 0; j < inst.num_items(); j += 2) x.add(j);
  for (std::size_t j = 0; j < inst.num_items(); ++j) tabu.forbid_drop(j, 0, 100);
  bool want_forced = false;
  const auto want = reference_select_drop(x, tabu, 1, want_forced);
  bool got_forced = false;
  const auto got = kernel.select_drop(x, tabu, 1, &got_forced);
  ASSERT_TRUE(want.has_value());
  EXPECT_TRUE(want_forced);
  EXPECT_TRUE(got_forced);
  EXPECT_EQ(got, want);
  // Zero-profit item 4 is selected and has an infinite key: it goes first.
  EXPECT_EQ(*got, 4U);
}

TEST(DropEquivalence, TiedInfiniteKeysGoToTheLowestIndex) {
  // Items 1 and 3 have zero profit; both keys are infinite, so the lower
  // index wins whatever the weights; once 1 is tabu, 3 goes.
  mkp::Instance inst("inf", {2, 0, 1, 0}, {0.5, 0.25, 3.0, 0.75}, {4.0});
  mkp::Solution x(inst);
  for (std::size_t j = 0; j < 4; ++j) x.add(j);
  TabuList tabu(4);
  const MoveKernel kernel(inst);
  EXPECT_EQ(kernel.select_drop(x, tabu, 1), std::optional<std::size_t>(1));
  tabu.forbid_drop(1, 0, 10);
  EXPECT_EQ(kernel.select_drop(x, tabu, 1), std::optional<std::size_t>(3));
}

}  // namespace
}  // namespace pts::tabu
