// Pinned fixed-seed trajectories. Every constant below was captured from a
// run of the search and must not move: the Add-phase candidate list, the
// swap search order and the SIMD dispatch default are all required to leave
// a fixed-seed trajectory bit-identical, and this is the gate that says so.
// A deliberate behaviour change re-captures the constants and says why.
//
// Each engine case runs under the scalar kernel and under the best vector
// kind this CPU supports; both must reproduce the same pinned figures.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "mkp/generator.hpp"
#include "parallel/runner.hpp"
#include "tabu/engine.hpp"
#include "util/simd.hpp"

namespace pts::tabu {
namespace {

class DispatchGuard {
 public:
  DispatchGuard() : saved_(simd::active()) {}
  ~DispatchGuard() { simd::set_active(saved_); }

 private:
  simd::Kind saved_;
};

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

std::uint64_t fnv_mix(std::uint64_t hash, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xffU;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t bits_hash(const mkp::Solution& x) {
  std::uint64_t hash = kFnvOffset;
  for (const std::size_t j : x.selected_items()) hash = fnv_mix(hash, j);
  return hash;
}

std::uint64_t improvements_hash(
    const std::vector<std::pair<std::uint64_t, double>>& improvements) {
  std::uint64_t hash = kFnvOffset;
  for (const auto& [move, value] : improvements) {
    hash = fnv_mix(hash, move);
    hash = fnv_mix(hash, std::bit_cast<std::uint64_t>(value));
  }
  return hash;
}

struct EngineCase {
  std::string name;
  std::size_t n, m;
  std::uint64_t seed;
  IntensificationKind intensification;
  std::size_t nb_candidates, nb_drop, tenure;
  std::uint64_t max_moves;
  // Pinned figures.
  std::uint64_t moves;
  double best_value;
  std::uint64_t best_hash;
  std::size_t num_improvements;
  std::uint64_t improvements_hash;
  std::uint64_t adds, drops, aspiration_hits, forced_drops, swaps;
};

TsResult run_case(const mkp::Instance& inst, const EngineCase& c) {
  TsParams params;
  params.strategy.tabu_tenure = c.tenure;
  params.strategy.nb_drop = c.nb_drop;
  params.strategy.nb_local = 25;
  params.strategy.nb_candidates = c.nb_candidates;
  params.intensification = c.intensification;
  params.max_moves = c.max_moves;
  Rng rng(c.seed);
  return tabu_search_from_scratch(inst, params, rng);
}

void expect_pinned(const TsResult& r, const EngineCase& c) {
  // On any mismatch, the row to pin if the change is deliberate.
  const std::string row =
      std::to_string(r.moves) + ", " + std::to_string(r.best_value) + ", " +
      std::to_string(bits_hash(r.best)) + "ULL, " +
      std::to_string(r.improvements.size()) + ", " +
      std::to_string(improvements_hash(r.improvements)) + "ULL, " +
      std::to_string(r.move_stats.adds) + ", " + std::to_string(r.move_stats.drops) +
      ", " + std::to_string(r.move_stats.aspiration_hits) + ", " +
      std::to_string(r.move_stats.forced_drops) + ", " +
      std::to_string(r.intensify_stats.swaps);
  SCOPED_TRACE("actual: " + row);
  EXPECT_EQ(r.moves, c.moves);
  EXPECT_EQ(r.best_value, c.best_value);
  EXPECT_EQ(bits_hash(r.best), c.best_hash);
  EXPECT_EQ(r.improvements.size(), c.num_improvements);
  EXPECT_EQ(improvements_hash(r.improvements), c.improvements_hash);
  EXPECT_EQ(r.move_stats.adds, c.adds);
  EXPECT_EQ(r.move_stats.drops, c.drops);
  EXPECT_EQ(r.move_stats.aspiration_hits, c.aspiration_hits);
  EXPECT_EQ(r.move_stats.forced_drops, c.forced_drops);
  EXPECT_EQ(r.intensify_stats.swaps, c.swaps);
}

constexpr auto kSwap = IntensificationKind::kSwap;
constexpr auto kOsc = IntensificationKind::kStrategicOscillation;

const std::vector<EngineCase>& engine_cases() {
  static const std::vector<EngineCase> cases = {
      {"gk100x5_swap_full_drop1", 100, 5, 11, kSwap, 0, 1, 7, 3000,
       3000, 24360.0, 12329383364567994974ULL, 4, 6824803119724672576ULL, 3135, 3000, 1, 147, 1821},
      {"gk100x5_osc_cand8_drop4", 100, 5, 12, kOsc, 8, 4, 7, 3000,
       3000, 23398.0, 14548932145419017542ULL, 6, 10818916225470025891ULL, 7433, 7443, 2, 472, 0},
      // A long tenure pins most of the selection: many forced drops.
      {"gk100x5_swap_tenure20_drop2", 100, 5, 13, kSwap, 0, 2, 20, 3000,
       3000, 23381.0, 12399668636070481753ULL, 8, 16869419721831726879ULL, 4540, 4488, 0, 668, 945},
      {"gk250x10_swap_cand8_drop4", 250, 10, 21, kSwap, 8, 4, 10, 3000,
       3000, 57100.0, 4836762804151358384ULL, 6, 1780840424615309631ULL, 7499, 7420, 1, 662, 4870},
      {"gk250x10_osc_full_drop1", 250, 10, 22, kOsc, 0, 1, 10, 3000,
       3000, 57408.0, 6999984839514756432ULL, 13, 9754059547369346831ULL, 3291, 3000, 5, 204, 0},
      {"gk500x25_swap_full_drop4", 500, 25, 31, kSwap, 0, 4, 15, 1200,
       1200, 113843.0, 14708664377618577093ULL, 9, 10340437532845604665ULL, 3027, 2974, 13, 298, 4392},
      {"gk500x25_osc_cand8_drop1", 500, 25, 32, kOsc, 8, 1, 15, 1200,
       1200, 113181.0, 14259485228158195188ULL, 5, 977590926698648638ULL, 1335, 1200, 0, 72, 0},
  };
  return cases;
}

TEST(PinnedTrajectory, EngineRunsMatchPinnedFigures) {
  DispatchGuard guard;
  std::vector<simd::Kind> kinds = {simd::Kind::kScalar};
  if (simd::best_supported() != simd::Kind::kScalar) {
    kinds.push_back(simd::best_supported());
  }
  for (const auto& c : engine_cases()) {
    const auto inst =
        mkp::generate_gk({.num_items = c.n, .num_constraints = c.m}, c.seed);
    for (const simd::Kind kind : kinds) {
      ASSERT_TRUE(simd::set_active(kind));
      SCOPED_TRACE(c.name + " simd=" + simd::to_string(kind));
      const auto result = run_case(inst, c);
      expect_pinned(result, c);
    }
  }
}

TEST(PinnedTrajectory, PinnedCasesCoverAspirationAndForcedDrops) {
  // The pinned set must exercise the tabu-override paths, else a change to
  // them could not move any pinned figure.
  std::uint64_t aspiration = 0, forced = 0;
  for (const auto& c : engine_cases()) {
    aspiration += c.aspiration_hits;
    forced += c.forced_drops;
  }
  EXPECT_GT(aspiration, 0U);
  EXPECT_GT(forced, 0U);
}

TEST(PinnedTrajectory, ThreadBackendMixedIntensification) {
  const auto inst = mkp::generate_gk({.num_items = 100, .num_constraints = 5}, 41);
  parallel::ParallelConfig config;
  config.num_slaves = 3;
  config.search_iterations = 4;
  config.work_per_slave_round = 600;
  config.base_params.strategy.nb_local = 15;
  config.mix_intensification = true;
  config.backend = parallel::Backend::kThread;
  config.seed = 41;
  const auto result = parallel::run_parallel_tabu_search(inst, config);
  ASSERT_TRUE(result.status.ok());
  SCOPED_TRACE("actual: " + std::to_string(result.total_moves) + ", " +
               std::to_string(result.best_value) + ", " +
               std::to_string(bits_hash(result.best)) + "ULL");
  EXPECT_EQ(result.total_moves, 3280U);
  EXPECT_EQ(result.best_value, 22954.0);
  EXPECT_EQ(bits_hash(result.best), 5988520360678584218ULL);
}

}  // namespace
}  // namespace pts::tabu
