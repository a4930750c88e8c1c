#pragma once
// A "strategy" in the paper's sense (§2, §4.2): the parameter set the master
// hands a slave that determines its search behaviour. The three tuned values
// are exactly the paper's: tabu list size, maximum consecutive drops, and
// local-search patience.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "util/cancel.hpp"

namespace pts::tabu {

struct Strategy {
  std::size_t tabu_tenure = 7;  ///< Lt_length: iterations a dropped item stays tabu
  std::size_t nb_drop = 1;      ///< max consecutive drops performed in one move
  std::size_t nb_local = 50;    ///< iterations without improving X* before intensifying
  /// The paper's fourth example of a strategy element: "the number of
  /// neighbor solutions evaluated at each move". 0 evaluates every fitting
  /// candidate; k > 0 evaluates only k, scanned from a random offset —
  /// cheaper and noisier moves.
  std::size_t nb_candidates = 0;

  bool operator==(const Strategy&) const = default;

  [[nodiscard]] std::string to_string() const {
    return "{tenure=" + std::to_string(tabu_tenure) +
           ", nb_drop=" + std::to_string(nb_drop) +
           ", nb_local=" + std::to_string(nb_local) +
           (nb_candidates ? ", nb_cand=" + std::to_string(nb_candidates) : "") + "}";
  }
};

/// Bounds within which strategies are generated and retuned. The master's
/// SGP clamps every adjustment into this box.
struct StrategyBounds {
  std::size_t min_tenure = 3;
  std::size_t max_tenure = 60;
  std::size_t min_drop = 1;
  std::size_t max_drop = 8;
  std::size_t min_local = 10;
  std::size_t max_local = 200;
  /// Candidate-sampling draw for random strategies: with probability 1/2 a
  /// strategy evaluates all candidates (0), else k in [min, max].
  std::size_t min_candidates = 8;
  std::size_t max_candidates = 64;
};

enum class IntensificationKind : std::uint8_t {
  kNone,                   ///< ablation baseline: skip the phase entirely
  kSwap,                   ///< §3.2 "intensification by swapping components"
  kStrategicOscillation,   ///< §3.2 depth-limited infeasible excursion
};

[[nodiscard]] inline const char* to_string(IntensificationKind kind) {
  switch (kind) {
    case IntensificationKind::kNone:
      return "none";
    case IntensificationKind::kSwap:
      return "swap";
    case IntensificationKind::kStrategicOscillation:
      return "oscillation";
  }
  return "unknown";
}

enum class TenureControl : std::uint8_t {
  kFixed,               ///< static tenure from the strategy (paper's slaves)
  kReverseElimination,  ///< REM running list (Dammeyer–Voss comparator)
  kReactive,            ///< Battiti–Tecchiolli hash-reaction comparator
};

/// Everything a single sequential TS run needs besides the instance, the
/// initial solution and an Rng.
struct TsParams {
  Strategy strategy;
  std::size_t nb_div = 4;   ///< outer loop count (diversification rounds)
  std::size_t nb_int = 3;   ///< intensifications per diversification round
  std::size_t b_best = 5;   ///< elite pool capacity (B best solutions)
  IntensificationKind intensification = IntensificationKind::kSwap;
  std::size_t oscillation_depth = 5;  ///< max adds beyond feasibility (§3.2)
  TenureControl tenure_control = TenureControl::kFixed;

  // Long-term-memory diversification thresholds (§3.3): items at 1 more than
  // `high_frequency` of iterations are forced out; less than `low_frequency`
  // forced in. Forced components stay tabu for `diversify_hold` iterations.
  double high_frequency = 0.8;
  double low_frequency = 0.2;
  std::size_t diversify_hold = 25;

  // Budget: the run stops at whichever limit trips first (0 = unlimited,
  // but at least one of max_moves / time must bound the run).
  std::uint64_t max_moves = 100'000;
  double time_limit_seconds = 0.0;
  std::optional<double> target_value;  ///< stop early on reaching this

  /// Cooperative stop (external cancel and/or a job deadline), polled once
  /// per inner-loop move. The default token never stops and costs one null
  /// check, so runs without a service above them pay nothing.
  CancelToken cancel;

  /// When true (default) the Nb_div outer loop restarts until the budget is
  /// exhausted, so a fixed move budget is actually consumed; when false the
  /// run ends after exactly Nb_div diversification rounds (the literal
  /// Figure-1 shape, used by the structural trace tests).
  bool run_to_budget = true;
};

}  // namespace pts::tabu
