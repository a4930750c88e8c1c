#pragma once
// The paper's composite move (§3.1, following Dammeyer–Voss):
//
//   Drop: pick the most saturated constraint i*, then among selected items
//         the one maximizing a_{i*,j} / c_j (most load per unit profit on the
//         bottleneck), skipping drop-tabu items. Repeat up to Nb_drop times.
//         Each row's items are sorted once by that key, the first time the
//         row is the bottleneck, so a drop walks the order to the first
//         selected item that is not tabu: no division per selected item.
//   Add : greedily re-add fitting items — highest slack-scaled profit
//         density first — skipping add-tabu items unless the aspiration
//         criterion fires (the add would push the objective above the best
//         value found so far). One candidate list per move serves every
//         pick of the phase; items that stop fitting are struck from it.
//         The list is read off the selection mask word by word.
//
// The kernel holds no search state: all memory lives in TabuList /
// FrequencyMemory, which makes each rule unit-testable in isolation. Its
// only state is the lazily sorted Drop orders, a function of the instance,
// so a kernel must not be shared between threads.

#include <cstdint>
#include <optional>
#include <vector>

#include "mkp/instance.hpp"
#include "mkp/solution.hpp"
#include "tabu/strategy.hpp"
#include "tabu/tabu_list.hpp"
#include "util/rng.hpp"

namespace pts::tabu {

struct MoveStats {
  std::uint64_t drops = 0;
  std::uint64_t adds = 0;
  std::uint64_t aspiration_hits = 0;    ///< tabu items that aspired and fit
  std::uint64_t tabu_blocked_adds = 0;  ///< tabu items skipped, fit untested
  std::uint64_t forced_drops = 0;  ///< drop fell back to a tabu item (all tabu)
};

struct MoveOutcome {
  std::size_t num_drops = 0;
  std::size_t num_adds = 0;
  std::vector<std::size_t> flipped;  ///< drop/add order; consumed by REM
};

class MoveKernel {
 public:
  explicit MoveKernel(const mkp::Instance& inst);

  /// One full Drop/Add move. `tenure` is the effective tabu tenure for this
  /// iteration (the engine may override the strategy's static value under
  /// reactive control). Newly dropped items become add-tabu; newly added
  /// items become drop-tabu (short tenure, tenure/2 + 1).
  MoveOutcome apply(mkp::Solution& x, TabuList& tabu, std::uint64_t iter,
                    const Strategy& strategy, std::size_t tenure, double best_value,
                    Rng& rng, MoveStats& stats) const;

  /// The Drop rule alone: the item to drop, or nullopt for an empty solution.
  /// If every selected item is drop-tabu, falls back to the rule ignoring
  /// tabu (sets `forced` when provided). Ties in a_{i*,j} / c_j go to the
  /// lowest index, and items with c_j <= 0 rank first (infinite key).
  [[nodiscard]] std::optional<std::size_t> select_drop(const mkp::Solution& x,
                                                       const TabuList& tabu,
                                                       std::uint64_t iter,
                                                       bool* forced = nullptr) const;

  /// The Add rule alone: the best fitting candidate honoring tabu status and
  /// aspiration, or nullopt when nothing can be added.
  ///
  /// Candidates are the unselected items in ascending index order (the
  /// Add phase of apply() keeps one such list for the whole phase; this
  /// call builds a fresh one). Each candidate's add-tabu status and the
  /// aspiration bound (value + c_j > best_value) are tested first, in O(1):
  /// a tabu item that does not aspire is skipped (counted in
  /// tabu_blocked_adds, whether or not it would fit) without touching its
  /// weights. The rest stream the column-major weight mirror through
  /// kernels::AddScan, which rejects hopeless items in O(1) when
  /// min_col_weight(j) > min_slack and otherwise fuses the fit test with
  /// the score. Within one Add phase loads only grow, so apply() strikes an
  /// item from its list the first time it fails the fit test.
  ///
  /// When `max_candidates > 0` (the strategy's nb_candidates) only that many
  /// candidates are evaluated, visited circularly from the first item >= a
  /// random offset drawn from `rng` — the paper's "number of neighbor
  /// solutions evaluated at each move" knob. "Evaluated" counts fully scored
  /// candidates only: items that fail the fit test or are tabu without
  /// aspiration do not consume budget. rng may be null only when
  /// max_candidates == 0.
  [[nodiscard]] std::optional<std::size_t> select_add(
      const mkp::Solution& x, const TabuList& tabu, std::uint64_t iter,
      double best_value, MoveStats* stats = nullptr, Rng* rng = nullptr,
      std::size_t max_candidates = 0) const;

 private:
  /// Row i's items by descending a_ij / c_j, ties in ascending index (a
  /// stable sort of the index order), built on first use.
  [[nodiscard]] const std::vector<std::size_t>& drop_order(std::size_t i) const;

  const mkp::Instance* inst_;
  mutable std::vector<std::vector<std::size_t>> drop_order_;  ///< one per row
};

}  // namespace pts::tabu
