#include "tabu/moves.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/counters.hpp"
#include "tabu/kernels.hpp"
#include "util/check.hpp"

namespace pts::tabu {

double MoveKernel::add_score(const mkp::Solution& x, std::size_t j) const {
  const auto col = inst_->weights_col(j);
  const auto inv = x.inv_slack();
  const std::size_t m = col.size();
  double scaled_weight = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double w = col[i];
    if (w == 0.0) continue;
    if (x.slack(i) <= 0.0) return 0.0;  // cannot fit anyway
    // Multiply by the precomputed reciprocal as kernels::fit_and_score does;
    // the fused kernel's unrolled accumulation may differ from this single
    // chain by ulps (see kernels.hpp), never more.
    scaled_weight += w * inv[i];
  }
  if (scaled_weight == 0.0) return std::numeric_limits<double>::infinity();
  return inst_->profit(j) / scaled_weight;
}

std::optional<std::size_t> MoveKernel::select_drop(const mkp::Solution& x,
                                                   const TabuList& tabu,
                                                   std::uint64_t iter,
                                                   bool* forced) const {
  if (forced) *forced = false;
  if (x.cardinality() == 0) return std::nullopt;

  const std::size_t bottleneck = x.most_saturated_constraint();
  const auto row = inst_->weights_row(bottleneck);
  const std::size_t n = inst_->num_items();

  auto pick = [&](bool honor_tabu) -> std::optional<std::size_t> {
    std::size_t best = n;
    double best_key = -1.0;
    // Word-level scan of the selection mask: only selected items are visited.
    const BitVec& bits = x.bits();
    for (std::size_t j = bits.next_one(0); j < n; j = bits.next_one(j + 1)) {
      if (honor_tabu && tabu.is_drop_tabu(j, iter)) continue;
      const double profit = inst_->profit(j);
      const double key = profit > 0.0 ? row[j] / profit
                                      : std::numeric_limits<double>::infinity();
      if (key > best_key) {
        best_key = key;
        best = j;
      }
    }
    return best < n ? std::optional<std::size_t>(best) : std::nullopt;
  };

  if (auto choice = pick(/*honor_tabu=*/true)) return choice;
  // Every selected item is drop-tabu: the search must still move, so fall
  // back to the untabooed rule (recorded as a forced drop).
  if (forced) *forced = true;
  return pick(/*honor_tabu=*/false);
}

namespace {

constexpr std::size_t kStruck = std::numeric_limits<std::size_t>::max();

/// The unselected items of x in ascending index order: an Add phase's
/// initial candidate list.
std::vector<std::size_t> unselected_items(const mkp::Solution& x) {
  const BitVec& bits = x.bits();
  const std::size_t n = bits.size();
  std::vector<std::size_t> items;
  items.reserve(n - x.cardinality());
  for (std::size_t j = bits.next_zero(0); j < n; j = bits.next_zero(j + 1)) {
    items.push_back(j);
  }
  return items;
}

/// One pick of the Add rule over `candidates` (unselected items, ascending),
/// visited circularly from the first item >= start. Strikes the items that
/// fail the fit test and the picked item from the list.
std::optional<std::size_t> pick_add(const mkp::Instance& inst, const mkp::Solution& x,
                                    const TabuList& tabu, std::uint64_t iter,
                                    double best_value, MoveStats* stats,
                                    std::size_t start, std::size_t max_candidates,
                                    std::vector<std::size_t>& candidates) {
  // Candidate budget semantics: `evaluated` counts FULLY SCORED candidates
  // only — items that fail the fit test or are tabu without aspiration
  // consume no budget. max_candidates therefore bounds the number of score
  // comparisons per pick (the paper's "neighbor solutions evaluated"),
  // independent of how dense the selection mask or the tabu list is.
  const std::size_t size = candidates.size();
  const std::size_t first = static_cast<std::size_t>(
      std::lower_bound(candidates.begin(), candidates.end(), start) - candidates.begin());
  std::size_t evaluated = 0;
  std::size_t best_pos = size;
  double best_key = -1.0;
  bool struck = false;
  // Hoist the dispatch resolve and the solution-invariant pointer bundle out
  // of the per-candidate loop; scan(j) == fit_and_score(x, j) bitwise.
  const kernels::AddScan scan(x);
  // Circular visit of the list from the first item >= start.
  for (std::size_t k = 0; k < size; ++k) {
    const std::size_t pos = first + k < size ? first + k : first + k - size;
    const std::size_t j = candidates[pos];
    // Tabu status and aspiration (§3.1) cost O(1), so they are tested before
    // the column sweep: only an aspiring tabu item pays for one. The tabu
    // barrier falls when accepting the item would beat the best objective
    // value found so far.
    const bool tabu_item = tabu.is_add_tabu(j, iter);
    if (tabu_item && !(x.value() + inst.profit(j) > best_value)) {
      if (stats) ++stats->tabu_blocked_adds;
      continue;
    }
    const auto fs = scan(j);
    if (!fs.fit) {
      // Loads only grow during an Add phase, so an item that does not fit
      // now never fits again before the next drop.
      candidates[pos] = kStruck;
      struck = true;
      continue;
    }
    if (tabu_item && stats) ++stats->aspiration_hits;
    if (fs.score > best_key) {
      best_key = fs.score;
      best_pos = pos;
    }
    if (max_candidates > 0 && ++evaluated >= max_candidates) break;
  }
  std::optional<std::size_t> picked;
  if (best_pos < size) {
    picked = candidates[best_pos];
    candidates[best_pos] = kStruck;
    struck = true;
  }
  if (struck) std::erase(candidates, kStruck);
  return picked;
}

}  // namespace

std::optional<std::size_t> MoveKernel::select_add(const mkp::Solution& x,
                                                  const TabuList& tabu,
                                                  std::uint64_t iter, double best_value,
                                                  MoveStats* stats, Rng* rng,
                                                  std::size_t max_candidates) const {
  PTS_DCHECK(max_candidates == 0 || rng != nullptr);
  const std::size_t start = max_candidates > 0 ? rng->index(inst_->num_items()) : 0;
  auto candidates = unselected_items(x);
  return pick_add(*inst_, x, tabu, iter, best_value, stats, start, max_candidates,
                  candidates);
}

MoveOutcome MoveKernel::apply(mkp::Solution& x, TabuList& tabu, std::uint64_t iter,
                              const Strategy& strategy, std::size_t tenure,
                              double best_value, Rng& rng, MoveStats& stats) const {
  MoveOutcome outcome;
  PTS_DCHECK(strategy.nb_drop >= 1);

  // Randomize the drop count in [1, nb_drop]: the paper treats Nb_drop as
  // the *maximum* number of consecutive drops; varying it per move keeps
  // step lengths diverse within one strategy.
  const std::size_t drops_this_move =
      strategy.nb_drop == 1
          ? 1
          : 1 + static_cast<std::size_t>(rng.index(strategy.nb_drop));

  for (std::size_t d = 0; d < drops_this_move; ++d) {
    bool forced = false;
    const auto victim = select_drop(x, tabu, iter, &forced);
    if (!victim) break;
    x.drop(*victim);
    tabu.forbid_add(*victim, iter, tenure);
    outcome.flipped.push_back(*victim);
    ++outcome.num_drops;
    ++stats.drops;
    if (forced) ++stats.forced_drops;
  }

  // Add until no object fits (§3.1: "Adding object to the knapsack is
  // realized until no object can be added"). One candidate list serves the
  // whole phase; each pick draws its own scan offset, as select_add does.
  const std::size_t n = inst_->num_items();
  auto candidates = unselected_items(x);
  while (true) {
    const std::size_t start = strategy.nb_candidates > 0 ? rng.index(n) : 0;
    const auto candidate = pick_add(*inst_, x, tabu, iter, best_value, &stats, start,
                                    strategy.nb_candidates, candidates);
    if (!candidate) break;
    x.add(*candidate);
    tabu.forbid_drop(*candidate, iter, tenure / 2 + 1);
    outcome.flipped.push_back(*candidate);
    ++outcome.num_adds;
    ++stats.adds;
  }
  return outcome;
}

}  // namespace pts::tabu
