#include "tabu/moves.hpp"

#include <algorithm>
#include <limits>

#include "tabu/kernels.hpp"
#include "util/check.hpp"

namespace pts::tabu {

MoveKernel::MoveKernel(const mkp::Instance& inst)
    : inst_(&inst), drop_order_(inst.num_constraints()) {}

const std::vector<std::size_t>& MoveKernel::drop_order(std::size_t i) const {
  auto& order = drop_order_[i];
  if (!order.empty()) return order;
  const auto row = inst_->weights_row(i);
  const std::size_t n = inst_->num_items();
  std::vector<double> keys(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double profit = inst_->profit(j);
    keys[j] = profit > 0.0 ? row[j] / profit : std::numeric_limits<double>::infinity();
    // A key the rule can never pick (not above its -1 floor, or NaN) is
    // left out of the order; with nonnegative weights every item is in it.
    if (keys[j] > -1.0) order.push_back(j);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return keys[a] > keys[b]; });
  return order;
}

std::optional<std::size_t> MoveKernel::select_drop(const mkp::Solution& x,
                                                   const TabuList& tabu,
                                                   std::uint64_t iter,
                                                   bool* forced) const {
  if (forced) *forced = false;
  if (x.cardinality() == 0) return std::nullopt;

  // The first selected item in the bottleneck row's order has the largest
  // key and, among equal keys, the lowest index: the linear scan's pick.
  const auto& order = drop_order(x.most_saturated_constraint());
  const BitVec& bits = x.bits();
  for (const std::size_t j : order) {
    if (bits.test(j) && !tabu.is_drop_tabu(j, iter)) return j;
  }
  // Every selected item is drop-tabu: the search must still move, so fall
  // back to the untabooed rule (recorded as a forced drop).
  if (forced) *forced = true;
  for (const std::size_t j : order) {
    if (bits.test(j)) return j;
  }
  return std::nullopt;
}

namespace {

constexpr std::size_t kStruck = std::numeric_limits<std::size_t>::max();

/// The unselected items of x in ascending index order: an Add phase's
/// initial candidate list.
std::vector<std::size_t> unselected_items(const mkp::Solution& x) {
  std::vector<std::size_t> items;
  items.reserve(x.num_items() - x.cardinality());
  x.bits().for_each_zero([&](std::size_t j) { items.push_back(j); });
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
