#include "tabu/intensify.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "bounds/greedy.hpp"
#include "util/check.hpp"

namespace pts::tabu {

std::size_t swap_intensify(mkp::Solution& x, IntensifyStats* stats) {
  const auto& inst = x.instance();
  const std::size_t n = inst.num_items();
  const std::size_t m = inst.num_constraints();
  const auto caps = inst.capacities();
  // Descending profit, ties in index order: only the prefix that out-profits
  // `out` can hold an improving exchange partner. The unselected items stay
  // in that order for the whole call: a swap erases `in` and re-inserts
  // `out` at its rank, so the partner walk never meets a selected item.
  const auto by_profit = bounds::greedy_item_order(inst, bounds::GreedyOrder::kProfit);
  std::vector<std::size_t> rank(n);
  for (std::size_t k = 0; k < n; ++k) rank[by_profit[k]] = k;
  std::vector<std::size_t> unselected;
  unselected.reserve(n - x.cardinality() + 1);
  for (const std::size_t j : by_profit) {
    if (!x.contains(j)) unselected.push_back(j);
  }
  std::vector<double> rest(m);  // load_i - a_{i,out}
  std::size_t tightest = 0;     // argmin_i cap_i - rest_i
  // Would adding `in` on top of `rest` keep every constraint satisfied?
  // Same (load - a_out) + a_in expression as a direct per-pair test. Most
  // partners that do not fit violate the tightest constraint, so it is
  // tested first; the verdict does not depend on the order.
  auto fits = [&](std::size_t in) {
    const auto col = inst.weights_col(in);
    if (rest[tightest] + col[tightest] > caps[tightest]) return false;
    for (std::size_t i = 0; i < m; ++i) {
      if (rest[i] + col[i] > caps[i]) return false;
    }
    return true;
  };
  std::size_t applied = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    const BitVec& bits = x.bits();
    for (std::size_t out = bits.next_one(0); out < n && !changed;
         out = bits.next_one(out + 1)) {
      const double p_out = inst.profit(out);
      const auto col_out = inst.weights_col(out);
      tightest = 0;
      for (std::size_t i = 0; i < m; ++i) {
        rest[i] = x.load(i) - col_out[i];
        if (caps[i] - rest[i] < caps[tightest] - rest[tightest]) tightest = i;
      }
      // The partner is the lowest-index feasible item, as in a scan of the
      // items in index order; a candidate above the best so far is skipped.
      std::size_t in = n;
      std::size_t in_pos = 0;
      for (std::size_t k = 0; k < unselected.size(); ++k) {
        const std::size_t j = unselected[k];
        if (!(inst.profit(j) > p_out)) break;
        if (j < in && fits(j)) {
          in = j;
          in_pos = k;
        }
      }
      if (in == n) continue;
      x.drop(out);
      x.add(in);
      unselected.erase(unselected.begin() + static_cast<std::ptrdiff_t>(in_pos));
      unselected.insert(std::lower_bound(unselected.begin(), unselected.end(), out,
                                         [&](std::size_t a, std::size_t b) {
                                           return rank[a] < rank[b];
                                         }),
                        out);
      ++applied;
      changed = true;
    }
  }
  if (stats) stats->swaps += applied;
  return applied;
}

void oscillation_intensify(mkp::Solution& x, std::size_t depth, Rng& rng,
                           IntensifyStats* stats) {
  const auto& inst = x.instance();
  const std::size_t n = inst.num_items();
  const std::size_t before = x.cardinality();

  // Excursion: up to `depth` adds by profit density, feasibility ignored.
  // A pinch of randomness in the pick keeps repeated excursions from
  // retracing the same path.
  for (std::size_t step = 0; step < depth; ++step) {
    std::size_t best = n;
    double best_key = -std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < n; ++j) {
      if (x.contains(j)) continue;
      const double key = inst.profit_density(j) * (0.9 + 0.2 * rng.uniform01());
      if (key > best_key) {
        best_key = key;
        best = j;
      }
    }
    if (best == n) break;
    x.add(best);
  }
  if (stats) stats->oscillation_adds += x.cardinality() - before;

  // Projection back onto the feasible region, then refill.
  const std::size_t peak = x.cardinality();
  bounds::repair_to_feasible(x);
  if (stats) stats->oscillation_drops += peak - x.cardinality();
  bounds::greedy_fill(x);
  PTS_DCHECK(x.is_feasible());
}

}  // namespace pts::tabu
