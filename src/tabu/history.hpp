#pragma once
// Long-term frequency memory (the paper's History array, §3.3): for every
// item, the number of iterations it spent at 1 since the search began.
// Diversification reads the normalized frequencies to force chronically
// present items out and chronically absent items in. The engine records
// after every move, so record() visits only the set bits of the selection
// mask (BitVec::for_each_one), not all n items.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mkp/solution.hpp"
#include "util/check.hpp"

namespace pts::tabu {

class FrequencyMemory {
 public:
  explicit FrequencyMemory(std::size_t num_items) : counts_(num_items, 0) {}

  /// Record the current solution for one iteration: one increment per
  /// selected item, found word by word in the selection mask.
  void record(const mkp::Solution& solution) {
    PTS_DCHECK(solution.num_items() == counts_.size());
    ++total_iterations_;
    solution.bits().for_each_one([this](std::size_t j) { ++counts_[j]; });
  }

  [[nodiscard]] std::uint64_t count(std::size_t j) const { return counts_[j]; }
  [[nodiscard]] std::uint64_t total_iterations() const { return total_iterations_; }

  /// Fraction of recorded iterations item j was at 1 (0 when nothing recorded).
  [[nodiscard]] double frequency(std::size_t j) const {
    return total_iterations_ == 0
               ? 0.0
               : static_cast<double>(counts_[j]) / static_cast<double>(total_iterations_);
  }

  [[nodiscard]] std::size_t num_items() const { return counts_.size(); }

  void reset() {
    total_iterations_ = 0;
    for (auto& c : counts_) c = 0;
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_iterations_ = 0;
};

}  // namespace pts::tabu
