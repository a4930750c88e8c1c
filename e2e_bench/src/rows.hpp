#pragma once
// Workload inputs and the output checker.
//
// The benchmark draws its instances itself, as plain rows of numbers, so the
// program under test only ever sees the mkp::Instance built from them. The
// checker re-derives feasibility and profit from the same rows, never from
// the Instance or the Solution's own bookkeeping, so a wrong answer cannot
// vouch for itself.

#include <cstdint>
#include <string>
#include <vector>

#include "mkp/instance.hpp"
#include "mkp/solution.hpp"

namespace e2e {

/// One 0-1 MKP instance as raw rows (row-major weights, m rows of n).
struct Rows {
  std::size_t n = 0;
  std::size_t m = 0;
  std::vector<double> profits;
  std::vector<double> weights;
  std::vector<double> capacities;
};

/// Glover-Kochenberger construction: a_ij ~ U{1..1000}, b_i = floor(t *
/// sum_j a_ij), c_j = ceil(sum_i a_ij / m + 500 u_j). Integer-valued, so all
/// sums below are exact.
Rows gk_rows(std::size_t m, std::size_t n, std::uint64_t seed,
             double tightness = 0.25);

/// What the program is handed.
pts::mkp::Instance build_instance(const Rows& rows, const std::string& name);

/// An answer as the checker sees it: the chosen item set and the value the
/// program claims for it.
struct Answer {
  std::vector<std::uint8_t> picked;  ///< n entries, 0 or 1
  double value = 0.0;
};

Answer answer_of(const pts::mkp::Solution& best, double claimed_value);

/// Empty when `answer` is a feasible selection of `rows` whose profit equals
/// its claimed value; otherwise a one-line reason.
std::string check_answer(const Rows& rows, const Answer& answer);

}  // namespace e2e
