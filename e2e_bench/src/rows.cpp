#include "rows.hpp"

#include <cmath>
#include <random>

namespace e2e {

Rows gk_rows(std::size_t m, std::size_t n, std::uint64_t seed, double tightness) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> weight(1, 1000);
  std::uniform_real_distribution<double> noise(0.0, 1.0);
  Rows rows;
  rows.n = n;
  rows.m = m;
  rows.weights.resize(m * n);
  for (auto& w : rows.weights) w = weight(rng);
  rows.profits.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    double column = 0.0;
    for (std::size_t i = 0; i < m; ++i) column += rows.weights[i * n + j];
    rows.profits[j] = std::ceil(column / static_cast<double>(m) + 500.0 * noise(rng));
  }
  rows.capacities.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < n; ++j) row += rows.weights[i * n + j];
    rows.capacities[i] = std::floor(tightness * row);
  }
  return rows;
}

pts::mkp::Instance build_instance(const Rows& rows, const std::string& name) {
  return pts::mkp::Instance(name, rows.profits, rows.weights, rows.capacities);
}

Answer answer_of(const pts::mkp::Solution& best, double claimed_value) {
  Answer answer;
  answer.picked.resize(best.num_items());
  for (std::size_t j = 0; j < best.num_items(); ++j) answer.picked[j] = best.contains(j);
  answer.value = claimed_value;
  return answer;
}

std::string check_answer(const Rows& rows, const Answer& answer) {
  if (answer.picked.size() != rows.n) {
    return "solution has " + std::to_string(answer.picked.size()) + " items, instance " +
           std::to_string(rows.n);
  }
  double profit = 0.0;
  for (std::size_t j = 0; j < rows.n; ++j) {
    if (answer.picked[j]) profit += rows.profits[j];
  }
  for (std::size_t i = 0; i < rows.m; ++i) {
    double load = 0.0;
    for (std::size_t j = 0; j < rows.n; ++j) {
      if (answer.picked[j]) load += rows.weights[i * rows.n + j];
    }
    if (load > rows.capacities[i]) {
      return "constraint " + std::to_string(i) + " violated: load " + std::to_string(load) +
             " > capacity " + std::to_string(rows.capacities[i]);
    }
  }
  if (profit != answer.value) {
    return "claimed value " + std::to_string(answer.value) + " but the items sum to " +
           std::to_string(profit);
  }
  return {};
}

}  // namespace e2e
