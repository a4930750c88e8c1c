#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace e2e {

namespace {

std::size_t rank_of(std::size_t n, double q) {
  // q * n first: exact for whole percentiles, so ceil() sees no rounding.
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) / 100.0 - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const std::size_t k = rank_of(samples.size(), q) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 50.0); }

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - rank_of(n, q);
}

int highest_supported_percentile(std::size_t n) {
  for (int q = 99; q >= 50; --q) {
    if (samples_beyond(n, q) >= kMinBeyond) return q;
  }
  return 0;
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

}  // namespace e2e
