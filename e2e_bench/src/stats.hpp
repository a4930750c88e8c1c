#pragma once
// Order statistics for latency samples.
//
// Percentiles use the nearest-rank rule: the q-th percentile of n samples is
// the ceil(q/100 * n)-th smallest. A percentile is only reported as a tail
// figure when at least kMinBeyond samples lie above it; with fewer, one slow
// sample moves it from run to run.

#include <cstddef>
#include <vector>

namespace e2e {

inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile, q in (0, 100]. Samples need not be sorted.
/// Returns 0 for an empty set.
double percentile(std::vector<double> samples, double q);

/// Median (percentile 50 by the same rule).
double median(std::vector<double> samples);

/// Samples strictly above the nearest-rank q-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

/// The highest whole percentile (at most 99) that still has kMinBeyond
/// samples beyond it, or 0 when even the median does not.
int highest_supported_percentile(std::size_t n);

double mean(const std::vector<double>& samples);

}  // namespace e2e
