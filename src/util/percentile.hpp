// Nearest-rank percentiles — the quantile definition shared by the offline
// run-report analyzer (tools/report) and the serving tier's latency SLOs.
//
// Nearest-rank (rank = ceil(q·n), 1-indexed) always returns an element of
// the sample, so a reported p99 is a latency some request actually saw —
// the property SLO monitoring wants.
//
// Edge cases are pinned by tests/util/percentile_test.cpp:
//   empty sample            → 0.0
//   q ≤ 0 (rank clamps to 1)→ the minimum
//   q = 1 (rank = n)        → the maximum
//   n = 1                   → that element, for every q
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace stellaris {

/// 0-based index of the nearest-rank order statistic of a sample of
/// `size` > 0 elements.
inline std::size_t nearest_rank_index(std::size_t size, double q) {
  const double n = static_cast<double>(size);
  // Clamp in floating point BEFORE the integer cast: q < 0 would make the
  // double→size_t conversion of a negative rank undefined.
  const double rank = std::min(std::max(std::ceil(q * n), 1.0), n);
  return static_cast<std::size_t>(rank) - 1;
}

/// Nearest-rank quantile of an ascending-sorted sample (q in (0, 1]).
/// Returns 0.0 for an empty sample.
inline double nearest_rank_sorted(const std::vector<double>& sorted,
                                  double q) {
  if (sorted.empty()) return 0.0;
  return sorted[nearest_rank_index(sorted.size(), q)];
}

/// Nearest-rank quantile of an unsorted sample, found with
/// std::nth_element in linear time: the value nearest_rank_sorted returns
/// on the sorted sample, for callers that need a few quantiles, not the
/// order. Reorders `sample`; returns 0.0 for an empty sample.
inline double nearest_rank_select(std::vector<double>& sample, double q) {
  if (sample.empty()) return 0.0;
  const auto nth = sample.begin() + static_cast<std::ptrdiff_t>(
                                        nearest_rank_index(sample.size(), q));
  std::nth_element(sample.begin(), nth, sample.end());
  return *nth;
}

/// Nearest-rank quantile of an unsorted sample (copies, then selects).
/// Callers with a persistent sample should sort once and use the
/// `_sorted` variant for repeated quantiles.
inline double nearest_rank(std::vector<double> sample, double q) {
  return nearest_rank_select(sample, q);
}

}  // namespace stellaris
