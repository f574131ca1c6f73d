// Small statistics helpers shared by the benchmark driver and its tests:
// exact nearest-rank percentiles with the tail rule, medians, and the
// digest that pins simulated outputs across repetitions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench {

/// Samples that must lie beyond a reported tail percentile.
inline constexpr std::size_t kTailSamples = 10;

/// One exact percentile of a sample set.
struct Percentile {
  double value = 0.0;   // the sample at the chosen rank
  double pct = 0.0;     // percentile actually reported, in (0, 100]
  std::size_t n = 0;    // sample count
};

/// 0-based index of the nearest-rank `p`-th percentile (p in (0, 100]) of
/// `n` ascending samples: the smallest rank whose cumulative share is >= p.
std::size_t nearestRankIndex(std::size_t n, double p);

/// 0-based index of the tail percentile asked for as `p`: the nearest-rank
/// `p`-th percentile, lowered until at least kTailSamples samples lie beyond
/// it, but never below the median.
std::size_t tailIndex(std::size_t n, double p);

/// Median and tail percentile of `samples` (sorted in place). Both are zero
/// with n = 0 when the set is empty.
Percentile medianOf(std::vector<std::uint64_t>& samples);
Percentile tailOf(std::vector<std::uint64_t>& samples, double p = 99.0);

/// Median of host-time samples (mean of the two middle values when even).
double median(std::vector<double> v);

/// FNV-1a over `s`, chained from `h`.
std::uint64_t fnv1a(std::string_view s, std::uint64_t h = 0xcbf29ce484222325ULL);

}  // namespace perfbench
