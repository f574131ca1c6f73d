#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::size_t nearestRankIndex(std::size_t n, double p) {
  if (n == 0) return 0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  const std::size_t r = rank < 1.0 ? 1 : static_cast<std::size_t>(rank);
  return std::min(r, n) - 1;
}

std::size_t tailIndex(std::size_t n, double p) {
  if (n == 0) return 0;
  std::size_t idx = nearestRankIndex(n, p);
  if (n >= kTailSamples + 1) idx = std::min(idx, n - kTailSamples - 1);
  return std::max(idx, nearestRankIndex(n, 50.0));
}

namespace {

Percentile at(const std::vector<std::uint64_t>& sorted, std::size_t idx) {
  if (sorted.empty()) return {};
  return Percentile{static_cast<double>(sorted[idx]),
                    100.0 * static_cast<double>(idx + 1) /
                        static_cast<double>(sorted.size()),
                    sorted.size()};
}

}  // namespace

Percentile medianOf(std::vector<std::uint64_t>& samples) {
  std::sort(samples.begin(), samples.end());
  return at(samples, nearestRankIndex(samples.size(), 50.0));
}

Percentile tailOf(std::vector<std::uint64_t>& samples, double p) {
  std::sort(samples.begin(), samples.end());
  return at(samples, tailIndex(samples.size(), p));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

std::uint64_t fnv1a(std::string_view s, std::uint64_t h) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace perfbench
