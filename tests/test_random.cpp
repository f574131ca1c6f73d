// Rng: determinism, stream independence, distribution sanity; the
// zipfian sampler's exactness against a binary search.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "sim/random.hpp"
#include "util/rand.hpp"

namespace nwc::sim {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkIsIndependentAndReproducible) {
  Rng base(77);
  Rng f1 = base.fork(1);
  Rng f2 = base.fork(2);
  Rng f1b = Rng(77).fork(1);
  EXPECT_EQ(f1.next(), f1b.next());
  EXPECT_NE(f1.next(), f2.next());
}

TEST(Rng, BelowStaysInRange) {
  Rng r(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.below(17), 17u);
  }
}

TEST(Rng, BelowCoversRange) {
  Rng r(10);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive) {
  Rng r(11);
  bool lo = false, hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    lo |= v == -3;
    hi |= v == 3;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(12);
  double sum = 0;
  for (int i = 0; i < 100000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng r(13);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, ChanceMatchesProbability) {
  Rng r(14);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

// The rank a binary search over the CDF gives (the sampler's reference).
std::size_t binarySearchRank(const util::ZipfianSampler& z, double u) {
  const auto& cdf = z.cdf();
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  return it == cdf.end() ? cdf.size() - 1 : static_cast<std::size_t>(it - cdf.begin());
}

TEST(ZipfianSampler, GuideTableMatchesBinarySearchExactly) {
  // n = 6 adds a rounding case: u = nextafter(5/6, 0) gives u*6 == 5.0, so
  // the draw starts one bucket too high and must step back down.
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{6},
                              std::size_t{7}, std::size_t{16384}}) {
    for (const double theta : {0.0, 0.5, 0.9, 0.99, 1.3}) {
      const util::ZipfianSampler z(n, theta);
      util::Xoshiro256ss rng(n * 1000 + static_cast<std::uint64_t>(theta * 100));
      std::size_t mismatches = 0;
      for (int i = 0; i < 1000000; ++i) {
        const double u = rng.uniform();
        mismatches += z.sample(u) != binarySearchRank(z, u) ? 1 : 0;
      }
      // The bucket edges: every CDF value and its two neighbours.
      for (const double c : z.cdf()) {
        for (const double u : {std::nextafter(c, -1.0), c, std::nextafter(c, 2.0)}) {
          mismatches += z.sample(u) != binarySearchRank(z, u) ? 1 : 0;
        }
      }
      for (const double u : {0.0, 1.0}) {
        mismatches += z.sample(u) != binarySearchRank(z, u) ? 1 : 0;
      }
      EXPECT_EQ(mismatches, 0u) << "n=" << n << " theta=" << theta;
    }
  }
}

TEST(Splitmix, KnownGoodProgression) {
  std::uint64_t s = 0;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  EXPECT_NE(a, b);
  std::uint64_t s2 = 0;
  EXPECT_EQ(splitmix64(s2), a);
}

}  // namespace
}  // namespace nwc::sim
