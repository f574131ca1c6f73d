// SetAssocCache: hits, LRU eviction, dirty tracking, invalidation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "mem/cache.hpp"

namespace nwc::mem {
namespace {

CacheParams smallCache() {
  CacheParams p;
  p.size_bytes = 256;  // 8 lines
  p.line_bytes = 32;
  p.assoc = 2;         // 4 sets x 2 ways
  return p;
}

TEST(Cache, ColdMissThenHit) {
  SetAssocCache c(smallCache());
  EXPECT_FALSE(c.access(0x100, false).hit);
  EXPECT_TRUE(c.access(0x100, false).hit);
  EXPECT_TRUE(c.access(0x11F, false).hit);   // same 32-byte line
  EXPECT_FALSE(c.access(0x120, false).hit);  // next line
}

TEST(Cache, ContainsIsSideEffectFree) {
  SetAssocCache c(smallCache());
  EXPECT_FALSE(c.contains(0x40));
  EXPECT_FALSE(c.access(0x40, false).hit);  // contains() did not fill
  EXPECT_TRUE(c.contains(0x40));
  // Nor does it refresh LRU: line 0 stays the victim of set 0.
  c.access(0 * 32, false);
  c.access(4 * 32, false);
  EXPECT_TRUE(c.contains(0));
  EXPECT_EQ(c.access(8 * 32, false).evicted_line, 0u);
}

TEST(Cache, AccessIfHitMissLeavesStateUntouched) {
  SetAssocCache c(smallCache());
  c.access(0 * 32, false);
  c.access(4 * 32, false);
  EXPECT_FALSE(c.accessIfHit(8 * 32, true));
  EXPECT_FALSE(c.contains(8 * 32));
  EXPECT_TRUE(c.accessIfHit(0, false));  // refreshes line 0: 4 is LRU now
  EXPECT_EQ(c.access(8 * 32, false).evicted_line, 4u);
}

TEST(Cache, FillPicksTheVictimAccessWould) {
  SetAssocCache c(smallCache());
  EXPECT_FALSE(c.fill(0 * 32, true).evicted);  // invalid way first
  EXPECT_FALSE(c.fill(4 * 32, false).evicted);
  const CacheOutcome out = c.fill(8 * 32, false);  // set 0 full: LRU goes
  EXPECT_FALSE(out.hit);
  EXPECT_TRUE(out.evicted);
  EXPECT_TRUE(out.evicted_dirty);
  EXPECT_EQ(out.evicted_line, 0u);
  EXPECT_TRUE(c.access(8 * 32, false).hit);
}

TEST(Cache, LruEvictionWithinSet) {
  SetAssocCache c(smallCache());
  // Set = line % 4. Lines 0, 4, 8 all map to set 0 (2 ways).
  c.access(0 * 32, false);
  c.access(4 * 32, false);
  c.access(0 * 32, false);  // refresh line 0
  auto out = c.access(8 * 32, false);
  EXPECT_TRUE(out.evicted);
  EXPECT_EQ(out.evicted_line, 4u);  // line 4 was LRU
  EXPECT_FALSE(out.evicted_dirty);
  EXPECT_TRUE(c.contains(0));
  EXPECT_FALSE(c.contains(4 * 32));
}

TEST(Cache, DirtyEvictionReported) {
  SetAssocCache c(smallCache());
  c.access(0 * 32, true);  // dirty
  c.access(4 * 32, false);
  auto out = c.access(8 * 32, false);  // evicts line 0 (LRU)
  EXPECT_TRUE(out.evicted);
  EXPECT_TRUE(out.evicted_dirty);
  EXPECT_EQ(out.evicted_line, 0u);
}

TEST(Cache, WriteToCleanLineMarksDirty) {
  SetAssocCache c(smallCache());
  c.access(0, false);
  c.access(0, true);  // now dirty
  EXPECT_TRUE(c.invalidateLine(0));  // returns was-dirty
}

TEST(Cache, InvalidateLine) {
  SetAssocCache c(smallCache());
  c.access(0x40, false);
  EXPECT_FALSE(c.invalidateLine(c.lineOf(0x40)));  // clean
  EXPECT_FALSE(c.contains(0x40));
  EXPECT_FALSE(c.invalidateLine(c.lineOf(0x40)));  // already gone
}

TEST(Cache, InvalidatePageCountsDirtyLines) {
  CacheParams p;
  p.size_bytes = 8192;
  p.line_bytes = 32;
  p.assoc = 4;
  SetAssocCache c(p);
  // Touch 4 lines of the page at 0x1000, two dirty.
  c.access(0x1000, true);
  c.access(0x1020, false);
  c.access(0x1040, true);
  c.access(0x1060, false);
  EXPECT_EQ(c.invalidatePage(0x1000, 4096), 2);
  EXPECT_FALSE(c.contains(0x1000));
  EXPECT_FALSE(c.contains(0x1060));
}

TEST(Cache, ForEachValidLineReportsLineAddresses) {
  CacheParams odd;  // 96 sets: the non-power-of-two index path
  odd.size_bytes = 6144;
  odd.line_bytes = 32;
  odd.assoc = 2;
  for (const CacheParams& p : {smallCache(), odd}) {
    SetAssocCache c(p);
    c.access(0x1005, false);  // reported as its line's first byte
    c.access(0x2040, true);
    c.access(0x9040, false);
    c.access(0x3000, false);
    c.invalidateLine(c.lineOf(0x3000));
    std::vector<std::uint64_t> seen;
    c.forEachValidLine([&](std::uint64_t a) { seen.push_back(a); });
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{0x1000, 0x2040, 0x9040}));
    c.flushAll();
    seen.clear();
    c.forEachValidLine([&](std::uint64_t a) { seen.push_back(a); });
    EXPECT_TRUE(seen.empty());
  }
}

TEST(Cache, FlushAllEmptiesCache) {
  SetAssocCache c(smallCache());
  c.access(0, true);
  c.access(64, false);
  c.flushAll();
  EXPECT_FALSE(c.contains(0));
  EXPECT_FALSE(c.contains(64));
}

TEST(Cache, RepeatedAccessHitsAfterFirstMiss) {
  SetAssocCache c(smallCache());
  EXPECT_FALSE(c.access(0, false).hit);
  EXPECT_TRUE(c.access(0, false).hit);
  EXPECT_TRUE(c.access(0, false).hit);
}

// Every valid line with its dirty bit, in address order. Consumes the
// cache (reads dirty bits by invalidating).
std::vector<std::pair<std::uint64_t, bool>> drain(SetAssocCache& c) {
  std::vector<std::uint64_t> lines;
  c.forEachValidLine([&](std::uint64_t a) { lines.push_back(a); });
  std::sort(lines.begin(), lines.end());
  std::vector<std::pair<std::uint64_t, bool>> out;
  for (std::uint64_t a : lines) out.emplace_back(a, c.invalidateLine(c.lineOf(a)));
  return out;
}

std::vector<std::uint64_t> validLines(const SetAssocCache& c) {
  std::vector<std::uint64_t> lines;
  c.forEachValidLine([&](std::uint64_t a) { lines.push_back(a); });
  std::sort(lines.begin(), lines.end());
  return lines;
}

// The access path's L1-miss read (L1 accessIfHit, L2 accessIfHit, L1 fill;
// an L2 miss falls back to access() on both) against plain access() on
// both levels, over a random stream that also writes.
TEST(Cache, TwoProbeReadMatchesAccessOnBothGeometries) {
  CacheParams l1_odd{6144, 32, 2};    // 96 sets
  CacheParams l2_odd{24576, 64, 4};   // 96 sets
  const std::vector<std::pair<CacheParams, CacheParams>> geometries = {
      {CacheParams{8 * 1024, 32, 2}, CacheParams{64 * 1024, 64, 4}}, {l1_odd, l2_odd}};
  for (const auto& [p1, p2] : geometries) {
    SetAssocCache ref1(p1), ref2(p2), two1(p1), two2(p2);
    std::mt19937_64 rng(p1.size_bytes);
    std::uint64_t addr = 0;
    for (int i = 0; i < 200000; ++i) {
      // Mostly nearby references with occasional jumps across 256 KB.
      addr = rng() % 8 == 0 ? rng() % (256 * 1024) : (addr + rng() % 256) % (256 * 1024);
      const bool write = rng() % 4 == 0;
      const CacheOutcome r1 = ref1.access(addr, write);
      CacheOutcome r2;
      if (!r1.hit) r2 = ref2.access(addr, write);

      if (write) {
        const CacheOutcome t1 = two1.access(addr, true);
        ASSERT_EQ(t1.hit, r1.hit);
        if (!t1.hit) {
          ASSERT_EQ(two2.access(addr, true).hit, r2.hit);
        }
      } else if (two1.accessIfHit(addr, false)) {
        ASSERT_TRUE(r1.hit) << "step " << i;
      } else if (two2.accessIfHit(addr, false)) {
        ASSERT_FALSE(r1.hit);
        ASSERT_TRUE(r2.hit) << "step " << i;
        const CacheOutcome f = two1.fill(addr, false);
        ASSERT_EQ(f.evicted, r1.evicted) << "step " << i;
        ASSERT_EQ(f.evicted_dirty, r1.evicted_dirty) << "step " << i;
        ASSERT_EQ(f.evicted_line, r1.evicted_line) << "step " << i;
      } else {
        ASSERT_FALSE(r1.hit);
        ASSERT_FALSE(r2.hit) << "step " << i;
        const CacheOutcome t1 = two1.access(addr, false);
        const CacheOutcome t2 = two2.access(addr, false);
        ASSERT_EQ(t1.evicted_line, r1.evicted_line);
        ASSERT_EQ(t2.evicted_line, r2.evicted_line);
      }
      if (i % 1000 == 0) {
        ASSERT_EQ(validLines(two1), validLines(ref1)) << "step " << i;
        ASSERT_EQ(validLines(two2), validLines(ref2)) << "step " << i;
      }
    }
    EXPECT_EQ(drain(two1), drain(ref1));
    EXPECT_EQ(drain(two2), drain(ref2));
  }
}

TEST(Cache, DegenerateSingleSet) {
  CacheParams p;
  p.size_bytes = 64;
  p.line_bytes = 32;
  p.assoc = 2;  // exactly one set
  SetAssocCache c(p);
  c.access(0, false);
  c.access(32, false);
  auto out = c.access(64, false);
  EXPECT_TRUE(out.evicted);
}

}  // namespace
}  // namespace nwc::mem
