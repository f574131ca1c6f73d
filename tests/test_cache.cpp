// SetAssocCache: hits, LRU eviction, dirty tracking, invalidation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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
  c.access(0x40, false);
  EXPECT_TRUE(c.contains(0x40));
  EXPECT_EQ(c.hitStats().total(), 1u);  // contains() did not count
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

TEST(Cache, HitStatsAccumulate) {
  SetAssocCache c(smallCache());
  c.access(0, false);
  c.access(0, false);
  c.access(0, false);
  EXPECT_EQ(c.hitStats().total(), 3u);
  EXPECT_EQ(c.hitStats().hits(), 2u);
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
