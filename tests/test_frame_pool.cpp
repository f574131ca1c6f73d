// FramePool: free accounting, LRU victim order, reserve threshold.
#include <gtest/gtest.h>

#include "vm/frame_pool.hpp"

namespace nwc::vm {
namespace {

TEST(FramePool, StartsAllFree) {
  FramePool fp(64, 12);
  EXPECT_EQ(fp.totalFrames(), 64);
  EXPECT_EQ(fp.freeFrames(), 64);
  EXPECT_EQ(fp.minFree(), 12);
  EXPECT_FALSE(fp.belowReserve());
  EXPECT_FALSE(fp.lruVictim().has_value());
}

TEST(FramePool, AllocateConsumesAndRegisters) {
  FramePool fp(4, 1);
  fp.allocate(100);
  EXPECT_EQ(fp.freeFrames(), 3);
  EXPECT_TRUE(fp.isResident(100));
  EXPECT_EQ(fp.residentCount(), 1);
}

TEST(FramePool, BelowReserveThreshold) {
  FramePool fp(4, 2);
  fp.allocate(1);
  fp.allocate(2);
  EXPECT_FALSE(fp.belowReserve());  // free == 2 == min
  fp.allocate(3);
  EXPECT_TRUE(fp.belowReserve());
}

TEST(FramePool, LruVictimIsOldestUntouched) {
  FramePool fp(8, 1);
  const int s1 = fp.allocate(1);
  fp.allocate(2);
  fp.allocate(3);
  EXPECT_EQ(*fp.lruVictim(), 1);
  fp.touchSlot(s1);  // refresh: 2 becomes LRU
  EXPECT_EQ(*fp.lruVictim(), 2);
}

TEST(FramePool, SlotNamesItsPageUntilRetired) {
  FramePool fp(4, 1);
  const int s1 = fp.allocate(1);
  const int s2 = fp.allocate(2);
  EXPECT_NE(s1, s2);
  EXPECT_EQ(fp.pageAt(s1), 1);
  EXPECT_EQ(fp.pageAt(s2), 2);
  EXPECT_TRUE(fp.retire(1));
  EXPECT_EQ(fp.pageAt(s1), sim::kNoPage);
  fp.consumeFrame();
  const int s3 = fp.addResident(3);  // may reuse the freed slot
  EXPECT_EQ(fp.pageAt(s3), 3);
  EXPECT_EQ(fp.pageAt(s2), 2);
}

TEST(FramePool, RetireRemovesWithoutFreeing) {
  FramePool fp(4, 1);
  fp.allocate(1);
  EXPECT_TRUE(fp.retire(1));
  EXPECT_FALSE(fp.isResident(1));
  EXPECT_EQ(fp.freeFrames(), 3);  // frame still claimed
  fp.releaseFrame();
  EXPECT_EQ(fp.freeFrames(), 4);
  EXPECT_FALSE(fp.retire(1));
}

TEST(FramePool, EvictNowFreesImmediately) {
  FramePool fp(4, 1);
  fp.allocate(1);
  EXPECT_TRUE(fp.evictNow(1));
  EXPECT_EQ(fp.freeFrames(), 4);
  EXPECT_FALSE(fp.evictNow(1));
}

TEST(FramePool, ConsumeThenAddResidentKeepsTransitInvisible) {
  FramePool fp(4, 1);
  fp.consumeFrame();  // fetch in flight
  EXPECT_EQ(fp.freeFrames(), 3);
  EXPECT_FALSE(fp.lruVictim().has_value());  // nothing evictable yet
  fp.addResident(42);
  EXPECT_TRUE(fp.isResident(42));
  EXPECT_EQ(*fp.lruVictim(), 42);
}

TEST(FramePool, StatsCount) {
  FramePool fp(4, 1);
  fp.allocate(1);
  fp.allocate(2);
  fp.evictNow(1);
  EXPECT_EQ(fp.allocations(), 2u);
  EXPECT_EQ(fp.evictions(), 1u);
}

TEST(FramePool, FifoOfEqualTouches) {
  FramePool fp(8, 1);
  const int s1 = fp.allocate(1);
  const int s2 = fp.allocate(2);
  fp.touchSlot(s1);
  fp.touchSlot(s2);
  EXPECT_EQ(*fp.lruVictim(), 1);  // order preserved after equal touches
}

}  // namespace
}  // namespace nwc::vm
