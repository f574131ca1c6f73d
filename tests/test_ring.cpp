// OpticalRing + NwcFifos: delay-line capacity law, slot management,
// reservation protocol, FIFO record bookkeeping.
#include <gtest/gtest.h>

#include "nwcache/interface.hpp"
#include "nwcache/optical_ring.hpp"

namespace nwc::ring {
namespace {

TEST(CapacityLaw, MatchesPaperExample) {
  // Paper section 2: at 10 Gbit/s, ~5 Kbit stored on 100 m of one channel.
  const double bits = delayLineCapacityBits(1, 100.0, 10e9);
  EXPECT_NEAR(bits, 4761.9, 1.0);
}

TEST(CapacityLaw, ScalesLinearly) {
  const double one = delayLineCapacityBits(1, 50.0, 1e9);
  EXPECT_DOUBLE_EQ(delayLineCapacityBits(8, 50.0, 1e9), 8 * one);
  EXPECT_DOUBLE_EQ(delayLineCapacityBits(1, 100.0, 1e9), 2 * one);
}

TEST(CapacityLaw, FiberLengthInverse) {
  // Length required for 64 KB at 1.25 GB/s (10 Gbit/s): ~11 km of fiber.
  const double len = fiberLengthForCapacity(64 * 1024, 1.25e9 * 8);
  const double bits = delayLineCapacityBits(1, len, 1.25e9 * 8);
  EXPECT_NEAR(bits, 64 * 1024 * 8, 1.0);
}

RingParams paperRing() { return RingParams{}; }  // defaults match Table 1

TEST(Ring, PaperTimingDerivations) {
  OpticalRing r(paperRing());
  EXPECT_EQ(r.channels(), 8);
  EXPECT_EQ(r.capacityPages(), 16);          // 64 KB / 4 KB
  EXPECT_EQ(r.roundTripTicks(), 10400u);     // 52 us at 5 ns/pcycle
  EXPECT_EQ(r.pageTransferTicks(), 656u);    // 4 KB at 1.25 GB/s
}

TEST(Ring, ReserveInsertRemoveLifecycle) {
  OpticalRing r(paperRing());
  EXPECT_TRUE(r.hasRoom(0));
  r.reserve(0);
  r.insert(0, 42);
  EXPECT_TRUE(r.contains(0, 42));
  EXPECT_EQ(r.occupancy(0), 1);
  EXPECT_TRUE(r.remove(0, 42));
  EXPECT_FALSE(r.remove(0, 42));  // idempotent removal
  EXPECT_EQ(r.occupancy(0), 0);
}

TEST(Ring, ReservationsCountAgainstRoom) {
  RingParams p = paperRing();
  p.channel_capacity_bytes = 2 * p.page_bytes;  // 2 slots
  OpticalRing r(p);
  r.reserve(0);
  r.reserve(0);
  EXPECT_FALSE(r.hasRoom(0));  // both slots spoken for before any insert
  r.insert(0, 1);
  r.insert(0, 2);
  EXPECT_FALSE(r.hasRoom(0));
  r.remove(0, 1);
  EXPECT_TRUE(r.hasRoom(0));
}

TEST(Ring, ChannelsAreIndependent) {
  RingParams p = paperRing();
  p.channel_capacity_bytes = p.page_bytes;  // 1 slot each
  OpticalRing r(p);
  r.reserve(0);
  r.insert(0, 1);
  EXPECT_FALSE(r.hasRoom(0));
  EXPECT_TRUE(r.hasRoom(1));
  EXPECT_FALSE(r.contains(1, 1));
}

TEST(Ring, PagesKeepSwapOrder) {
  OpticalRing r(paperRing());
  for (sim::PageId p = 5; p < 10; ++p) {
    r.reserve(3);
    r.insert(3, p);
  }
  const auto& q = r.pagesOn(3);
  ASSERT_EQ(q.size(), 5u);
  EXPECT_EQ(q.front(), 5);
  EXPECT_EQ(q.back(), 9);
}

TEST(Ring, StatsTrackPeaks) {
  OpticalRing r(paperRing());
  for (sim::PageId p = 0; p < 4; ++p) {
    r.reserve(1);
    r.insert(1, p);
  }
  r.remove(1, 0);
  EXPECT_EQ(r.peakOccupancy(1), 4);
  EXPECT_EQ(r.inserts(), 4u);
  EXPECT_EQ(r.removes(), 1u);
  EXPECT_EQ(r.totalOccupancy(), 3);
}

TEST(Fifos, PushPopFifoOrder) {
  NwcFifos f(8);
  f.push(2, {10, 2, 1});
  f.push(2, {11, 2, 2});
  EXPECT_EQ(f.size(2), 2);
  auto r = f.popFront(2);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->page, 10);
  EXPECT_EQ(f.size(2), 1);
}

TEST(Fifos, HeaviestChannelSelection) {
  NwcFifos f(4);
  EXPECT_EQ(f.heaviestChannel(), -1);
  f.push(1, {1, 1, 1});
  f.push(3, {2, 3, 2});
  f.push(3, {3, 3, 3});
  EXPECT_EQ(f.heaviestChannel(), 3);
  f.popFront(3);
  f.popFront(3);
  EXPECT_EQ(f.heaviestChannel(), 1);
}

TEST(Fifos, HeaviestTieBreaksLowestChannel) {
  NwcFifos f(4);
  f.push(2, {1, 2, 1});
  f.push(0, {2, 0, 2});
  EXPECT_EQ(f.heaviestChannel(), 0);
}

TEST(Fifos, RemovePageFromAnyChannel) {
  NwcFifos f(4);
  f.push(0, {1, 0, 1});
  f.push(1, {2, 1, 2});
  f.push(1, {3, 1, 3});
  auto r = f.removePage(3);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->swapper, 1);
  EXPECT_EQ(f.size(1), 1);
  EXPECT_EQ(f.totalSize(), 2);
  EXPECT_EQ(f.heaviestChannel(), 0);  // 1-1 tie: lowest channel wins
  EXPECT_FALSE(f.removePage(3).has_value());  // already gone
  EXPECT_FALSE(f.popFront(2).has_value());    // empty: counts stay put
  EXPECT_EQ(f.totalSize(), 2);
}

TEST(Fifos, FrontPeeksWithoutRemoving) {
  NwcFifos f(2);
  EXPECT_FALSE(f.front(0).has_value());
  f.push(0, {7, 0, 1});
  EXPECT_EQ(f.front(0)->page, 7);
  EXPECT_EQ(f.size(0), 1);
}

TEST(Fifos, TotalSizeAggregates) {
  NwcFifos f(3);
  f.push(0, {1, 0, 1});
  f.push(1, {2, 1, 2});
  f.push(2, {3, 2, 3});
  EXPECT_EQ(f.totalSize(), 3);
  EXPECT_EQ(f.pushes(), 3u);
}

}  // namespace
}  // namespace nwc::ring
