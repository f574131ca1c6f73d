// White-box tests of the NWCache interface drain: burst combining, swap
// ordering, heaviest-channel selection, ACK/slot lifecycle, interactions
// with victim reads.
#include <gtest/gtest.h>

#include "machine/machine.hpp"
#include "nwcache/interface.hpp"
#include "nwcache/optical_ring.hpp"

namespace nwc::machine {
namespace {

using sim::PageId;
using sim::Task;

MachineConfig ringConfig() {
  MachineConfig c;
  c.withSystem(SystemKind::kNWCache, Prefetch::kOptimal);
  c.memory_per_node = 32 * 1024;
  c.min_free_frames = 2;
  return c;
}

// Stages `pages` on channel `ch` exactly as completed ring swap-outs would
// appear, including the interface FIFO records.
void stageOnRing(Machine& m, int ch, const std::vector<PageId>& pages) {
  std::uint64_t seq = 1;
  for (PageId p : pages) {
    auto& e = m.pageTable().entry(p);
    m.ring()->reserve(ch);
    m.ring()->insert(ch, p);
    e.ring_channel = ch;
    e.dirty = true;
    m.pageTable().setState(p, vm::PageState::kRing);
    m.nwcFifos(m.pfs().diskOf(p)).push(ch, {p, ch, seq++});
  }
}

TEST(NwcDrain, ConsecutivePagesCombineIntoOneDiskWrite) {
  Machine m(ringConfig());
  m.allocRegion(64 * 4096);
  m.start();
  // Pages 1,2,3 are consecutive and live on disk 0 (same 32-page group).
  stageOnRing(m, 0, {1, 2, 3});
  m.kickDisk(m.pfs().diskOf(1));
  m.engine().run();

  ASSERT_EQ(m.metrics().write_combining.count(), 1u);
  EXPECT_DOUBLE_EQ(m.metrics().write_combining.mean(), 3.0);
  EXPECT_EQ(m.ring()->totalOccupancy(), 0);
  EXPECT_EQ(m.pageTable().countInState(vm::PageState::kRing), 0);
  for (PageId p : {1, 2, 3}) {
    EXPECT_EQ(m.pageTable().entry(p).state, vm::PageState::kDisk);
    EXPECT_FALSE(m.pageTable().entry(p).dirty);
  }
}

TEST(NwcDrain, NonConsecutivePagesWriteSeparately) {
  Machine m(ringConfig());
  m.allocRegion(64 * 4096);
  m.start();
  // 1 and 3 are on disk 0 but not adjacent: two physical writes.
  stageOnRing(m, 0, {1, 3});
  m.kickDisk(0);
  m.engine().run();
  EXPECT_EQ(m.metrics().write_combining.count(), 2u);
  EXPECT_DOUBLE_EQ(m.metrics().write_combining.mean(), 1.0);
}

TEST(NwcDrain, DrainPreservesSwapOrderWithinChannel) {
  Machine m(ringConfig());
  m.allocRegion(64 * 4096);
  m.start();
  // Staged out of address order: drain must copy 3 first (swap order),
  // and the batch planner then writes 1..3 anyway once all are staged.
  stageOnRing(m, 0, {3, 2, 1});
  m.kickDisk(0);
  m.engine().run();
  // All three end up written; combining still finds the consecutive run.
  ASSERT_GE(m.metrics().write_combining.count(), 1u);
  EXPECT_EQ(m.ring()->totalOccupancy(), 0);
}

TEST(NwcDrain, DrainPicksHeaviestChannelFirst) {
  Machine m(ringConfig());
  m.allocRegion(256 * 4096);
  m.start();
  // Disk 0 stores group 0 (pages 0..31) and group 4 (pages 128..159).
  // Channel 2 holds three of its pages, channel 5 only one.
  stageOnRing(m, 5, {10});
  stageOnRing(m, 2, {128, 129, 130});
  m.kickDisk(0);
  // Run only until the first batch is staged and written.
  m.engine().runUntil(10'000'000);
  // The heavier channel's pages must be staged (kDisk) before channel 5's.
  EXPECT_EQ(m.pageTable().entry(128).state, vm::PageState::kDisk);
  m.engine().run();
  EXPECT_EQ(m.pageTable().entry(10).state, vm::PageState::kDisk);
  EXPECT_EQ(m.ring()->totalOccupancy(), 0);
}

TEST(NwcDrain, AckFreesChannelSlotForWaitingSwapOut) {
  Machine m(ringConfig());
  m.allocRegion(64 * 4096);
  m.start();
  stageOnRing(m, 0, {1});
  ASSERT_EQ(m.ring()->occupancy(0), 1);
  m.kickDisk(0);
  m.engine().run();
  EXPECT_EQ(m.ring()->occupancy(0), 0);
  EXPECT_TRUE(m.ring()->hasRoom(0));
}

TEST(NwcDrain, VictimReadDuringDrainBacklogWins) {
  // Stage many pages; fault one from the middle of the backlog while the
  // drain is still working. The faulted page must come back dirty (it never
  // reached the disk) and exactly once.
  Machine m(ringConfig());
  m.allocRegion(64 * 4096);
  m.start();
  std::vector<PageId> staged;
  for (PageId p = 1; p <= 10; ++p) staged.push_back(p);
  stageOnRing(m, 0, staged);

  auto reader = [&]() -> Task<> {
    co_await m.access(3, 9 * 4096, false);  // page 9: deep in the backlog
    co_await m.fence(3);
    m.cpuDone(3);
  };
  m.engine().spawn(reader());
  m.kickDisk(0);
  m.engine().run();

  EXPECT_EQ(m.metrics().ring_read_hits.hits(), 1u);
  EXPECT_EQ(m.pageTable().entry(9).state, vm::PageState::kResident);
  EXPECT_EQ(m.pageTable().entry(9).home, 3);
  EXPECT_TRUE(m.pageTable().entry(9).dirty);
  // Everything else drained normally; the ring fully empties.
  EXPECT_EQ(m.ring()->totalOccupancy(), 0);
  EXPECT_EQ(m.nwcFifos(0).totalSize(), 0);
  EXPECT_TRUE(m.checkInvariants().empty());
}

TEST(NwcDrain, RecordsForDifferentDisksRouteIndependently) {
  Machine m(ringConfig());
  m.allocRegion(256 * 4096);
  m.start();
  // Page 1 -> disk 0; page 40 (group 1) -> disk 1.
  ASSERT_NE(m.pfs().diskOf(1), m.pfs().diskOf(40));
  stageOnRing(m, 0, {1});
  stageOnRing(m, 0, {40});
  m.kickDisk(m.pfs().diskOf(1));
  m.kickDisk(m.pfs().diskOf(40));
  m.engine().run();
  EXPECT_EQ(m.pageTable().entry(1).state, vm::PageState::kDisk);
  EXPECT_EQ(m.pageTable().entry(40).state, vm::PageState::kDisk);
  EXPECT_EQ(m.ring()->totalOccupancy(), 0);
}

TEST(NwcDrain, BurstBoundedByControllerCache) {
  // Stage more consecutive pages than controller slots: the first write can
  // combine at most `slots` pages (the paper's max factor 4).
  Machine m(ringConfig());
  m.allocRegion(64 * 4096);
  m.start();
  std::vector<PageId> staged;
  for (PageId p = 1; p <= 8; ++p) staged.push_back(p);
  stageOnRing(m, 0, staged);
  m.kickDisk(0);
  m.engine().run();
  ASSERT_GT(m.metrics().write_combining.count(), 0u);
  EXPECT_LE(m.metrics().write_combining.max(), 4.0);
  EXPECT_GT(m.metrics().write_combining.mean(), 1.0);
  EXPECT_EQ(m.ring()->totalOccupancy(), 0);
}

}  // namespace
}  // namespace nwc::machine
