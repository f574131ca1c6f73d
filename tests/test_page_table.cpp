// PageTable: entry states, change signals, per-entry mutual exclusion.
#include <gtest/gtest.h>

#include <vector>

#include "obs/profiler.hpp"
#include "sim/engine.hpp"
#include "vm/page_table.hpp"

namespace nwc::vm {
namespace {

TEST(PageTable, EntriesStartOnDisk) {
  sim::Engine e;
  PageTable pt(e, 16);
  EXPECT_EQ(pt.numPages(), 16);
  for (sim::PageId p = 0; p < 16; ++p) {
    EXPECT_EQ(pt.entry(p).state, PageState::kDisk);
    EXPECT_FALSE(pt.entry(p).dirty);
    EXPECT_EQ(pt.entry(p).home, sim::kNoNode);
  }
}

TEST(PageTable, AddPagesGrows) {
  sim::Engine e;
  PageTable pt(e, 4);
  pt.addPages(e, 6);
  EXPECT_EQ(pt.numPages(), 10);
  EXPECT_EQ(pt.entry(9).state, PageState::kDisk);
}

TEST(PageTable, RecycledEntriesComeBackPristine) {
  sim::Engine e;
  PageTable pt(e, 2);
  PageEntry& used = pt.entry(1);
  used.state = PageState::kResident;
  used.home = 3;
  used.frame_slot = 5;
  used.tlb_holders = used.cache_holders = 0xff;
  pt.recycle();
  pt.addPages(e, 2);
  const PageEntry& fresh = pt.entry(1);
  EXPECT_EQ(fresh.state, PageState::kDisk);
  EXPECT_EQ(fresh.home, sim::kNoNode);
  EXPECT_EQ(fresh.frame_slot, -1);
  EXPECT_EQ(fresh.tlb_holders, 0u);
  EXPECT_EQ(fresh.cache_holders, 0u);
}

TEST(PageTable, SetStatePulsesChanged) {
  sim::Engine e;
  PageTable pt(e, 2);
  int wakes = 0;
  auto waiter = [&]() -> sim::Task<> {
    co_await pt.entry(0).changed.wait();
    ++wakes;
  };
  e.spawn(waiter());
  e.spawn(waiter());
  auto setter = [&]() -> sim::Task<> {
    co_await e.delay(10);
    pt.setState(0, PageState::kTransit);
    co_return;
  };
  e.spawn(setter());
  e.run();
  EXPECT_EQ(wakes, 2);
  EXPECT_EQ(pt.entry(0).state, PageState::kTransit);
}

TEST(PageTable, CountInState) {
  sim::Engine e;
  PageTable pt(e, 5);
  pt.setState(0, PageState::kResident);
  pt.setState(1, PageState::kResident);
  pt.setState(2, PageState::kRing);
  EXPECT_EQ(pt.countInState(PageState::kResident), 2);
  EXPECT_EQ(pt.countInState(PageState::kRing), 1);
  EXPECT_EQ(pt.countInState(PageState::kDisk), 2);
}

TEST(PageTable, EntryMutexSerializes) {
  sim::Engine e;
  PageTable pt(e, 1);
  std::vector<int> order;
  auto t = [&](int id, sim::Tick hold) -> sim::Task<> {
    auto g = co_await pt.entry(0).mutex.scoped();
    co_await e.delay(hold);
    order.push_back(id);
  };
  e.spawn(t(0, 100));
  e.spawn(t(1, 10));
  e.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(e.now(), 110u);
}

TEST(PageTable, AddingPagesAllocatesO1) {
  // One entry-vector allocation however many pages: an entry's mutex and
  // change signal hold no heap memory until a waiter queues.
  sim::Engine e;
  PageTable pt(e, 0);
  (void)obs::prof::threadAllocCount();
  const std::uint64_t before = obs::prof::threadAllocCount();
  pt.addPages(e, 16384);
  EXPECT_LE(obs::prof::threadAllocCount() - before, 2u);
  EXPECT_EQ(pt.numPages(), 16384);
  // Recycled entries are reset in place: no allocation at all.
  pt.recycle();
  sim::Engine next;
  const std::uint64_t again = obs::prof::threadAllocCount();
  pt.addPages(next, 16384);
  EXPECT_EQ(obs::prof::threadAllocCount(), again);
}

TEST(PageTable, RecycledEntryMutexServesNewEngineAfterContention) {
  PageTable* pt = nullptr;
  std::vector<int> order;
  auto contend = [&](sim::Engine& e, int base) {
    auto t = [&](int id, sim::Tick arrive) -> sim::Task<> {
      co_await e.delay(arrive);
      auto g = co_await pt->entry(0).mutex.scoped();
      co_await e.delay(10);
      order.push_back(id);
    };
    for (int i = 0; i < 3; ++i) e.spawn(t(base + i, static_cast<sim::Tick>(i)));
    e.run();
  };
  sim::Engine first;
  PageTable table(first, 1);
  pt = &table;
  contend(first, 0);
  table.recycle();
  sim::Engine second;
  table.addPages(second, 1);
  EXPECT_FALSE(table.entry(0).mutex.locked());
  EXPECT_EQ(table.entry(0).mutex.waiterCount(), 0u);
  contend(second, 10);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 10, 11, 12}));
  EXPECT_EQ(second.now(), 30u);
}

TEST(PageTable, StateNames) {
  EXPECT_STREQ(toString(PageState::kDisk), "disk");
  EXPECT_STREQ(toString(PageState::kTransit), "transit");
  EXPECT_STREQ(toString(PageState::kResident), "resident");
  EXPECT_STREQ(toString(PageState::kRing), "ring");
  EXPECT_STREQ(toString(PageState::kSwapping), "swapping");
}

}  // namespace
}  // namespace nwc::vm
