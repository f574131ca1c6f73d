// Tlb: LRU translations, shootdown invalidation.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <random>
#include <vector>

#include "mem/tlb.hpp"

namespace nwc::mem {
namespace {

TEST(Tlb, MissThenHit) {
  Tlb t(4);
  EXPECT_FALSE(t.lookup(7));
  t.insert(7);
  EXPECT_TRUE(t.lookup(7));
}

TEST(Tlb, LruEvictionAtCapacity) {
  Tlb t(2);
  t.insert(1);
  t.insert(2);
  EXPECT_TRUE(t.lookup(1));  // refresh 1 -> 2 is LRU
  t.insert(3);
  EXPECT_TRUE(t.lookup(1));
  EXPECT_FALSE(t.lookup(2));
  EXPECT_TRUE(t.lookup(3));
}

TEST(Tlb, InsertExistingRefreshes) {
  Tlb t(2);
  t.insert(1);
  t.insert(2);
  t.insert(1);  // refresh, no growth
  EXPECT_EQ(t.size(), 2);
  t.insert(3);  // evicts 2
  EXPECT_FALSE(t.lookup(2));
}

TEST(Tlb, InvalidateRemovesEntry) {
  Tlb t(4);
  t.insert(5);
  EXPECT_TRUE(t.invalidate(5));
  EXPECT_FALSE(t.invalidate(5));
  EXPECT_FALSE(t.lookup(5));
}

TEST(Tlb, FlushEmptiesAll) {
  Tlb t(4);
  t.insert(1);
  t.insert(2);
  t.flush();
  EXPECT_EQ(t.size(), 0);
  EXPECT_FALSE(t.lookup(1));
}

TEST(Tlb, HitStats) {
  Tlb t(4);
  t.lookup(1);
  t.insert(1);
  t.lookup(1);
  EXPECT_EQ(t.hitStats().total(), 2u);
  EXPECT_EQ(t.hitStats().hits(), 1u);
}

TEST(Tlb, CapacityRespected) {
  Tlb t(64);
  for (sim::PageId p = 0; p < 200; ++p) t.insert(p);
  EXPECT_EQ(t.size(), 64);
  EXPECT_EQ(t.capacity(), 64);
}

// Reference model: a std::list in recency order (front = MRU).
class ListLru {
 public:
  explicit ListLru(std::size_t cap) : cap_(cap) {}
  bool touch(sim::PageId p) {
    auto it = std::find(order_.begin(), order_.end(), p);
    if (it == order_.end()) return false;
    order_.splice(order_.begin(), order_, it);
    return true;
  }
  void insert(sim::PageId p) {
    if (touch(p)) return;
    if (order_.size() == cap_) order_.pop_back();
    order_.push_front(p);
  }
  bool erase(sim::PageId p) {
    auto it = std::find(order_.begin(), order_.end(), p);
    if (it == order_.end()) return false;
    order_.erase(it);
    return true;
  }
  void clear() { order_.clear(); }
  std::vector<sim::PageId> sorted() const {
    std::vector<sim::PageId> v(order_.begin(), order_.end());
    std::sort(v.begin(), v.end());
    return v;
  }

 private:
  std::size_t cap_;
  std::list<sim::PageId> order_;
};

std::vector<sim::PageId> pagesOf(const Tlb& t) {
  std::vector<sim::PageId> v;
  t.forEachPage([&](sim::PageId p) { v.push_back(p); });
  std::sort(v.begin(), v.end());
  return v;
}

TEST(Tlb, MatchesListLruUnderRandomTraffic) {
  for (const int cap : {1, 4, 64}) {
    Tlb t(cap);
    ListLru ref(static_cast<std::size_t>(cap));
    std::mt19937_64 rng(static_cast<std::uint64_t>(cap));
    std::uint64_t hits = 0;
    std::uint64_t lookups = 0;
    sim::PageId page = 0;
    for (int i = 0; i < 100000; ++i) {
      // A working set a little larger than the TLB, with runs on one page.
      if (rng() % 3 != 0) page = static_cast<sim::PageId>(rng() % (2 * cap + 3));
      const unsigned op = static_cast<unsigned>(rng() % 100);
      if (op < 70) {
        const bool hit = ref.touch(page);
        ASSERT_EQ(t.lookup(page), hit) << "cap " << cap << " step " << i;
        hits += hit;
        ++lookups;
        if (!hit) {
          t.insert(page);
          ref.insert(page);
        }
      } else if (op < 90) {
        t.insert(page);
        ref.insert(page);
      } else if (op < 99) {
        ASSERT_EQ(t.invalidate(page), ref.erase(page)) << "cap " << cap << " step " << i;
      } else {
        t.flush();
        ref.clear();
      }
      ASSERT_EQ(t.size(), static_cast<int>(ref.sorted().size()));
      if (i % 64 == 0) {
        ASSERT_EQ(pagesOf(t), ref.sorted()) << "cap " << cap << " step " << i;
      }
    }
    EXPECT_EQ(pagesOf(t), ref.sorted());
    EXPECT_EQ(t.hitStats().hits(), hits);
    EXPECT_EQ(t.hitStats().total(), lookups);
  }
}

}  // namespace
}  // namespace nwc::mem
