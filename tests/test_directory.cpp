// Directory: MSI protocol actions.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <random>

#include "mem/directory.hpp"

namespace nwc::mem {
namespace {

TEST(Directory, FirstReadHasNoActions) {
  Directory d(8);
  auto a = d.onRead(0, 100);
  EXPECT_FALSE(a.owner_flush);
  EXPECT_EQ(a.invalidations, 0);
}

TEST(Directory, ReadAfterRemoteWriteFlushesOwner) {
  Directory d(8);
  d.onWrite(3, 100);
  auto a = d.onRead(1, 100);
  EXPECT_TRUE(a.owner_flush);
  EXPECT_EQ(a.owner, 3);
  // A second read finds the line shared, no flush.
  auto b = d.onRead(2, 100);
  EXPECT_FALSE(b.owner_flush);
}

TEST(Directory, WriteInvalidatesAllSharers) {
  Directory d(8);
  d.onRead(0, 42);
  d.onRead(1, 42);
  d.onRead(2, 42);
  auto a = d.onWrite(1, 42);
  EXPECT_EQ(a.invalidations, 2);
  EXPECT_EQ(a.invalidate_mask, (1u << 0) | (1u << 2));
}

TEST(Directory, WriterReWriteIsFree) {
  Directory d(8);
  d.onWrite(4, 7);
  auto a = d.onWrite(4, 7);
  EXPECT_EQ(a.invalidations, 0);
  EXPECT_FALSE(a.owner_flush);
}

TEST(Directory, WriteAfterRemoteWriteFlushesAndInvalidates) {
  Directory d(8);
  d.onWrite(2, 9);
  auto a = d.onWrite(5, 9);
  EXPECT_TRUE(a.owner_flush);
  EXPECT_EQ(a.owner, 2);
  EXPECT_EQ(a.invalidations, 1);
  EXPECT_EQ(a.invalidate_mask, 1u << 2);
}

TEST(Directory, WritebackClearsOwnership) {
  Directory d(8);
  d.onWrite(1, 5);
  d.onWriteback(1, 5);
  auto a = d.onRead(0, 5);
  EXPECT_FALSE(a.owner_flush);
}

TEST(Directory, WritebackByNonOwnerKeepsOwner) {
  Directory d(8);
  d.onWrite(1, 5);
  d.onWriteback(2, 5);  // stale message from another node
  auto a = d.onRead(0, 5);
  EXPECT_TRUE(a.owner_flush);
  EXPECT_EQ(a.owner, 1);
}

TEST(Directory, DropPageReturnsHolderMask) {
  Directory d(8);
  d.onRead(0, 128);
  d.onRead(3, 129);
  d.onWrite(6, 130);
  const auto mask = d.dropPage(128, 3);
  EXPECT_EQ(mask, (1u << 0) | (1u << 3) | (1u << 6));
  EXPECT_EQ(d.trackedLines(), 0u);
}

TEST(Directory, DropPageOutsideRangeKeepsOthers) {
  Directory d(8);
  d.onRead(0, 10);
  d.onRead(0, 200);
  d.dropPage(10, 1);
  EXPECT_EQ(d.trackedLines(), 1u);
}

TEST(Directory, OnlyTheFirstReadOfARemoteDirtyLineFlushes) {
  Directory d(8);
  d.onWrite(1, 77);
  const auto a = d.onRead(2, 77);  // remote dirty: the owner flushes
  EXPECT_TRUE(a.owner_flush);
  EXPECT_EQ(a.owner, 1);
  const auto b = d.onRead(3, 77);  // now shared
  EXPECT_FALSE(b.owner_flush);
  EXPECT_EQ(b.owner, sim::kNoNode);
}

TEST(Directory, DropPageSpanningBlocksAndRetrackAfterFree) {
  Directory d(8);
  d.onRead(1, 60);
  d.onWrite(2, 70);  // another 64-line block
  d.onRead(3, 200);
  EXPECT_EQ(d.dropPage(50, 30), (1u << 1) | (1u << 2));
  EXPECT_EQ(d.trackedLines(), 1u);
  EXPECT_FALSE(d.onRead(4, 70).owner_flush);  // freed block, clean entry
  EXPECT_EQ(d.trackedLines(), 2u);
  d.onWriteback(4, 70);
  d.onWriteback(3, 200);
  EXPECT_EQ(d.trackedLines(), 0u);
}

// Reference model: the MSI rules over a std::map of tracked lines.
class MapDirectory {
 public:
  struct Entry {
    std::uint64_t sharers = 0;
    sim::NodeId owner = sim::kNoNode;
  };

  CoherenceActions onRead(sim::NodeId n, std::uint64_t line) {
    CoherenceActions a;
    Entry& e = map_[line];
    if (e.owner != sim::kNoNode && e.owner != n) {
      a.owner_flush = true;
      a.owner = e.owner;
    }
    e.owner = sim::kNoNode;
    e.sharers |= std::uint64_t{1} << n;
    return a;
  }
  CoherenceActions onWrite(sim::NodeId n, std::uint64_t line) {
    CoherenceActions a;
    Entry& e = map_[line];
    if (e.owner != sim::kNoNode && e.owner != n) {
      a.owner_flush = true;
      a.owner = e.owner;
    }
    a.invalidate_mask = e.sharers & ~(std::uint64_t{1} << n);
    a.invalidations = std::popcount(a.invalidate_mask);
    e = Entry{std::uint64_t{1} << n, n};
    return a;
  }
  void onWriteback(sim::NodeId n, std::uint64_t line) {
    auto it = map_.find(line);
    if (it == map_.end()) return;
    if (it->second.owner == n) it->second.owner = sim::kNoNode;
    it->second.sharers &= ~(std::uint64_t{1} << n);
    if (it->second.sharers == 0) map_.erase(it);
  }
  std::uint64_t dropPage(std::uint64_t first, std::uint64_t lines) {
    std::uint64_t mask = 0;
    for (auto it = map_.lower_bound(first); it != map_.end() && it->first < first + lines;) {
      mask |= it->second.sharers;
      if (it->second.owner != sim::kNoNode) mask |= std::uint64_t{1} << it->second.owner;
      it = map_.erase(it);
    }
    return mask;
  }
  std::size_t size() const { return map_.size(); }

 private:
  std::map<std::uint64_t, Entry> map_;
};

TEST(Directory, MatchesMapModelUnderRandomTraffic) {
  Directory d(8);
  MapDirectory ref;
  std::mt19937_64 rng(2026);
  constexpr std::uint64_t kLines = 64 * 40;  // 40 pages of 64 lines
  for (int i = 0; i < 200000; ++i) {
    const auto n = static_cast<sim::NodeId>(rng() % 8);
    const std::uint64_t line = rng() % kLines;
    const unsigned op = static_cast<unsigned>(rng() % 100);
    if (op < 40) {
      const auto a = d.onRead(n, line);
      const auto b = ref.onRead(n, line);
      ASSERT_EQ(a.owner_flush, b.owner_flush) << "step " << i;
      ASSERT_EQ(a.owner, b.owner) << "step " << i;
    } else if (op < 70) {
      const auto a = d.onWrite(n, line);
      const auto b = ref.onWrite(n, line);
      ASSERT_EQ(a.owner_flush, b.owner_flush) << "step " << i;
      ASSERT_EQ(a.owner, b.owner) << "step " << i;
      ASSERT_EQ(a.invalidate_mask, b.invalidate_mask) << "step " << i;
      ASSERT_EQ(a.invalidations, b.invalidations) << "step " << i;
    } else if (op < 97) {
      d.onWriteback(n, line);
      ref.onWriteback(n, line);
    } else {
      // Whole pages as the machine drops them, and unaligned ranges that
      // straddle block boundaries.
      const bool whole = rng() % 2 == 0;
      const std::uint64_t first = whole ? line / 64 * 64 : line;
      const std::uint64_t lines = whole ? 64 : 1 + rng() % 150;
      ASSERT_EQ(d.dropPage(first, lines), ref.dropPage(first, lines)) << "step " << i;
    }
    ASSERT_EQ(d.trackedLines(), ref.size()) << "step " << i;
  }
  EXPECT_EQ(d.dropPage(0, kLines + 200), ref.dropPage(0, kLines + 200));
  EXPECT_EQ(d.trackedLines(), 0u);
}

}  // namespace
}  // namespace nwc::mem
