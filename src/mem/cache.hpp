// Set-associative write-back cache model (used for both L1 and L2).
//
// Purely synchronous bookkeeping: callers charge latencies. Addresses are
// full virtual addresses; the cache operates on line granularity.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/types.hpp"

namespace nwc::mem {

struct CacheParams {
  std::uint64_t size_bytes = 64 * 1024;
  std::uint32_t line_bytes = 32;
  std::uint32_t assoc = 2;
};

/// Outcome of a cache access.
struct CacheOutcome {
  bool hit = false;
  bool evicted = false;        // a valid line was displaced
  bool evicted_dirty = false;  // ... and it needs a writeback
  std::uint64_t evicted_line = 0;
};

class SetAssocCache {
 public:
  explicit SetAssocCache(const CacheParams& p);

  /// Looks up `addr`; on miss, fills the line (evicting LRU). A write marks
  /// the line dirty.
  CacheOutcome access(std::uint64_t addr, bool write) {
    if (accessIfHit(addr, write)) return CacheOutcome{.hit = true};
    return fill(addr, write);
  }

  /// Probe without side effects.
  bool contains(std::uint64_t addr) const { return findWay(addr) != nullptr; }

  /// `access()` restricted to the hit case: on hit, identical side effects
  /// (LRU update, dirty bit) and returns true; on miss leaves all state
  /// untouched. Lets the access fast path fuse its containment gate with
  /// the actual access (one set probe, not two).
  bool accessIfHit(std::uint64_t addr, bool write) {
    Way* way = findWay(addr);
    if (way == nullptr) return false;
    way->stamp = (++tick_ << 1) | (way->stamp & 1) | static_cast<std::uint64_t>(write);
    return true;
  }

  /// `access()` restricted to the miss case: installs the line of `addr`
  /// over its set's victim way without probing for a hit, so a miss path
  /// that already ran accessIfHit pays no second probe.
  /// Precondition: !contains(addr).
  CacheOutcome fill(std::uint64_t addr, bool write);

  /// Invalidates one line; returns true if the line was present and dirty.
  bool invalidateLine(std::uint64_t line_addr);

  /// Invalidates every line of the page starting at `page_base`.
  /// Returns the number of dirty lines dropped.
  int invalidatePage(std::uint64_t page_base, std::uint64_t page_bytes);

  void flushAll();

  /// Calls `f(line_addr)` with the first byte address of every valid line
  /// (invariant checks and tests; O(ways)).
  template <class F>
  void forEachValidLine(F&& f) const {
    for (std::size_t i = 0; i < ways_.size(); ++i) {
      const Way& w = ways_[i];
      if (w.valid()) f((w.tag * num_sets_ + i / params_.assoc) * params_.line_bytes);
    }
  }

  std::uint64_t lineBytes() const { return params_.line_bytes; }
  std::uint64_t lineOf(std::uint64_t addr) const {
    return line_shift_ >= 0 ? addr >> line_shift_ : addr / params_.line_bytes;
  }

 private:
  // Real tags are line numbers shifted right, far below this.
  static constexpr std::uint64_t kInvalidTag = ~std::uint64_t{0};

  // 16 bytes, so a 4-way set is one host cache line's worth. An invalid
  // way holds kInvalidTag, so a probe compares tags only; the dirty bit is
  // the low bit of the recency stamp.
  struct Way {
    std::uint64_t tag = kInvalidTag;
    std::uint64_t stamp = 0;  // (recency tick << 1) | dirty
    bool valid() const { return tag != kInvalidTag; }
    bool dirty() const { return (stamp & 1) != 0; }
  };

  /// The way holding `addr`'s line, or nullptr.
  const Way* findWay(std::uint64_t addr) const {
    const std::uint64_t line = lineOf(addr);
    const std::uint64_t tag = tagOf(line);
    const Way* base = &ways_[setOf(line) * params_.assoc];
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
      if (base[w].tag == tag) return &base[w];
    }
    return nullptr;
  }
  Way* findWay(std::uint64_t addr) {
    return const_cast<Way*>(std::as_const(*this).findWay(addr));
  }

  // Power-of-two geometries (every standard config) take the shift/mask
  // path; hardware divides showed up in access-path profiles.
  std::uint64_t setOf(std::uint64_t line) const {
    return set_shift_ >= 0 ? line & set_mask_ : line % num_sets_;
  }
  std::uint64_t tagOf(std::uint64_t line) const {
    return set_shift_ >= 0 ? line >> set_shift_ : line / num_sets_;
  }

  CacheParams params_;
  std::uint64_t num_sets_;
  int line_shift_ = -1;  // log2(line_bytes), or -1 if not a power of two
  int set_shift_ = -1;   // log2(num_sets_), or -1 if not a power of two
  std::uint64_t set_mask_ = 0;
  std::vector<Way> ways_;  // num_sets_ * assoc, row-major by set
  std::uint64_t tick_ = 0;
};

}  // namespace nwc::mem
