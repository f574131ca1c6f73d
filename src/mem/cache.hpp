// Set-associative write-back cache model (used for both L1 and L2).
//
// Purely synchronous bookkeeping: callers charge latencies. Addresses are
// full virtual addresses; the cache operates on line granularity.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/stats.hpp"
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
  CacheOutcome access(std::uint64_t addr, bool write);

  /// Probe without side effects.
  bool contains(std::uint64_t addr) const;

  /// `access()` restricted to the hit case: on hit, identical side effects
  /// (LRU update, dirty bit, hit counter) and returns true; on miss leaves
  /// all state and counters untouched. Lets the access fast path fuse its
  /// containment gate with the actual access (one set probe, not two).
  bool accessIfHit(std::uint64_t addr, bool write);

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
      if (w.valid) f((w.tag * num_sets_ + i / params_.assoc) * params_.line_bytes);
    }
  }

  std::uint64_t lineBytes() const { return params_.line_bytes; }
  std::uint64_t lineOf(std::uint64_t addr) const {
    return line_shift_ >= 0 ? addr >> line_shift_ : addr / params_.line_bytes;
  }

  const sim::RatioCounter& hitStats() const { return hits_; }
  sim::RatioCounter& hitStats() { return hits_; }

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;
    bool valid = false;
    bool dirty = false;
  };

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
  sim::RatioCounter hits_;
};

}  // namespace nwc::mem
