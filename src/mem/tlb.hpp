// Fully-associative LRU translation lookaside buffer model.
//
// Each slot holds a page and the recency stamp of its last use; a
// FlatPageMap indexes pages to slots. A hit only rewrites the stamp (and a
// hit on the most recent page, the common case, not even that). An insert
// takes a free slot when there is one (shootdowns free slots, so a TLB
// that only ever maps its node's few resident frames never fills) and
// otherwise scans the slots for the smallest stamp. Stamps are unique and
// strictly increasing, so the victim is exactly the least-recently-used
// page. Inserts into a full TLB are rare (miss ratios around 1e-4), so the
// O(entries) scan costs less than keeping a linked recency list.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/flat_page_map.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace nwc::obs {
class MetricsRegistry;
}

namespace nwc::mem {

class Tlb {
 public:
  explicit Tlb(int entries = 64);

  /// True if `page` has a cached translation (counts toward hit stats and
  /// refreshes LRU).
  bool lookup(sim::PageId page) {
    if (touch(page)) {
      hits_.hit();
      return true;
    }
    hits_.miss();
    return false;
  }

  /// Installs a translation, evicting the LRU entry if full.
  void insert(sim::PageId page);

  /// Drops a translation (TLB-shootdown on rights downgrade).
  /// Returns true if the entry was present.
  bool invalidate(sim::PageId page);

  void flush();

  /// Calls `f(page)` for every cached translation, in slot order.
  template <class F>
  void forEachPage(F&& f) const {
    for (const Slot& s : slots_) {
      if (s.page != sim::kNoPage) f(s.page);
    }
  }

  int size() const { return static_cast<int>(index_.size()); }
  int capacity() const { return static_cast<int>(slots_.size()); }
  const sim::RatioCounter& hitStats() const { return hits_; }

  /// Registers TLB statistics under `prefix` (e.g. "tlb3.").
  void publishMetrics(obs::MetricsRegistry& reg, const std::string& prefix) const;

 private:
  struct Slot {
    sim::PageId page = sim::kNoPage;  // kNoPage while on free_
    std::uint64_t stamp = 0;
  };

  /// Makes `page` the most recent; false (and no change) if absent.
  bool touch(sim::PageId page) {
    if (page == mru_page_) return true;  // already the largest stamp
    const int* slot = index_.find(page);
    if (slot == nullptr) return false;
    slots_[static_cast<std::size_t>(*slot)].stamp = ++clock_;
    mru_page_ = page;
    return true;
  }

  std::vector<Slot> slots_;
  std::vector<int> free_;   // unoccupied slots
  sim::FlatPageMap index_;  // page -> slot
  sim::PageId mru_page_ = sim::kNoPage;
  std::uint64_t clock_ = 0;
  sim::RatioCounter hits_;
};

}  // namespace nwc::mem
