// Machine-wide page table (paper 3.1).
//
// One entry per virtual page. Entries are protected by a per-entry
// coroutine mutex (the paper: "each entry of which is accessed by the
// different processors with mutual exclusion") and carry the NWCache Ring
// bit plus the ring channel holding the page, which the victim-read path
// uses to fetch it back.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/trigger.hpp"
#include "sim/types.hpp"

namespace nwc::vm {

enum class PageState : std::uint8_t {
  kDisk,      // data lives on disk (possibly buffered in a controller cache)
  kTransit,   // a node is fetching it into memory
  kResident,  // mapped in some node's memory
  kRing,      // Ring bit set: the only copy is on the optical ring
  kSwapping,  // standard swap-out in flight to the disk controller cache
  kRemote,    // remote-memory baseline: stored in another node's spare frame
};

const char* toString(PageState s);

struct PageEntry {
  PageEntry(sim::Engine& eng) : mutex(eng), changed(eng) {}

  PageState state = PageState::kDisk;
  bool dirty = false;                        // modified since last disk copy
  bool referenced = false;                   // has ever been faulted in
  sim::NodeId home = sim::kNoNode;           // holder node while kResident
  int frame_slot = -1;                       // home FramePool slot while kResident
  int ring_channel = -1;                     // channel while kRing

  // Nodes that may hold a translation (tlb_holders) or an L1/L2 line
  // (cache_holders) of this page, one bit per node. A bit is set when the
  // node fills its TLB or caches for the page and cleared only when the
  // page is claimed for eviction, so each mask is a superset of the real
  // holders and eviction visits only these nodes. Machine::checkInvariants
  // verifies the superset property.
  std::uint64_t tlb_holders = 0;
  std::uint64_t cache_holders = 0;

  sim::CoMutex mutex;   // serializes fault/swap transitions on this entry
  sim::Signal changed;  // pulsed on every state transition

  /// Returns a used entry to its pristine post-construction state, bound to
  /// `eng` (page-table pooling across Machine lifetimes). Precondition: the
  /// previous run drained (mutex unlocked, no waiters).
  void reset(sim::Engine& eng) {
    state = PageState::kDisk;
    home = sim::kNoNode;
    frame_slot = -1;
    ring_channel = -1;
    dirty = false;
    referenced = false;
    tlb_holders = 0;
    cache_holders = 0;
    mutex.rebind(eng);
    changed.rebind(eng);
  }
};

/// Entries live in one contiguous vector: one indirection on the access
/// fast path and one big allocation (instead of one per page) that
/// `MachineArena` can recycle across grid cells. Growth only happens before
/// the simulation starts, so entry references taken by running coroutines
/// are never invalidated.
class PageTable {
 public:
  PageTable(sim::Engine& eng, std::int64_t num_pages);

  /// Appends `count` fresh entries (used while regions are being mapped).
  void addPages(sim::Engine& eng, std::int64_t count);

  /// Empties the table for reuse, keeping the underlying capacity (entries
  /// are re-initialized and rebound on the next addPages).
  void recycle();

  PageEntry& entry(sim::PageId p) { return entries_[static_cast<std::size_t>(p)]; }
  const PageEntry& entry(sim::PageId p) const { return entries_[static_cast<std::size_t>(p)]; }

  std::int64_t numPages() const { return static_cast<std::int64_t>(live_); }

  /// Heap bytes retained by the entry storage (arena reporting).
  std::uint64_t capacityBytes() const { return entries_.capacity() * sizeof(PageEntry); }

  /// Transitions `p` to `s` and pulses the entry's change signal.
  void setState(sim::PageId p, PageState s);

  /// Counts entries currently in state `s` (O(n); for tests/validators).
  std::int64_t countInState(PageState s) const;

 private:
  // entries_.size() can exceed live_ after recycle(): stale tail entries
  // keep their heap allocations and are reset() when re-used.
  std::vector<PageEntry> entries_;
  std::size_t live_ = 0;
};

}  // namespace nwc::vm
