// Calendar queue for the discrete-event engine.
//
// Three tiers replace the old std::priority_queue min-heap:
//  - `run_` holds the current tick's batch when a tick has more than one
//    event. pop() peels the whole minimum-tick group out of the heap in one
//    go, and events scheduled *at* the running tick append in O(1) — the
//    sequence counter is monotone, so the batch stays sorted by
//    construction. Same-tick wake storms (Signal::notifyAll, barrier
//    releases, coherence fan-out) never sift through the heap. Singleton
//    ticks — the common case — bypass the batch entirely.
//  - `heap_` is a 4-ary min-heap on (tick, seq) for future events:
//    shallower than a binary heap, with hole-insertion sifts (one element
//    move per level instead of a three-move swap).
//  - `slot_` is a one-entry front slot ahead of the heap. A push that sorts
//    before `heap_[0]` while no batch is pending parks there, and the next
//    pop takes it without touching the heap: the common chain "pop an
//    event, schedule its successor earlier than anything else pending"
//    skips both sifts. A later push that sorts before the slot's entry
//    demotes that entry into the heap, so the slot always holds the
//    earliest non-batch entry.
//
// Pop order is exactly global (tick, seq) ascending — the same total order
// the old heap produced — so simulated results are byte-identical.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace nwc::sim {

struct CalEntry {
  Tick t;
  std::uint64_t seq;
  std::coroutine_handle<> h;
};

class CalendarQueue {
 public:
  bool empty() const { return runEmpty() && !has_slot_ && heap_.empty(); }

  std::size_t size() const {
    return (run_.size() - run_pos_) + (has_slot_ ? 1 : 0) + heap_.size();
  }

  void reserve(std::size_t n) {
    heap_.reserve(n);
    run_.reserve(64);
  }

  /// Inserts (t, seq, h). `seq` values must be strictly increasing across
  /// calls (the engine's schedule counter guarantees it); ties on `t` pop in
  /// seq order.
  void push(Tick t, std::uint64_t seq, std::coroutine_handle<> h) {
    if (t == run_t_ && draining_) {
      // Scheduled at the tick currently being drained: the new seq is larger
      // than every seq already in the batch, so appending keeps it sorted.
      // (While tick T drains the heap holds no entry at T — pop() peeled
      // them — so the batch alone owns this tick.)
      run_.push_back(CalEntry{t, seq, h});
      return;
    }
    const CalEntry e{t, seq, h};
    if (has_slot_) {
      if (!entryLess(e, slot_)) {
        heapPush(e);  // behind the slot: the slot stays the front
        return;
      }
      heapPush(slot_);  // e overtakes the slot's entry: demote it
      has_slot_ = false;
    }
    if (runEmpty() && (heap_.empty() || entryLess(e, heap_[0]))) {
      slot_ = e;
      has_slot_ = true;
    } else {
      heapPush(e);
    }
    assert(slotSortsFirst());
  }

  /// The next entry in (t, seq) order. Pre: !empty().
  const CalEntry& peek() const {
    if (!runEmpty()) return run_[run_pos_];
    if (has_slot_) return slot_;
    return heap_[0];
  }

  /// Removes and returns the next entry. Pre: !empty().
  CalEntry pop() {
    if (!runEmpty()) {
      const CalEntry e = run_[run_pos_++];
      if (run_pos_ >= run_.size()) {
        run_.clear();
        run_pos_ = 0;
        // Stay draining: run_t_ still owns this tick, so late same-tick
        // pushes keep appending (and pop first, correctly — anything in
        // the heap is at a later tick).
      }
      return e;
    }
    assert(slotSortsFirst());
    const CalEntry top = has_slot_ ? takeSlot() : heapPopTop();
    draining_ = true;
    run_t_ = top.t;
    if (!heap_.empty() && heap_[0].t == top.t) {
      // Same-tick group: peel the rest into the run batch so subsequent
      // pops and same-tick pushes skip the heap. (Only the heap can hold
      // them: the slot, if it held anything, just popped.)
      run_.clear();
      run_pos_ = 0;
      do {
        run_.push_back(heapPopTop());
      } while (!heap_.empty() && heap_[0].t == top.t);
    }
    return top;
  }

  /// Drops every pending entry (handles are non-owning).
  void clear() {
    run_.clear();
    run_pos_ = 0;
    draining_ = false;
    run_t_ = 0;
    has_slot_ = false;
    heap_.clear();
  }

 private:
  static bool entryLess(const CalEntry& a, const CalEntry& b) {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  }

  bool runEmpty() const { return run_pos_ >= run_.size(); }

  CalEntry takeSlot() {
    has_slot_ = false;
    return slot_;
  }

  /// The front-slot invariant: a held slot entry sorts before every heap
  /// entry.
  bool slotSortsFirst() const {
    return !has_slot_ || heap_.empty() || entryLess(slot_, heap_[0]);
  }

  void heapPush(const CalEntry& e) {
    std::size_t i = heap_.size();
    heap_.push_back(e);
    while (i > 0) {
      const std::size_t p = (i - 1) >> 2;
      if (!entryLess(e, heap_[p])) break;
      heap_[i] = heap_[p];
      i = p;
    }
    heap_[i] = e;
  }

  CalEntry heapPopTop() {
    const CalEntry top = heap_[0];
    const CalEntry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      std::size_t i = 0;
      const std::size_t n = heap_.size();
      for (;;) {
        const std::size_t c = 4 * i + 1;
        if (c >= n) break;
        std::size_t m = c;
        const std::size_t end = c + 4 < n ? c + 4 : n;
        for (std::size_t j = c + 1; j < end; ++j) {
          if (entryLess(heap_[j], heap_[m])) m = j;
        }
        if (!entryLess(heap_[m], last)) break;
        heap_[i] = heap_[m];
        i = m;
      }
      heap_[i] = last;
    }
    return top;
  }

  std::vector<CalEntry> run_;   // current-tick batch, ascending seq
  std::size_t run_pos_ = 0;     // cursor into run_
  Tick run_t_ = 0;              // tick being drained (valid when draining_)
  bool draining_ = false;       // a pop has happened; run_t_ is live
  bool has_slot_ = false;       // slot_ holds an entry
  CalEntry slot_{};             // front slot: sorts before heap_[0]
  std::vector<CalEntry> heap_;  // 4-ary min-heap on (t, seq), ticks > run_t_
};

}  // namespace nwc::sim
