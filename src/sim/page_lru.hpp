// Bounded LRU set of pages with O(1) touch/insert/erase/victim.
//
// An intrusive doubly-linked list over a fixed node array (indices, not
// pointers — reusable and relocation-safe) with a FlatPageMap index. Backs
// the per-node frame pool. A page keeps its node (slot) for as long as it
// is in the list, so a caller that remembers the slot `pushMru` returned
// refreshes the page without touching the index. Recency order is total
// (every touch moves the page to MRU), so victim selection is exactly the
// unique least-recently-used page.
#pragma once

#include <cassert>
#include <vector>

#include "sim/flat_page_map.hpp"
#include "sim/types.hpp"

namespace nwc::sim {

class PageLruList {
 public:
  explicit PageLruList(int capacity = 0) { reset(capacity); }

  /// Clears and re-sizes for at most `capacity` pages.
  void reset(int capacity) {
    nodes_.assign(static_cast<std::size_t>(capacity), Node{});
    index_.reset(static_cast<std::size_t>(capacity));
    free_.clear();
    free_.reserve(nodes_.size());
    for (int i = capacity - 1; i >= 0; --i) free_.push_back(i);
    head_ = tail_ = kNil;
  }

  void clear() { reset(static_cast<int>(nodes_.size())); }

  int size() const { return static_cast<int>(index_.size()); }
  int capacity() const { return static_cast<int>(nodes_.size()); }

  /// Heap bytes held by the node array, free list and index (arena pool
  /// accounting; `reset()` reuses these allocations).
  std::size_t capacityBytes() const {
    return nodes_.capacity() * sizeof(Node) + free_.capacity() * sizeof(int) +
           index_.capacityBytes();
  }
  bool empty() const { return head_ == kNil; }
  bool contains(PageId page) const { return index_.contains(page); }

  /// Moves the page in `slot` to MRU. Precondition: the slot is occupied
  /// (it was returned by pushMru and its page not erased since).
  void touchSlot(int slot) {
    assert(pageAt(slot) != kNoPage);
    moveToTail(slot);
  }

  /// The page in `slot`, or kNoPage if the slot is free.
  PageId pageAt(int slot) const { return nodes_[static_cast<std::size_t>(slot)].page; }

  /// Inserts `page` at MRU and returns its slot, which stays valid until
  /// the page is erased. Precondition: !contains(page), size()<capacity.
  int pushMru(PageId page) {
    assert(!free_.empty() && "PageLruList over capacity");
    const int n = free_.back();
    free_.pop_back();
    nodes_[static_cast<std::size_t>(n)].page = page;
    linkTail(n);
    index_.set(page, n);
    return n;
  }

  /// Removes `page`; returns false if absent.
  bool erase(PageId page) {
    const int* n = index_.find(page);
    if (n == nullptr) return false;
    const int i = *n;
    unlink(i);
    nodes_[static_cast<std::size_t>(i)].page = kNoPage;
    free_.push_back(i);
    index_.erase(page);
    return true;
  }

  /// Least-recently-used page; kNoPage when empty.
  PageId lru() const {
    return head_ == kNil ? kNoPage : nodes_[static_cast<std::size_t>(head_)].page;
  }

 private:
  static constexpr int kNil = -1;

  struct Node {
    PageId page = kNoPage;
    int prev = kNil;
    int next = kNil;
  };

  void linkTail(int n) {
    Node& node = nodes_[static_cast<std::size_t>(n)];
    node.prev = tail_;
    node.next = kNil;
    if (tail_ != kNil)
      nodes_[static_cast<std::size_t>(tail_)].next = n;
    else
      head_ = n;
    tail_ = n;
  }

  void unlink(int n) {
    Node& node = nodes_[static_cast<std::size_t>(n)];
    if (node.prev != kNil)
      nodes_[static_cast<std::size_t>(node.prev)].next = node.next;
    else
      head_ = node.next;
    if (node.next != kNil)
      nodes_[static_cast<std::size_t>(node.next)].prev = node.prev;
    else
      tail_ = node.prev;
  }

  void moveToTail(int n) {
    if (tail_ == n) return;
    unlink(n);
    linkTail(n);
  }

  std::vector<Node> nodes_;
  std::vector<int> free_;
  FlatPageMap index_;
  int head_ = kNil;
  int tail_ = kNil;
};

}  // namespace nwc::sim
