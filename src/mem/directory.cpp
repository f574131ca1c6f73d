#include "mem/directory.hpp"

#include <algorithm>
#include <bit>

namespace nwc::mem {

Directory::Directory(int num_nodes) { (void)num_nodes; }

Directory::Entry& Directory::track(std::uint64_t line) {
  const std::uint64_t b = line / kBlockLines;
  if (b >= block_of_.size()) block_of_.resize(b + 1, kNoBlock);
  int& idx = block_of_[b];
  if (idx == kNoBlock) {
    if (free_blocks_.empty()) {
      idx = static_cast<int>(blocks_.size());
      blocks_.emplace_back();
    } else {
      idx = free_blocks_.back();
      free_blocks_.pop_back();
    }
  }
  Block& blk = blocks_[static_cast<std::size_t>(idx)];
  Entry& e = blk.lines[line % kBlockLines];
  if (e.sharers == 0) {
    ++blk.live;
    ++tracked_;
  }
  return e;
}

void Directory::untrack(Entry& e, std::uint64_t line) {
  e = Entry{};
  --tracked_;
  const std::uint64_t b = line / kBlockLines;
  if (--blocks_[static_cast<std::size_t>(block_of_[b])].live == 0) {
    free_blocks_.push_back(block_of_[b]);
    block_of_[b] = kNoBlock;
  }
}

CoherenceActions Directory::onRead(sim::NodeId n, std::uint64_t line) {
  CoherenceActions a;
  Entry& e = track(line);
  if (e.owner != sim::kNoNode && e.owner != n) {
    a.owner_flush = true;
    a.owner = e.owner;
  }
  e.owner = sim::kNoNode;  // downgraded to shared
  e.sharers |= std::uint64_t{1} << n;
  return a;
}

CoherenceActions Directory::onWrite(sim::NodeId n, std::uint64_t line) {
  CoherenceActions a;
  Entry& e = track(line);
  if (e.owner != sim::kNoNode && e.owner != n) {
    a.owner_flush = true;
    a.owner = e.owner;
  }
  const std::uint64_t others = e.sharers & ~(std::uint64_t{1} << n);
  a.invalidate_mask = others;
  a.invalidations = std::popcount(others);
  e.sharers = std::uint64_t{1} << n;
  e.owner = n;
  return a;
}

void Directory::onWriteback(sim::NodeId n, std::uint64_t line) {
  Entry* e = find(line);
  if (e == nullptr || e->sharers == 0) return;
  if (e->owner == n) e->owner = sim::kNoNode;
  e->sharers &= ~(std::uint64_t{1} << n);
  if (e->sharers == 0) untrack(*e, line);
}

std::uint64_t Directory::dropPage(std::uint64_t first_line, std::uint64_t lines) {
  std::uint64_t mask = 0;
  const std::uint64_t last = first_line + lines;
  for (std::uint64_t l = first_line; l < last;) {
    const std::uint64_t b = l / kBlockLines;
    const std::uint64_t block_end = std::min(last, (b + 1) * kBlockLines);
    if (b < block_of_.size() && block_of_[b] != kNoBlock) {
      // Stops once the block's last line drops (untrack then frees it).
      Block& blk = blocks_[static_cast<std::size_t>(block_of_[b])];
      for (std::uint64_t i = l; i < block_end && blk.live > 0; ++i) {
        Entry& e = blk.lines[i % kBlockLines];
        if (e.sharers == 0) continue;
        mask |= e.sharers;
        if (e.owner != sim::kNoNode) mask |= std::uint64_t{1} << e.owner;
        untrack(e, i);
      }
    }
    l = block_end;
  }
  return mask;
}

}  // namespace nwc::mem
