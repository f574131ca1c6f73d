// Line-granularity MSI directory (DASH-like).
//
// Tracks, for every cached line, the owner (if modified) and sharer set.
// The directory is a synchronous bookkeeping structure: `onRead`/`onWrite`
// return the protocol actions required, and the machine model charges the
// corresponding bus/network latencies.
//
// Storage is page-blocked: line entries live in fixed blocks of
// kBlockLines consecutive lines, found through a table indexed by block
// number (line addresses come from the machine's dense virtual address
// space, which starts at 0). A block is taken from a free list when its
// first line is tracked and returned when its last line drops, so a
// lookup is two array loads and dropping an untracked page checks one
// block pointer.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace nwc::mem {

/// Protocol actions the caller must pay for.
struct CoherenceActions {
  bool owner_flush = false;       // dirty copy must be fetched from `owner`
  sim::NodeId owner = sim::kNoNode;
  int invalidations = 0;          // number of remote sharer copies invalidated
  std::uint64_t invalidate_mask = 0;  // bit i set => node i must drop the line
};

class Directory {
 public:
  explicit Directory(int num_nodes);

  /// Node `n` reads `line`: becomes a sharer; a modified remote copy is
  /// downgraded to shared.
  CoherenceActions onRead(sim::NodeId n, std::uint64_t line);

  /// Node `n` writes `line`: becomes exclusive owner; all other copies are
  /// invalidated.
  CoherenceActions onWrite(sim::NodeId n, std::uint64_t line);

  /// Owner evicted a dirty line (writeback to memory).
  void onWriteback(sim::NodeId n, std::uint64_t line);

  /// Drops all state for the lines of a page (page swapped out / migrated).
  /// Returns the union mask of nodes that held any of the lines.
  std::uint64_t dropPage(std::uint64_t first_line, std::uint64_t lines);

  std::size_t trackedLines() const { return tracked_; }

 private:
  // One 4 KB page of 64-byte L2 lines (the standard geometry), so a page
  // drop visits a single block.
  static constexpr std::uint64_t kBlockLines = 64;
  static constexpr int kNoBlock = -1;

  // A line is tracked iff some node shares it (an owner is always also a
  // sharer); untracked entries hold the default values.
  struct Entry {
    std::uint64_t sharers = 0;      // bitmask of nodes with a copy
    sim::NodeId owner = sim::kNoNode;  // kNoNode unless modified
  };

  struct Block {
    std::array<Entry, kBlockLines> lines{};
    int live = 0;  // tracked lines
  };

  /// The entry of `line`, tracked or not; nullptr if its block is absent.
  Entry* find(std::uint64_t line) {
    const std::uint64_t b = line / kBlockLines;
    if (b >= block_of_.size() || block_of_[b] == kNoBlock) return nullptr;
    return &blocks_[static_cast<std::size_t>(block_of_[b])].lines[line % kBlockLines];
  }

  /// The entry of `line`, counted as tracked: the caller must give it a
  /// sharer. Takes the line's block on first touch.
  Entry& track(std::uint64_t line);

  /// Resets the tracked entry `e` of `line` and returns its block to the
  /// free list if it was the block's last line.
  void untrack(Entry& e, std::uint64_t line);

  std::vector<int> block_of_;  // block number -> index in blocks_, or kNoBlock
  std::vector<Block> blocks_;
  std::vector<int> free_blocks_;
  std::size_t tracked_ = 0;
};

}  // namespace nwc::mem
