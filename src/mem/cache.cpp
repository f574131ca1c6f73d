#include "mem/cache.hpp"

#include <bit>
#include <cassert>

namespace nwc::mem {

SetAssocCache::SetAssocCache(const CacheParams& p) : params_(p) {
  assert(p.line_bytes > 0 && p.assoc > 0);
  const std::uint64_t lines = p.size_bytes / p.line_bytes;
  num_sets_ = lines / p.assoc;
  if (num_sets_ == 0) num_sets_ = 1;
  ways_.resize(num_sets_ * p.assoc);
  if (std::has_single_bit(static_cast<std::uint64_t>(p.line_bytes))) {
    line_shift_ = std::countr_zero(static_cast<std::uint64_t>(p.line_bytes));
  }
  if (std::has_single_bit(num_sets_)) {
    set_shift_ = std::countr_zero(num_sets_);
    set_mask_ = num_sets_ - 1;
  }
}

CacheOutcome SetAssocCache::fill(std::uint64_t addr, bool write) {
  const std::uint64_t line = lineOf(addr);
  const std::uint64_t set = setOf(line);
  Way* base = &ways_[set * params_.assoc];

  // Victim: the last invalid way, else the least recently used one.
  Way* victim = base;
  for (std::uint32_t w = 0; w < params_.assoc; ++w) {
    Way& way = base[w];
    if (!way.valid()) {
      victim = &way;
    } else if (victim->valid() && way.stamp < victim->stamp) {
      victim = &way;
    }
  }

  CacheOutcome out;
  if (victim->valid()) {
    out.evicted = true;
    out.evicted_dirty = victim->dirty();
    out.evicted_line = victim->tag * num_sets_ + set;
  }
  *victim = Way{tagOf(line), (++tick_ << 1) | static_cast<std::uint64_t>(write)};
  return out;
}

bool SetAssocCache::invalidateLine(std::uint64_t line_addr) {
  const std::uint64_t set = setOf(line_addr);
  const std::uint64_t tag = tagOf(line_addr);
  Way* base = &ways_[set * params_.assoc];
  for (std::uint32_t w = 0; w < params_.assoc; ++w) {
    Way& way = base[w];
    if (way.tag == tag) {
      const bool dirty = way.dirty();
      way = Way{};
      return dirty;
    }
  }
  return false;
}

int SetAssocCache::invalidatePage(std::uint64_t page_base, std::uint64_t page_bytes) {
  int dirty = 0;
  for (std::uint64_t a = page_base; a < page_base + page_bytes; a += params_.line_bytes) {
    if (invalidateLine(lineOf(a))) ++dirty;
  }
  return dirty;
}

void SetAssocCache::flushAll() {
  for (auto& w : ways_) w = Way{};
}

}  // namespace nwc::mem
