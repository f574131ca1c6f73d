#include "mem/tlb.hpp"

#include <cassert>

#include "obs/registry.hpp"

namespace nwc::mem {

Tlb::Tlb(int entries)
    : slots_(static_cast<std::size_t>(entries)),
      index_(static_cast<std::size_t>(entries)) {
  assert(entries > 0);
  flush();
}

void Tlb::insert(sim::PageId page) {
  if (touch(page)) return;
  int victim = 0;
  if (!free_.empty()) {
    victim = free_.back();
    free_.pop_back();
  } else {
    for (int i = 1; i < capacity(); ++i) {
      if (slots_[static_cast<std::size_t>(i)].stamp <
          slots_[static_cast<std::size_t>(victim)].stamp) {
        victim = i;
      }
    }
    index_.erase(slots_[static_cast<std::size_t>(victim)].page);
  }
  slots_[static_cast<std::size_t>(victim)] = Slot{page, ++clock_};
  index_.set(page, victim);
  mru_page_ = page;
}

bool Tlb::invalidate(sim::PageId page) {
  const int* slot = index_.find(page);
  if (slot == nullptr) return false;
  slots_[static_cast<std::size_t>(*slot)] = Slot{};
  free_.push_back(*slot);
  index_.erase(page);
  if (page == mru_page_) mru_page_ = sim::kNoPage;
  return true;
}

void Tlb::flush() {
  for (Slot& s : slots_) s = Slot{};
  free_.clear();
  for (int i = capacity() - 1; i >= 0; --i) free_.push_back(i);
  index_.clear();
  mru_page_ = sim::kNoPage;
}

void Tlb::publishMetrics(obs::MetricsRegistry& reg, const std::string& prefix) const {
  obs::publish(reg, prefix + "lookup", hits_);
  reg.gauge(prefix + "entries", capacity());
}

}  // namespace nwc::mem
