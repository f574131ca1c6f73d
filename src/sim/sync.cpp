#include "sim/sync.hpp"

namespace nwc::sim {

void CoMutex::enqueue(std::coroutine_handle<> h) {
  // A queue that never fully drains would keep its consumed prefix; drop
  // it once it is at least half the vector (amortized O(1) per waiter).
  if (head_ > 0 && 2 * std::size_t{head_} >= waiters_.size()) {
    waiters_.erase(waiters_.begin(), waiters_.begin() + head_);
    head_ = 0;
  }
  waiters_.push_back(h);
}

void CoMutex::unlock() {
  if (head_ == waiters_.size()) {
    locked_ = false;
    return;
  }
  // Hand the lock to the oldest waiter; `locked_` stays true.
  const std::coroutine_handle<> h = waiters_[head_++];
  if (head_ == waiters_.size()) {
    waiters_.clear();
    head_ = 0;
  }
  eng_->scheduleAt(eng_->now(), h);
}

void CoBarrier::releaseAll() {
  for (const std::coroutine_handle<> h : waiters_) eng_->scheduleAt(eng_->now(), h);
  waiters_.clear();
  arrived_ = 0;
  ++generation_;
}

}  // namespace nwc::sim
