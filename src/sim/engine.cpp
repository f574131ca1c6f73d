#include "sim/engine.hpp"

#include <algorithm>
#include <utility>

namespace nwc::sim {

Engine::~Engine() {
  // Drop pending resumptions first, then free the frames of the roots that
  // never finished (their locals' destructors may still schedule wake-ups;
  // nothing resumes them).
  cal_.clear();
  for (RootHandle h : roots_) h.destroy();
}

void Engine::spawn(Task<> task) {
  if (!task.valid()) return;
  const RootHandle h = task.release();
  h.promise().root_engine = this;
  h.promise().root_index = static_cast<std::uint32_t>(roots_.size());
  roots_.push_back(h);
  scheduleAt(now_, h);
}

namespace detail {

void finishRoot(PromiseBase& p, std::coroutine_handle<> h) noexcept {
  Engine& eng = *p.root_engine;
  if (p.exception && !eng.root_error_) {
    eng.root_error_ = p.exception;
    eng.stop();
  }
  // Swap-remove: the last root takes this one's slot.
  const Engine::RootHandle last = eng.roots_.back();
  eng.roots_[p.root_index] = last;
  last.promise().root_index = p.root_index;
  eng.roots_.pop_back();
  h.destroy();
}

}  // namespace detail

Tick Engine::run() {
  stop_requested_ = false;
  return runLoop(kTickMax);
}

Tick Engine::runUntil(Tick t) {
  stop_requested_ = false;
  runLoop(t);
  now_ = std::max(now_, t);
  return now_;
}

Tick Engine::runLoop(Tick cap) {
  while (!stop_requested_ && !cal_.empty()) {
    if (cal_.peek().t > cap) break;
    const CalEntry e = cal_.pop();
    now_ = e.t;
    ++events_processed_;
    e.h.resume();
  }
  if (root_error_) std::rethrow_exception(std::exchange(root_error_, nullptr));
  return now_;
}

}  // namespace nwc::sim
