// Lazily-started coroutine task used for every simulated process.
//
// A `Task<T>` is a coroutine that runs inside the discrete-event engine.
// It starts suspended; it is started either by `co_await`-ing it from
// another task (symmetric transfer, the awaiter becomes the continuation)
// or by `Engine::spawn`, which schedules it as a detached root process.
// A root owns its own frame: it unregisters from the engine and frees the
// frame when it finishes (see Engine::spawn).
//
// Single-shot: a task may be awaited at most once, and the Task object must
// outlive the coroutine's execution (the usual `co_await fn(args)` pattern
// satisfies this: the temporary lives until the await completes).
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <utility>

#include "sim/frame_alloc.hpp"

namespace nwc::sim {

class Engine;

template <typename T>
class Task;

namespace detail {

struct PromiseBase;

/// Unregisters the finished root `p` from its engine and destroys the frame
/// `h` (defined in engine.cpp).
void finishRoot(PromiseBase& p, std::coroutine_handle<> h) noexcept;

struct PromiseBase {
  std::coroutine_handle<> continuation{};
  std::exception_ptr exception{};
  Engine* root_engine = nullptr;  // set by Engine::spawn: a detached root
  std::uint32_t root_index = 0;   // this root's slot in the engine's roots
  bool finished = false;

  // Coroutine frames recycle through per-thread freelists (frame_alloc):
  // hot-path tasks allocate millions of identical frames per run. The
  // unsized overload frees with plain delete — recycled blocks are ordinary
  // operator-new allocations, so that is always valid, just unpooled.
  static void* operator new(std::size_t n) { return allocFrame(n); }
  static void operator delete(void* p, std::size_t n) noexcept { freeFrame(p, n); }
  static void operator delete(void* p) noexcept { ::operator delete(p); }

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <typename P>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<P> h) const noexcept {
      PromiseBase& p = h.promise();
      p.finished = true;
      if (p.continuation) return p.continuation;
      if (p.root_engine != nullptr) finishRoot(p, h);  // frees the frame
      return std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

template <typename T>
struct TaskPromise : PromiseBase {
  T value{};
  Task<T> get_return_object();
  void return_value(T v) { value = std::move(v); }
};

template <>
struct TaskPromise<void> : PromiseBase {
  Task<void> get_return_object();
  void return_void() {}
};

}  // namespace detail

/// Coroutine task carrying a result of type T (`Task<>` for plain processes).
template <typename T = void>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::TaskPromise<T>;
  using handle_type = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(handle_type h) : h_(h) {}
  Task(Task&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return h_ != nullptr; }
  bool done() const { return !h_ || h_.promise().finished; }

  /// Handle access. Ownership stays here.
  handle_type handle() const { return h_; }

  /// Releases ownership of the coroutine frame to the caller.
  handle_type release() { return std::exchange(h_, nullptr); }

  auto operator co_await() {
    struct Awaiter {
      handle_type h;
      bool await_ready() const { return !h || h.promise().finished; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) const {
        h.promise().continuation = cont;
        return h;  // start the child; it resumes us from final_suspend
      }
      T await_resume() const {
        auto& p = h.promise();
        if (p.exception) std::rethrow_exception(p.exception);
        if constexpr (!std::is_void_v<T>) return std::move(p.value);
      }
    };
    return Awaiter{h_};
  }

 private:
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = nullptr;
    }
  }
  handle_type h_{};
};

namespace detail {

template <typename T>
Task<T> TaskPromise<T>::get_return_object() {
  return Task<T>{std::coroutine_handle<TaskPromise<T>>::from_promise(*this)};
}

inline Task<void> TaskPromise<void>::get_return_object() {
  return Task<void>{std::coroutine_handle<TaskPromise<void>>::from_promise(*this)};
}

}  // namespace detail

}  // namespace nwc::sim
