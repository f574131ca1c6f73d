// Engine: calendar ordering, determinism, task lifecycle, clamp counting.
#include <gtest/gtest.h>

#include <memory>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/calendar.hpp"
#include "sim/engine.hpp"
#include "sim/frame_alloc.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"
#include "sim/trigger.hpp"

namespace nwc::sim {
namespace {

Task<> delayer(Engine& e, Tick d, std::vector<Tick>* log) {
  co_await e.delay(d);
  log->push_back(e.now());
}

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0u);
  EXPECT_EQ(e.eventsProcessed(), 0u);
  EXPECT_EQ(e.pendingEvents(), 0u);
}

TEST(Engine, DelayAdvancesClock) {
  Engine e;
  std::vector<Tick> log;
  e.spawn(delayer(e, 100, &log));
  e.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], 100u);
  EXPECT_EQ(e.now(), 100u);
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine e;
  std::vector<Tick> log;
  e.spawn(delayer(e, 300, &log));
  e.spawn(delayer(e, 100, &log));
  e.spawn(delayer(e, 200, &log));
  e.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], 100u);
  EXPECT_EQ(log[1], 200u);
  EXPECT_EQ(log[2], 300u);
}

TEST(Engine, EqualTimeEventsFireInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  auto mk = [&](int id) -> Task<> {
    co_await e.delay(50);
    order.push_back(id);
  };
  for (int i = 0; i < 8; ++i) e.spawn(mk(i));
  e.run();
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, ZeroDelayIsReadyImmediately) {
  Engine e;
  bool ran = false;
  auto t = [&]() -> Task<> {
    co_await e.delay(0);
    ran = true;
  };
  e.spawn(t());
  e.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(e.now(), 0u);
}

TEST(Engine, WaitUntilPastTimeDoesNotSuspend) {
  Engine e;
  std::uint64_t events_before = 0;
  auto t = [&]() -> Task<> {
    co_await e.delay(100);
    events_before = e.eventsProcessed();
    co_await e.waitUntil(50);  // already past
    EXPECT_EQ(e.now(), 100u);
  };
  e.spawn(t());
  e.run();
  // The waitUntil(50) must not have produced an extra event.
  EXPECT_EQ(e.eventsProcessed(), events_before);
}

TEST(Engine, RunUntilStopsAtBoundary) {
  Engine e;
  std::vector<Tick> log;
  e.spawn(delayer(e, 100, &log));
  e.spawn(delayer(e, 200, &log));
  e.runUntil(150);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(e.now(), 150u);
  e.run();
  EXPECT_EQ(log.size(), 2u);
}

TEST(Engine, StopHaltsProcessing) {
  Engine e;
  int count = 0;
  auto t = [&]() -> Task<> {
    for (;;) {
      co_await e.delay(10);
      if (++count == 5) e.stop();
    }
  };
  e.spawn(t());
  e.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(e.now(), 50u);
}

TEST(Engine, TaskReturnsValue) {
  Engine e;
  auto child = [&]() -> Task<int> {
    co_await e.delay(5);
    co_return 42;
  };
  int got = 0;
  auto parent = [&]() -> Task<> { got = co_await child(); };
  e.spawn(parent());
  e.run();
  EXPECT_EQ(got, 42);
}

TEST(Engine, NestedTasksComposeTimes) {
  Engine e;
  auto leaf = [&]() -> Task<> { co_await e.delay(10); };
  auto mid = [&]() -> Task<> {
    co_await leaf();
    co_await leaf();
  };
  Tick end = 0;
  auto top = [&]() -> Task<> {
    co_await mid();
    end = e.now();
  };
  e.spawn(top());
  e.run();
  EXPECT_EQ(end, 20u);
}

TEST(Engine, ExceptionPropagatesToAwaiter) {
  Engine e;
  auto thrower = [&]() -> Task<> {
    co_await e.delay(1);
    throw std::runtime_error("boom");
  };
  bool caught = false;
  auto top = [&]() -> Task<> {
    try {
      co_await thrower();
    } catch (const std::runtime_error&) {
      caught = true;
    }
  };
  e.spawn(top());
  e.run();
  EXPECT_TRUE(caught);
}

TEST(Engine, AllSpawnedDoneTracksCompletion) {
  std::vector<Tick> log;
  Engine e;
  e.spawn(delayer(e, 10, &log));
  EXPECT_FALSE(e.allSpawnedDone());
  e.run();
  EXPECT_TRUE(e.allSpawnedDone());
}

TEST(Engine, ManyTasksAreReaped) {
  Engine e;
  std::vector<Tick> log;
  for (int i = 0; i < 10000; ++i) e.spawn(delayer(e, static_cast<Tick>(i % 97), &log));
  e.run();
  EXPECT_EQ(log.size(), 10000u);
  EXPECT_TRUE(e.allSpawnedDone());
}

TEST(Engine, RootsFinishingOutOfOrderAllUnregister) {
  // Roots unregister by swap-remove as they finish; the survivors' slots
  // must stay consistent whatever order they finish in.
  Engine e;
  std::vector<Tick> log;
  for (Tick d : {50, 10, 40, 20, 30, 10, 50}) e.spawn(delayer(e, d, &log));
  e.runUntil(10);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_FALSE(e.allSpawnedDone());
  e.runUntil(35);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_FALSE(e.allSpawnedDone());
  e.run();
  EXPECT_EQ(log.size(), 7u);
  EXPECT_TRUE(e.allSpawnedDone());
}

TEST(Engine, FinishedRootFrameReturnsToFreelistBeforeRunReturns) {
  // A root frees its own frame the moment it finishes: the frame is back
  // on the freelist while other roots are still running.
  Engine e;
  std::vector<Tick> log;
  std::size_t parked_at_start = 0;
  std::size_t parked_after_first = 0;
  auto watcher = [&]() -> Task<> {
    parked_at_start = detail::parkedFrameCount();
    co_await e.delay(10);  // the delayer below finishes at t=5
    parked_after_first = detail::parkedFrameCount();
  };
  e.spawn(watcher());
  e.spawn(delayer(e, 5, &log));
  e.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(parked_after_first, parked_at_start + 1);
}

TEST(Engine, ExceptionInSpawnedRootPropagatesFromRun) {
  Engine e;
  int later_events = 0;
  auto thrower = [&]() -> Task<> {
    co_await e.delay(5);
    throw std::runtime_error("boom");
  };
  auto bystander = [&]() -> Task<> {
    for (int i = 0; i < 10; ++i) {
      co_await e.delay(3);
      ++later_events;
    }
  };
  e.spawn(bystander());
  e.spawn(thrower());
  EXPECT_THROW(e.run(), std::runtime_error);
  EXPECT_EQ(e.now(), 5u);  // the run stopped at the throwing event
  EXPECT_EQ(later_events, 1);
  // The thrower is gone; the bystander is still registered and resumable.
  EXPECT_FALSE(e.allSpawnedDone());
  e.runUntil(12);  // the error was consumed: later runs proceed normally
  EXPECT_EQ(later_events, 4);
}

TEST(Engine, ExceptionInSpawnedRootPropagatesFromRunUntil) {
  Engine e;
  auto thrower = [&]() -> Task<> {
    co_await e.delay(5);
    throw std::logic_error("bad");
  };
  e.spawn(thrower());
  EXPECT_THROW(e.runUntil(100), std::logic_error);
  EXPECT_TRUE(e.allSpawnedDone());
}

TEST(Engine, DestroyingEngineFreesSuspendedRootsAndNestedFrames) {
  // Roots parked on a Signal and inside a nested Task are still owned by
  // the engine; destroying it frees every frame (ASan builds check that
  // nothing leaks or is freed twice).
  auto eng = std::make_unique<Engine>();
  Signal never(*eng);
  auto child = [&](Engine& e) -> Task<int> {
    co_await e.delay(1000);
    co_return 1;
  };
  auto nested = [&](Engine& e) -> Task<> { co_await child(e); };
  auto parked = [&]() -> Task<> { co_await never.wait(); };
  eng->spawn(parked());
  eng->spawn(nested(*eng));
  std::vector<Tick> log;
  eng->spawn(delayer(*eng, 1, &log));  // finishes; must not be freed twice
  eng->runUntil(10);
  EXPECT_FALSE(eng->allSpawnedDone());
  EXPECT_EQ(never.waiterCount(), 1u);
  const std::size_t parked_while_suspended = detail::parkedFrameCount();
  eng.reset();
  EXPECT_EQ(detail::parkedFrameCount(), parked_while_suspended + 3);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine e;
    std::vector<Tick> log;
    for (int i = 0; i < 50; ++i) e.spawn(delayer(e, static_cast<Tick>((i * 37) % 101), &log));
    e.run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

// --- CalendarQueue -----------------------------------------------------

TEST(CalendarQueue, TortureMatchesReferenceHeap) {
  // Random push/pop interleaving against the std::priority_queue the
  // calendar replaced. Pushes never go below the tick being drained (the
  // engine clamps to now()), matching the queue's documented contract;
  // offset 0 pushes land on the draining tick, hitting the batch-append
  // path mid-drain.
  CalendarQueue q;
  using Ref = std::pair<Tick, std::uint64_t>;
  auto greater = [](const Ref& a, const Ref& b) { return a > b; };
  std::priority_queue<Ref, std::vector<Ref>, decltype(greater)> ref(greater);
  Rng rng(0xca1);
  std::uint64_t seq = 0;
  Tick cur = 0;
  for (int step = 0; step < 100000; ++step) {
    if (ref.empty() || rng.below(8) < 5) {
      const Tick t = cur + static_cast<Tick>(rng.below(16));
      q.push(t, seq, {});
      ref.push({t, seq});
      ++seq;
    } else {
      ASSERT_FALSE(q.empty());
      EXPECT_EQ(q.peek().t, ref.top().first);
      const CalEntry e = q.pop();
      ASSERT_EQ(e.t, ref.top().first);
      ASSERT_EQ(e.seq, ref.top().second);
      ref.pop();
      cur = e.t;
    }
    EXPECT_EQ(q.size(), ref.size());
  }
  while (!ref.empty()) {
    const CalEntry e = q.pop();
    ASSERT_EQ(e.t, ref.top().first);
    ASSERT_EQ(e.seq, ref.top().second);
    ref.pop();
  }
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, SparseTortureMatchesReferenceHeap) {
  // The engine's common regime: a handful of pending entries, mostly pops,
  // each event scheduling a successor a few ticks out or at the running
  // tick. This drives the front slot through all of its paths — set (a
  // push ahead of the heap with no batch pending), demotion (a later push
  // overtaking the slot's entry) and a slot pop that peels same-tick heap
  // entries into the batch before an offset-0 push appends behind them.
  CalendarQueue q;
  using Ref = std::pair<Tick, std::uint64_t>;
  auto greater = [](const Ref& a, const Ref& b) { return a > b; };
  std::priority_queue<Ref, std::vector<Ref>, decltype(greater)> ref(greater);
  Rng rng(0x5107);
  std::uint64_t seq = 0;
  Tick cur = 0;
  for (int step = 0; step < 200000; ++step) {
    if (ref.empty() || (ref.size() < 3 && rng.below(3) == 0)) {
      const Tick t = cur + static_cast<Tick>(rng.below(2) == 0 ? 0 : rng.below(4));
      q.push(t, seq, {});
      ref.push({t, seq});
      ++seq;
    } else {
      ASSERT_FALSE(q.empty());
      ASSERT_EQ(q.peek().t, ref.top().first);
      ASSERT_EQ(q.peek().seq, ref.top().second);
      const CalEntry e = q.pop();
      ASSERT_EQ(e.t, ref.top().first);
      ASSERT_EQ(e.seq, ref.top().second);
      ref.pop();
      cur = e.t;
    }
    ASSERT_EQ(q.size(), ref.size());
  }
}

TEST(CalendarQueue, FrontSlotPaths) {
  // Deterministic walk through each front-slot transition.
  CalendarQueue q;
  q.push(10, 0, {});  // empty queue: slot
  q.push(12, 1, {});  // behind the slot: heap
  q.push(8, 2, {});   // overtakes the slot: (10,0) demoted, (8,2) in the slot
  q.push(10, 3, {});  // behind the slot: heap
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.peek().seq, 2u);
  EXPECT_EQ(q.pop().seq, 2u);  // the slot
  EXPECT_EQ(q.pop().seq, 0u);  // heap top; (10,3) peeled into the batch
  q.push(10, 4, {});           // running tick: appends behind (10,3)
  q.push(11, 5, {});           // a batch is pending: heap, not the slot
  EXPECT_EQ(q.pop().seq, 3u);
  EXPECT_EQ(q.pop().seq, 4u);
  EXPECT_EQ(q.pop().seq, 5u);
  q.push(12, 6, {});  // ahead of nothing: (12,1) sorts first, so heap
  EXPECT_EQ(q.pop().seq, 1u);
  EXPECT_EQ(q.pop().seq, 6u);
  q.push(14, 7, {});  // empty heap, no batch: slot
  q.push(14, 8, {});  // same tick, later seq: heap
  q.push(15, 9, {});
  EXPECT_EQ(q.pop().seq, 7u);  // slot pop peels (14,8) into the batch...
  q.push(14, 10, {});          // ...so a running-tick push lands behind it
  EXPECT_EQ(q.pop().seq, 8u);
  EXPECT_EQ(q.pop().seq, 10u);
  EXPECT_EQ(q.pop().seq, 9u);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, SameTickAppendsWhileDraining) {
  // A batch can grow *while* it drains (Signal::notifyAll storms do this):
  // once tick 5 starts popping, new tick-5 pushes must append to the batch
  // and still pop before tick 6 — including after the batch momentarily
  // empties.
  CalendarQueue q;
  q.push(5, 0, {});
  q.push(6, 1, {});
  EXPECT_EQ(q.pop().seq, 0u);   // tick 5 is now draining (batch empty)
  q.push(5, 2, {});             // late same-tick arrival
  q.push(5, 3, {});
  EXPECT_EQ(q.pop().seq, 2u);
  q.push(5, 4, {});             // batch drained once already; still tick 5
  EXPECT_EQ(q.pop().seq, 3u);
  EXPECT_EQ(q.pop().seq, 4u);
  EXPECT_EQ(q.pop().seq, 1u);   // only now does tick 6 fire
  EXPECT_TRUE(q.empty());
}

TEST(Engine, PastScheduleClampsAndCounts) {
  Engine e;
  struct PastAwaiter {
    Engine& e;
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h) const {
      e.scheduleAt(e.now() - 10, h);  // silently clamped to now()
    }
    void await_resume() const {}
  };
  Tick fired = 0;
  auto t = [&]() -> Task<> {
    co_await e.delay(100);
    co_await PastAwaiter{e};
    fired = e.now();
  };
  e.spawn(t());
  e.run();
  EXPECT_EQ(fired, 100u);  // clamped, not time-travelled
  EXPECT_EQ(e.clampedSchedules(), 1u);
}

}  // namespace
}  // namespace nwc::sim
