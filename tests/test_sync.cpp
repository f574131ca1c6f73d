// CoMutex / CoBarrier / Trigger / Signal.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/profiler.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/trigger.hpp"

namespace nwc::sim {
namespace {

TEST(CoMutex, UncontendedLockIsImmediate) {
  Engine e;
  CoMutex m(e);
  bool done = false;
  auto t = [&]() -> Task<> {
    co_await m.lock();
    EXPECT_TRUE(m.locked());
    m.unlock();
    EXPECT_FALSE(m.locked());
    done = true;
  };
  e.spawn(t());
  e.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(e.now(), 0u);  // no time passed
}

TEST(CoMutex, TryLock) {
  Engine e;
  CoMutex m(e);
  EXPECT_TRUE(m.tryLock());
  EXPECT_FALSE(m.tryLock());
  m.unlock();
  EXPECT_TRUE(m.tryLock());
  m.unlock();
}

TEST(CoMutex, FifoHandOff) {
  Engine e;
  CoMutex m(e);
  std::vector<int> order;
  auto t = [&](int id, Tick arrive, Tick hold) -> Task<> {
    co_await e.delay(arrive);
    co_await m.lock();
    co_await e.delay(hold);
    order.push_back(id);
    m.unlock();
  };
  e.spawn(t(0, 0, 100));
  e.spawn(t(1, 10, 10));
  e.spawn(t(2, 20, 10));
  e.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);  // FIFO: 1 queued before 2
  EXPECT_EQ(order[2], 2);
  EXPECT_EQ(e.now(), 120u);
}

TEST(CoMutex, FifoAcrossDrainAndRefill) {
  // Four waiters queue behind a holder and drain; a second wave of three
  // then refills the (cleared) queue and must hand off in arrival order too.
  Engine e;
  CoMutex m(e);
  std::vector<int> order;
  auto t = [&](int id, Tick arrive) -> Task<> {
    co_await e.delay(arrive);
    co_await m.lock();
    co_await e.delay(10);
    order.push_back(id);
    m.unlock();
  };
  for (int id = 0; id < 5; ++id) e.spawn(t(id, static_cast<Tick>(id)));
  for (int id = 5; id < 8; ++id) e.spawn(t(id, 1000 + static_cast<Tick>(id)));
  e.runUntil(5);
  EXPECT_EQ(m.waiterCount(), 4u);
  e.runUntil(60);
  EXPECT_FALSE(m.locked());
  EXPECT_EQ(m.waiterCount(), 0u);
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(m.waiterCount(), 0u);
}

TEST(CoMutex, FifoWhileQueueNeverDrains) {
  // Three waiters queue behind the first holder, then one more arrives per
  // hold time: the queue stays three deep for the whole run, so the
  // consumed prefix has to be reclaimed while waiters are still queued.
  Engine e;
  CoMutex m(e);
  std::vector<int> order;
  constexpr int kTasks = 64;
  auto t = [&](int id) -> Task<> {
    co_await e.delay(id < 4 ? static_cast<Tick>(id) : 15 + static_cast<Tick>(id - 4) * 10);
    co_await m.lock();
    co_await e.delay(10);
    order.push_back(id);
    m.unlock();
  };
  for (int id = 0; id < kTasks; ++id) e.spawn(t(id));
  for (Tick at = 25; at < 600; at += 100) {
    e.runUntil(at);
    EXPECT_EQ(m.waiterCount(), 3u) << "at " << at;
  }
  e.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kTasks));
  for (int id = 0; id < kTasks; ++id) EXPECT_EQ(order[static_cast<std::size_t>(id)], id);
  EXPECT_EQ(m.waiterCount(), 0u);
}

TEST(CoMutex, RebindAfterContention) {
  // A mutex that was contended on one engine and drained is re-targeted at
  // a fresh engine (page-table pooling) and serves waiters there in order.
  CoMutex* m = nullptr;
  std::vector<int> order;
  auto run = [&](Engine& e, int base) {
    auto t = [&](int id, Tick arrive) -> Task<> {
      co_await e.delay(arrive);
      auto g = co_await m->scoped();
      co_await e.delay(10);
      order.push_back(id);
    };
    for (int i = 0; i < 3; ++i) e.spawn(t(base + i, static_cast<Tick>(i)));
    e.run();
  };
  Engine first;
  CoMutex mutex(first);
  m = &mutex;
  run(first, 0);
  Engine second;
  mutex.rebind(second);
  EXPECT_FALSE(mutex.locked());
  run(second, 10);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 10, 11, 12}));
  EXPECT_EQ(second.now(), 30u);
  EXPECT_EQ(mutex.waiterCount(), 0u);
}

TEST(CoMutex, UncontendedUseAllocatesNothing) {
  Engine e;
  (void)obs::prof::threadAllocCount();
  const std::uint64_t before = obs::prof::threadAllocCount();
  {
    CoMutex m(e);
    EXPECT_TRUE(m.tryLock());
    m.unlock();
    CoMutex moved = std::move(m);
    EXPECT_FALSE(moved.locked());
  }
  EXPECT_EQ(obs::prof::threadAllocCount(), before);
}

TEST(CoMutex, ScopedGuardReleasesOnScopeExit) {
  Engine e;
  CoMutex m(e);
  auto t = [&]() -> Task<> {
    {
      auto g = co_await m.scoped();
      EXPECT_TRUE(m.locked());
    }
    EXPECT_FALSE(m.locked());
  };
  e.spawn(t());
  e.run();
}

TEST(CoMutex, GuardExplicitRelease) {
  Engine e;
  CoMutex m(e);
  auto t = [&]() -> Task<> {
    auto g = co_await m.scoped();
    g.release();
    EXPECT_FALSE(m.locked());
    // Double release must be harmless.
    g.release();
    EXPECT_FALSE(m.locked());
  };
  e.spawn(t());
  e.run();
}

TEST(CoBarrier, ReleasesAllAtOnce) {
  Engine e;
  CoBarrier b(e, 3);
  std::vector<Tick> times;
  auto t = [&](Tick d) -> Task<> {
    co_await e.delay(d);
    co_await b.arriveAndWait();
    times.push_back(e.now());
  };
  e.spawn(t(10));
  e.spawn(t(20));
  e.spawn(t(30));
  e.run();
  ASSERT_EQ(times.size(), 3u);
  for (Tick tm : times) EXPECT_EQ(tm, 30u);
}

TEST(CoBarrier, IsCyclic) {
  Engine e;
  CoBarrier b(e, 2);
  int rounds_done = 0;
  auto t = [&](Tick step) -> Task<> {
    for (int r = 0; r < 5; ++r) {
      co_await e.delay(step);
      co_await b.arriveAndWait();
    }
    ++rounds_done;
  };
  e.spawn(t(10));
  e.spawn(t(25));
  e.run();
  EXPECT_EQ(rounds_done, 2);
  EXPECT_EQ(b.generation(), 5u);
  EXPECT_EQ(e.now(), 125u);  // slower party dominates every round
}

TEST(Trigger, LatchesAndReleasesWaiters) {
  Engine e;
  Trigger tr(e);
  std::vector<Tick> woke;
  auto waiter = [&]() -> Task<> {
    co_await tr.wait();
    woke.push_back(e.now());
  };
  auto firer = [&]() -> Task<> {
    co_await e.delay(100);
    tr.fire();
  };
  e.spawn(waiter());
  e.spawn(waiter());
  e.spawn(firer());
  e.run();
  ASSERT_EQ(woke.size(), 2u);
  EXPECT_EQ(woke[0], 100u);
  EXPECT_EQ(woke[1], 100u);
  EXPECT_TRUE(tr.fired());
}

TEST(Trigger, WaitAfterFireIsImmediate) {
  Engine e;
  Trigger tr(e);
  tr.fire();
  Tick woke = 999;
  auto waiter = [&]() -> Task<> {
    co_await e.delay(7);
    co_await tr.wait();
    woke = e.now();
  };
  e.spawn(waiter());
  e.run();
  EXPECT_EQ(woke, 7u);
}

TEST(Trigger, ResetRearms) {
  Engine e;
  Trigger tr(e);
  tr.fire();
  tr.reset();
  EXPECT_FALSE(tr.fired());
}

TEST(Signal, PulseWakesOnlyCurrentWaiters) {
  Engine e;
  Signal s(e);
  std::vector<int> woke;
  auto waiter = [&](int id, Tick arrive) -> Task<> {
    co_await e.delay(arrive);
    co_await s.wait();
    woke.push_back(id);
  };
  auto notifier = [&]() -> Task<> {
    co_await e.delay(50);
    s.notifyAll();  // only waiter 0 (arrived at 10) is waiting
    co_await e.delay(100);
    s.notifyAll();  // waiter 1 (arrived at 60)
  };
  e.spawn(waiter(0, 10));
  e.spawn(waiter(1, 60));
  e.spawn(notifier());
  e.run();
  ASSERT_EQ(woke.size(), 2u);
  EXPECT_EQ(woke[0], 0);
  EXPECT_EQ(woke[1], 1);
}

}  // namespace
}  // namespace nwc::sim
