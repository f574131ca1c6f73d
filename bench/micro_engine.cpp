// Google-benchmark microbenchmarks for the simulation substrate: event
// throughput, coroutine primitives, analytical servers, model components.
#include <benchmark/benchmark.h>

#include <queue>

#include "mem/cache.hpp"
#include "mem/tlb.hpp"
#include "net/mesh.hpp"
#include "sim/calendar.hpp"
#include "sim/engine.hpp"
#include "sim/fifo_server.hpp"
#include "sim/random.hpp"
#include "sim/sync.hpp"

namespace {

using namespace nwc;

sim::Task<> pingTask(sim::Engine& e, int hops) {
  for (int i = 0; i < hops; ++i) co_await e.delay(1);
}

void BM_EngineEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    e.spawn(pingTask(e, static_cast<int>(state.range(0))));
    e.run();
    benchmark::DoNotOptimize(e.now());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineEventThroughput)->Arg(1000)->Arg(100000);

void BM_EngineManyTasks(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    for (int i = 0; i < state.range(0); ++i) e.spawn(pingTask(e, 10));
    e.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 10);
}
BENCHMARK(BM_EngineManyTasks)->Arg(1000);

// Calendar-queue hold model: pop the minimum, reinsert at a bounded random
// offset — the classic queue benchmark, shaped like the engine's steady
// state. range(0) is the fraction (in 1/8ths) of reinserts that land on the
// *current* tick, exercising the same-tick batch path.
void BM_CalendarQueueHold(benchmark::State& state) {
  constexpr int kLive = 4096;
  const std::uint64_t same_tick_eighths =
      static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::CalendarQueue q;
    sim::Rng rng(11);
    std::uint64_t seq = 0;
    for (int i = 0; i < kLive; ++i) {
      q.push(static_cast<sim::Tick>(rng.below(256)), seq++, {});
    }
    for (int i = 0; i < 100000; ++i) {
      const sim::CalEntry e = q.pop();
      const bool same = rng.below(8) < same_tick_eighths;
      q.push(e.t + (same ? 0 : 1 + rng.below(255)), seq++, {});
    }
    q.clear();
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_CalendarQueueHold)->Arg(0)->Arg(4);

// The std::priority_queue the calendar replaced, under the identical hold
// model — the baseline the CalendarQueue speedup is measured against.
void BM_PriorityQueueHold(benchmark::State& state) {
  struct Entry {
    sim::Tick t;
    std::uint64_t seq;
  };
  struct Greater {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };
  constexpr int kLive = 4096;
  const std::uint64_t same_tick_eighths =
      static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    std::priority_queue<Entry, std::vector<Entry>, Greater> q;
    sim::Rng rng(11);
    std::uint64_t seq = 0;
    for (int i = 0; i < kLive; ++i) {
      q.push(Entry{static_cast<sim::Tick>(rng.below(256)), seq++});
    }
    for (int i = 0; i < 100000; ++i) {
      const Entry e = q.top();
      q.pop();
      const bool same = rng.below(8) < same_tick_eighths;
      q.push(Entry{e.t + (same ? 0 : 1 + rng.below(255)), seq++});
    }
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_PriorityQueueHold)->Arg(0)->Arg(4);

sim::Task<> mutexLoop(sim::Engine& e, sim::CoMutex& m, int n) {
  for (int i = 0; i < n; ++i) {
    co_await m.lock();
    co_await e.delay(1);
    m.unlock();
  }
}

void BM_CoMutexContention(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    sim::CoMutex m(e);
    for (int t = 0; t < 4; ++t) e.spawn(mutexLoop(e, m, 1000));
    e.run();
  }
  state.SetItemsProcessed(state.iterations() * 4000);
}
BENCHMARK(BM_CoMutexContention);

void BM_FifoServerRequest(benchmark::State& state) {
  sim::FifoServer s;
  sim::Tick now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.request(now, 10));
    now += 5;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FifoServerRequest);

void BM_MeshTransfer(benchmark::State& state) {
  net::MeshParams p;
  net::MeshNetwork m(p);
  sim::Tick now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.transfer(now, 0, 7, 4096, net::TrafficClass::kPageRead));
    now += 100;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MeshTransfer);

void BM_CacheAccess(benchmark::State& state) {
  mem::SetAssocCache c(mem::CacheParams{64 * 1024, 32, 4});
  sim::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.access(rng.below(1 << 22), false));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void BM_TlbLookup(benchmark::State& state) {
  mem::Tlb t(64);
  for (sim::PageId p = 0; p < 64; ++p) t.insert(p);
  sim::Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.lookup(static_cast<sim::PageId>(rng.below(80))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbLookup);

void BM_RngNext(benchmark::State& state) {
  sim::Rng rng(3);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngNext);

}  // namespace

BENCHMARK_MAIN();
