// Host self-profiler (obs/profiler) and the perf-regression comparison
// engine (obs/bench_compare) behind bench/perf_suite + tools/nwcperf.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "apps/runner.hpp"
#include "machine/config.hpp"
#include "obs/bench_compare.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"

namespace nwc {
namespace {

using obs::prof::Scope;

// Every test starts from a clean, enabled profiler and leaves it disabled:
// the profiler is process-global state shared across tests.
class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::prof::enable();
    obs::prof::reset();
  }
  void TearDown() override {
    obs::prof::disable();
    obs::prof::reset();
  }
};

void spin(std::uint64_t ns) {
  const std::uint64_t until = obs::prof::nowNs() + ns;
  while (obs::prof::nowNs() < until) {
  }
}

TEST_F(ProfilerTest, NestedScopesFormTree) {
  {
    Scope outer("outer");
    spin(50'000);
    {
      Scope inner("inner");
      spin(50'000);
    }
    {
      Scope inner("inner");  // same name: accumulates, count = 2
      spin(50'000);
    }
  }
  const obs::prof::Report r = obs::prof::snapshot();
  ASSERT_EQ(r.root.children.count("outer"), 1u);
  const obs::prof::Node& outer = r.root.children.at("outer");
  EXPECT_EQ(outer.count, 1u);
  ASSERT_EQ(outer.children.count("inner"), 1u);
  const obs::prof::Node& inner = outer.children.at("inner");
  EXPECT_EQ(inner.count, 2u);
  EXPECT_GT(inner.wall_ns, 0u);
  // A child cannot outlast its parent.
  EXPECT_LE(inner.wall_ns, outer.wall_ns);
}

TEST_F(ProfilerTest, SiblingScopesStayTopLevel) {
  {
    Scope a("alpha");
  }
  {
    Scope b("beta");
  }
  const obs::prof::Report r = obs::prof::snapshot();
  EXPECT_EQ(r.root.children.count("alpha"), 1u);
  EXPECT_EQ(r.root.children.count("beta"), 1u);
  EXPECT_TRUE(r.root.children.at("alpha").children.empty());
}

TEST_F(ProfilerTest, MultiThreadBuffersMergeInSnapshot) {
  constexpr int kThreads = 4;
  constexpr int kScopesPerThread = 100;
  std::vector<std::thread> ts;
  for (int i = 0; i < kThreads; ++i) {
    ts.emplace_back([] {
      for (int j = 0; j < kScopesPerThread; ++j) {
        Scope s("worker-phase");
        Scope nested("step");
      }
    });
  }
  for (std::thread& t : ts) t.join();
  // Threads have exited: their buffers merged into the dead-thread
  // accumulator. A main-thread scope must land in the same tree.
  { Scope s("worker-phase"); }
  const obs::prof::Report r = obs::prof::snapshot();
  ASSERT_EQ(r.root.children.count("worker-phase"), 1u);
  const obs::prof::Node& n = r.root.children.at("worker-phase");
  EXPECT_EQ(n.count, static_cast<std::uint64_t>(kThreads * kScopesPerThread + 1));
  ASSERT_EQ(n.children.count("step"), 1u);
  EXPECT_EQ(n.children.at("step").count,
            static_cast<std::uint64_t>(kThreads * kScopesPerThread));
}

TEST_F(ProfilerTest, SnapshotWhileOtherThreadsProfile) {
  // snapshot() is documented safe while other threads are between scopes;
  // hammer it concurrently with scope traffic and require no crash and a
  // full merge after join.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> iterations{0};
  std::thread worker([&] {
    while (!stop.load()) {
      Scope s("concurrent");
      iterations.fetch_add(1);
    }
  });
  // Snapshot concurrently until the worker has provably run some scopes
  // (on a single-core host it may not be scheduled immediately).
  while (iterations.load() < 100) (void)obs::prof::snapshot();
  stop.store(true);
  worker.join();
  const obs::prof::Report r = obs::prof::snapshot();
  EXPECT_GE(r.root.children.at("concurrent").count, 1u);
}

TEST(ProfilerDisabled, ScopeOnDisabledPathAllocatesNothing) {
  obs::prof::disable();
  // Warm up any lazy TLS the counter read itself may touch.
  (void)obs::prof::threadAllocCount();
  const std::uint64_t before = obs::prof::threadAllocCount();
  for (int i = 0; i < 1000; ++i) {
    Scope s("never-recorded");
    obs::prof::addSample("nothing", 1);
  }
  EXPECT_EQ(obs::prof::threadAllocCount(), before);
  // And nothing was recorded.
  EXPECT_TRUE(obs::prof::snapshot().root.children.empty());
}

TEST(ProfilerAllocCounters, CountUnconditionally) {
  // The operator-new hook counts even when profiling is disabled, so the
  // zero-allocation assertion above is meaningful.
  obs::prof::disable();
  const std::uint64_t c0 = obs::prof::threadAllocCount();
  const std::uint64_t b0 = obs::prof::threadAllocBytes();
  // Call the replaced operator directly: the compiler may elide a paired
  // new/delete *expression*, but not a direct call to ::operator new.
  void* p = ::operator new(4096);
  ::operator delete(p);
  EXPECT_GT(obs::prof::threadAllocCount(), c0);
  EXPECT_GE(obs::prof::threadAllocBytes(), b0 + 4096);
}

TEST_F(ProfilerTest, ScopesAttributeAllocations) {
  {
    Scope s("allocating");
    for (int i = 0; i < 10; ++i) {
      void* p = ::operator new(1024);  // direct call: never elided
      ::operator delete(p);
    }
  }
  const obs::prof::Report r = obs::prof::snapshot();
  const obs::prof::Node& n = r.root.children.at("allocating");
  EXPECT_GE(n.alloc_count, 10u);
  EXPECT_GE(n.alloc_bytes, 10u * 1024u);
}

TEST_F(ProfilerTest, AddSampleNestsUnderCurrentScope) {
  {
    Scope s("event-loop");
    obs::prof::addSample("destage-drain", 1'000'000);
  }
  obs::prof::addSample("top-level-sample", 2'000'000);
  const obs::prof::Report r = obs::prof::snapshot();
  const obs::prof::Node& loop = r.root.children.at("event-loop");
  ASSERT_EQ(loop.children.count("destage-drain"), 1u);
  EXPECT_EQ(loop.children.at("destage-drain").wall_ns, 1'000'000u);
  ASSERT_EQ(r.root.children.count("top-level-sample"), 1u);
  EXPECT_EQ(r.root.children.at("top-level-sample").wall_ns, 2'000'000u);
}

TEST_F(ProfilerTest, PoolStatsAggregate) {
  obs::prof::notePool(/*threads=*/2, /*lifetime_ns=*/2'000'000,
                      /*busy_ns=*/1'500'000, /*tasks=*/10, /*steals=*/3);
  obs::prof::notePool(4, 4'000'000, 500'000, 5, 0);
  const obs::prof::Report r = obs::prof::snapshot();
  EXPECT_EQ(r.pool_threads, 4u);
  EXPECT_EQ(r.pool_lifetime_ns, 6'000'000u);
  EXPECT_EQ(r.pool_busy_ns, 2'000'000u);
  EXPECT_EQ(r.pool_tasks, 15u);
  EXPECT_EQ(r.pool_steals, 3u);
  EXPECT_NEAR(r.poolUtilization(), 2.0 / 6.0, 1e-9);
}

TEST_F(ProfilerTest, PublishMetricsUsesDocumentedNames) {
  {
    Scope s("event-loop");
    obs::prof::addSample("destage-drain", 1'000);
  }
  obs::prof::notePool(2, 2'000'000, 1'000'000, 4, 1);
  obs::MetricsRegistry reg;
  obs::prof::publishMetrics(obs::prof::snapshot(), reg);
  // The names docs/OBSERVABILITY.md documents and check_docs_links.sh greps.
  EXPECT_TRUE(reg.has("profile.phase.event_loop.wall_ms"));
  EXPECT_TRUE(reg.has("profile.phase.event_loop.count"));
  EXPECT_TRUE(reg.has("profile.phase.event_loop.allocs"));
  EXPECT_TRUE(reg.has("profile.phase.event_loop.destage_drain.wall_ms"));
  EXPECT_TRUE(reg.has("profile.peak_rss_bytes"));
  EXPECT_TRUE(reg.has("profile.pool.threads"));
  EXPECT_TRUE(reg.has("profile.pool.busy_ms"));
  EXPECT_TRUE(reg.has("profile.pool.idle_ms"));
  EXPECT_TRUE(reg.has("profile.pool.utilization"));
  EXPECT_TRUE(reg.has("profile.pool.tasks"));
  EXPECT_TRUE(reg.has("profile.pool.steals"));
  EXPECT_NEAR(reg.gaugeValue("profile.pool.utilization"), 0.5, 1e-9);
}

TEST_F(ProfilerTest, FoldedStacksEmitSelfTime) {
  {
    Scope outer("outer");
    spin(2'000'000);
    Scope inner("inner");
    spin(2'000'000);
  }
  const std::string folded = obs::prof::foldedStacks(obs::prof::snapshot());
  EXPECT_NE(folded.find("outer "), std::string::npos);
  EXPECT_NE(folded.find("outer;inner "), std::string::npos);
  // Lines are "stack count\n": every line has exactly one space.
  for (std::size_t pos = 0; pos < folded.size();) {
    const std::size_t eol = folded.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    const std::string line = folded.substr(pos, eol - pos);
    EXPECT_EQ(std::count(line.begin(), line.end(), ' '), 1) << line;
    pos = eol + 1;
  }
}

TEST_F(ProfilerTest, ReportJsonCarriesSchema) {
  { Scope s("phase"); }
  const std::string json = obs::prof::reportJson(obs::prof::snapshot());
  EXPECT_NE(json.find("\"schema\":\"nwc-profile-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"phase\""), std::string::npos);
  EXPECT_NE(json.find("\"host\""), std::string::npos);
}

TEST_F(ProfilerTest, ChromeTraceEventsAreHostProcess) {
  { Scope s("traced"); }
  const std::vector<std::string> events = obs::prof::chromeTraceEvents();
  ASSERT_FALSE(events.empty());
  bool saw_span = false;
  for (const std::string& e : events) {
    if (e.find("\"traced\"") != std::string::npos) saw_span = true;
  }
  EXPECT_TRUE(saw_span);
}

// The key byte-identity contract at library level: identical simulated
// results and metric exports whether the profiler is on or off.
TEST(ProfilerByteIdentity, SimulatedOutputsUnchangedByProfiling) {
  machine::MachineConfig cfg;
  cfg.withSystem(machine::SystemKind::kNWCache, machine::Prefetch::kOptimal);
  cfg.seed = 0x5eed;

  auto runOnce = [&] {
    obs::MetricsRegistry reg;
    apps::ObsSinks sinks;
    sinks.registry = &reg;
    const apps::RunSummary s = apps::runApp(cfg, "radix", 0.05, sinks);
    EXPECT_TRUE(s.verified);
    return std::pair<sim::Tick, std::string>(s.exec_time, reg.toJson());
  };

  obs::prof::disable();
  obs::prof::reset();
  const auto off = runOnce();

  obs::prof::enable();
  obs::prof::reset();
  const auto on = runOnce();
  obs::prof::disable();
  obs::prof::reset();

  EXPECT_EQ(off.first, on.first);
  EXPECT_EQ(off.second, on.second);  // metrics JSON byte-identical
}

// ---- bench_compare: the nwcperf gate logic ----

obs::bench::BenchFile makeBench(double wall_ms, double phase_ms) {
  obs::bench::BenchFile f;
  f.schema = obs::bench::kBenchSchema;
  f.tag = "test";
  f.trials = 3;
  obs::bench::Workload w;
  w.name = "radix/nwcache";
  w.wall_ms = wall_ms;
  w.pages_per_s = 1000.0;
  w.peak_rss_bytes = 64 << 20;
  w.phase_wall_ms["event-loop"] = phase_ms;
  f.workloads.push_back(w);
  return f;
}

TEST(BenchCompare, UnchangedFilePasses) {
  const obs::bench::BenchFile base = makeBench(100.0, 80.0);
  const obs::bench::CompareResult res =
      obs::bench::compare(base, base, obs::bench::CompareOptions{});
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.regressions, 0u);
  EXPECT_NE(res.markdown().find("PASS"), std::string::npos);
}

TEST(BenchCompare, InjectedFiftyPercentRegressionTripsGate) {
  const obs::bench::BenchFile base = makeBench(100.0, 80.0);
  const obs::bench::BenchFile cur = makeBench(150.0, 120.0);  // +50%
  const obs::bench::CompareResult res =
      obs::bench::compare(base, cur, obs::bench::CompareOptions{});  // 25% tol
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.regressions, 2u);  // wall_ms and phase:event-loop
  EXPECT_NE(res.markdown().find("FAIL"), std::string::npos);
}

TEST(BenchCompare, WithinToleranceIsOk) {
  const obs::bench::BenchFile base = makeBench(100.0, 80.0);
  const obs::bench::BenchFile cur = makeBench(110.0, 88.0);  // +10% < 25%
  EXPECT_TRUE(obs::bench::compare(base, cur, obs::bench::CompareOptions{}).ok());
}

TEST(BenchCompare, LargeImprovementIsNotARegression) {
  const obs::bench::BenchFile base = makeBench(100.0, 80.0);
  const obs::bench::BenchFile cur = makeBench(50.0, 40.0);
  const obs::bench::CompareResult res =
      obs::bench::compare(base, cur, obs::bench::CompareOptions{});
  EXPECT_TRUE(res.ok());
  EXPECT_GE(res.improvements, 1u);
}

TEST(BenchCompare, MissingWorkloadRegresses) {
  const obs::bench::BenchFile base = makeBench(100.0, 80.0);
  obs::bench::BenchFile cur = base;
  cur.workloads.clear();
  const obs::bench::CompareResult res =
      obs::bench::compare(base, cur, obs::bench::CompareOptions{});
  EXPECT_FALSE(res.ok());
  ASSERT_FALSE(res.rows.empty());
  EXPECT_EQ(res.rows[0].status, obs::bench::RowStatus::kMissing);
}

TEST(BenchCompare, SubFloorTimesAreNoiseNotRegressions) {
  // Baseline 2ms is under the default 5ms floor: a 3x blowup is noise.
  const obs::bench::BenchFile base = makeBench(2.0, 1.0);
  const obs::bench::BenchFile cur = makeBench(6.0, 3.0);
  const obs::bench::CompareResult res =
      obs::bench::compare(base, cur, obs::bench::CompareOptions{});
  EXPECT_TRUE(res.ok());
  bool saw_noise = false;
  for (const auto& row : res.rows) {
    if (row.status == obs::bench::RowStatus::kNoise) saw_noise = true;
  }
  EXPECT_TRUE(saw_noise);
}

TEST(BenchCompare, ParseRejectsWrongSchema) {
  EXPECT_THROW(obs::bench::parseBenchFile("{\"schema\":\"nwc-bench-v999\"}"),
               std::runtime_error);
  EXPECT_THROW(obs::bench::parseBenchFile("not json at all"), std::runtime_error);
}

TEST(BenchCompare, RoundTripsPerfSuiteShapedJson) {
  const std::string json =
      "{\"schema\":\"nwc-bench-v1\",\"tag\":\"t\",\"git_sha\":\"abc\","
      "\"trials\":3,\"scale\":0.1,\"host\":{\"cores\":1},"
      "\"workloads\":[{\"name\":\"radix/nwcache\",\"wall_ms\":12.5,"
      "\"pages_per_s\":100.0,\"events_per_s\":1e6,\"peak_rss_bytes\":1048576,"
      // A retired key: older BENCH files still carry it, and it must parse.
      "\"trace_" "hit_rate\":0.5,\"pool_utilization\":0.25,"
      "\"phases\":{\"event-loop\":10.0,\"setup\":1.5}}]}";
  const obs::bench::BenchFile f = obs::bench::parseBenchFile(json);
  EXPECT_EQ(f.tag, "t");
  EXPECT_EQ(f.trials, 3u);
  ASSERT_EQ(f.workloads.size(), 1u);
  EXPECT_DOUBLE_EQ(f.workloads[0].wall_ms, 12.5);
  EXPECT_EQ(f.workloads[0].peak_rss_bytes, 1048576u);
  EXPECT_DOUBLE_EQ(f.workloads[0].pool_utilization, 0.25);
  ASSERT_EQ(f.workloads[0].phase_wall_ms.size(), 2u);
  EXPECT_DOUBLE_EQ(f.workloads[0].phase_wall_ms.at("event-loop"), 10.0);
}

}  // namespace
}  // namespace nwc
