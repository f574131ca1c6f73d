// Workload front end: the WorkloadSource seam (kernel runs must be
// byte-identical through it), the synthetic generator (determinism, zipf
// shape, spec round-trips), the block-trace encodings, and end-to-end
// block serving on all four systems.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/batch.hpp"
#include "apps/block_trace.hpp"
#include "apps/registry.hpp"
#include "apps/runner.hpp"
#include "apps/synthetic.hpp"
#include "apps/workload.hpp"
#include "util/rand.hpp"

namespace nwc::apps {
namespace {

constexpr double kScale = 0.05;

machine::MachineConfig smallConfig(machine::SystemKind sys) {
  machine::MachineConfig cfg;
  cfg.withSystem(sys, machine::Prefetch::kOptimal);
  cfg.memory_per_node = 32768;
  return cfg;
}

const std::vector<machine::SystemKind> kAllSystems = {
    machine::SystemKind::kStandard, machine::SystemKind::kNWCache,
    machine::SystemKind::kDCD, machine::SystemKind::kRemoteMemory};

// --- the seam: runApp must equal an explicit KernelWorkload ---------------

// Counts every RefRecorder callback, per cpu where the hook names one.
class CountingRecorder final : public machine::RefRecorder {
 public:
  explicit CountingRecorder(int cpus)
      : accesses(static_cast<std::size_t>(cpus)),
        barriers(static_cast<std::size_t>(cpus)) {}
  void onRegion(std::uint64_t, std::uint64_t, const std::string&) override { ++regions; }
  void onAccess(int cpu, std::uint64_t, bool) override {
    ++accesses[static_cast<std::size_t>(cpu)];
  }
  void onCompute(int, std::uint64_t) override { ++computes; }
  void onBarrier(int cpu) override { ++barriers[static_cast<std::size_t>(cpu)]; }

  std::uint64_t regions = 0;
  std::uint64_t computes = 0;
  std::vector<std::uint64_t> accesses;
  std::vector<std::uint64_t> barriers;
};

// The seamed run also carries a RefRecorder: recording must see every
// kernel-visible operation and must not perturb the run.
TEST(WorkloadSeam, KernelThroughSeamMatchesRunApp) {
  for (const auto sys : kAllSystems) {
    const auto cfg = smallConfig(sys);
    const RunSummary direct = runApp(cfg, "radix", kScale);
    const AppInfo* info = findApp("radix");
    ASSERT_NE(info, nullptr);
    KernelWorkload src(info->name, info->make(kScale));
    CountingRecorder rec(cfg.num_nodes);
    ObsSinks sinks;
    sinks.ref_recorder = &rec;
    const RunSummary seamed = runWorkload(cfg, src, sinks);
    EXPECT_EQ(summaryJson(seamed, kScale), summaryJson(direct, kScale))
        << cfg.describe();

    std::uint64_t accesses = 0;
    for (int c = 0; c < cfg.num_nodes; ++c) {
      const auto i = static_cast<std::size_t>(c);
      EXPECT_EQ(rec.accesses[i], seamed.metrics.cpu(c).accesses) << "cpu " << c;
      accesses += rec.accesses[i];
      // Every cpu passes the same global barriers.
      EXPECT_EQ(rec.barriers[i], rec.barriers[0]) << "cpu " << c;
    }
    EXPECT_EQ(accesses, seamed.metrics.totalAccesses()) << cfg.describe();
    EXPECT_GE(rec.regions, 1u);
    EXPECT_GT(rec.barriers[0], 0u);
    EXPECT_GT(rec.computes, 0u);
  }
}

TEST(WorkloadSeam, UnknownAppStillThrows) {
  EXPECT_THROW((void)runApp(smallConfig(machine::SystemKind::kStandard),
                            "no-such-app", kScale),
               std::invalid_argument);
}

// --- spec parsing ---------------------------------------------------------

TEST(SyntheticSpecParse, CanonicalRoundTrips) {
  const SyntheticSpec a = SyntheticSpec::parse(
      "synth:clients=3;objects=100;ops=50;read_ratio=0.5;zipf_theta=1.1;"
      "burst_prob=0.1;burst_len=4;diurnal_amp=0.25;diurnal_period=9999;"
      "think_mean=123.5;seed=42");
  const SyntheticSpec b = SyntheticSpec::parse(a.canonical());
  EXPECT_EQ(a.canonical(), b.canonical());
  EXPECT_EQ(b.clients, 3u);
  EXPECT_EQ(b.seed, 42u);
  EXPECT_DOUBLE_EQ(b.read_ratio, 0.5);
  // Bare "synth" means all defaults; "theta" aliases "zipf_theta".
  EXPECT_EQ(SyntheticSpec::parse("synth").canonical(),
            SyntheticSpec().canonical());
  EXPECT_DOUBLE_EQ(SyntheticSpec::parse("synth:theta=1.3").zipf_theta, 1.3);
}

TEST(SyntheticSpecParse, RejectsMalformedSpecs) {
  EXPECT_THROW((void)SyntheticSpec::parse("synth:bogus=1"),
               std::invalid_argument);
  EXPECT_THROW((void)SyntheticSpec::parse("synth:clients=0"),
               std::invalid_argument);
  EXPECT_THROW((void)SyntheticSpec::parse("synth:read_ratio=1.5"),
               std::invalid_argument);
  EXPECT_THROW((void)SyntheticSpec::parse("synth:clients"),
               std::invalid_argument);
}

TEST(WorkloadSpecs, SpecErrorClassifiesAllKinds) {
  EXPECT_TRUE(workloadSpecError("radix").empty());
  EXPECT_TRUE(workloadSpecError("synth:clients=2").empty());
  EXPECT_FALSE(workloadSpecError("no-such-app").empty());
  EXPECT_FALSE(workloadSpecError("synth:bogus=1").empty());
  EXPECT_FALSE(workloadSpecError("trace:/no/such/file.nwcb").empty());
  EXPECT_TRUE(isWorkloadSpec("synth"));
  EXPECT_TRUE(isWorkloadSpec("trace:x"));
  EXPECT_FALSE(isWorkloadSpec("radix"));
}

// --- generator ------------------------------------------------------------

SyntheticSpec smallSpec() {
  SyntheticSpec s;
  s.clients = 4;
  s.objects = 512;
  s.ops = 400;
  s.seed = 7;
  return s;
}

TEST(BlockTraceGenerator, IsDeterministic) {
  const BlockTrace a = generateBlockTrace(smallSpec());
  const BlockTrace b = generateBlockTrace(smallSpec());
  ASSERT_EQ(a.clients.size(), b.clients.size());
  for (std::size_t c = 0; c < a.clients.size(); ++c) {
    ASSERT_EQ(a.clients[c].size(), b.clients[c].size());
    for (std::size_t i = 0; i < a.clients[c].size(); ++i) {
      EXPECT_EQ(a.clients[c][i].gap, b.clients[c][i].gap);
      EXPECT_EQ(a.clients[c][i].obj, b.clients[c][i].obj);
      EXPECT_EQ(a.clients[c][i].write, b.clients[c][i].write);
    }
  }
}

TEST(BlockTraceGenerator, AddingClientsPreservesExistingStreams) {
  // Per-client forked RNG streams: growing the client count must not
  // perturb the requests of the clients that were already there.
  SyntheticSpec s = smallSpec();
  const BlockTrace small = generateBlockTrace(s);
  s.clients += 2;
  const BlockTrace big = generateBlockTrace(s);
  for (std::size_t c = 0; c < small.clients.size(); ++c) {
    ASSERT_EQ(small.clients[c].size(), big.clients[c].size());
    for (std::size_t i = 0; i < small.clients[c].size(); ++i) {
      EXPECT_EQ(small.clients[c][i].obj, big.clients[c][i].obj) << c;
    }
  }
}

TEST(BlockTraceGenerator, ScaleShrinksOpsAndSeedChangesStreams) {
  const BlockTrace full = generateBlockTrace(smallSpec());
  const BlockTrace half = generateBlockTrace(smallSpec(), 0.5);
  EXPECT_EQ(half.clients[0].size(), full.clients[0].size() / 2);
  SyntheticSpec s = smallSpec();
  s.seed = 8;
  const BlockTrace other = generateBlockTrace(s);
  bool differs = false;
  for (std::size_t i = 0; i < other.clients[0].size() && !differs; ++i) {
    differs = other.clients[0][i].obj != full.clients[0][i].obj;
  }
  EXPECT_TRUE(differs);
}

TEST(BlockTraceGenerator, ZipfShapeMatchesTheta) {
  // The estimator recovers the configured skew from generated traffic,
  // and a near-uniform spec estimates near zero.
  SyntheticSpec s = smallSpec();
  s.ops = 5000;
  s.zipf_theta = 0.9;
  const BlockTraceStats skewed = summarizeBlockTrace(generateBlockTrace(s));
  EXPECT_NEAR(skewed.est_zipf_theta, 0.9, 0.2);
  s.zipf_theta = 0.0;
  const BlockTraceStats flat = summarizeBlockTrace(generateBlockTrace(s));
  EXPECT_LT(flat.est_zipf_theta, 0.3);
  EXPECT_GT(skewed.est_zipf_theta, flat.est_zipf_theta);
}

// FNV-1a 64 over every op's (gap, obj, write) in client order.
std::uint64_t traceDigest(const BlockTrace& t) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(t.objects);
  for (const auto& ops : t.clients) {
    mix(ops.size());
    for (const BlockOp& op : ops) {
      mix(op.gap);
      mix(op.obj);
      mix(op.write ? 1 : 0);
    }
  }
  return h;
}

TEST(BlockTraceGenerator, StoreBenchmarkTracesArePinned) {
  // The two store specs of the repository benchmark. The digests were
  // recorded with the binary-search sampler and the unconditional
  // diurnal sin(); the guide-table sampler and the amp==0 shortcut must
  // reproduce them exactly.
  const char* kWrite =
      "synth:clients=16;objects=16384;ops=20000;read_ratio=0.3;burst_prob=0.05;"
      "burst_len=32;think_mean=4000000";
  const char* kRead =
      "synth:clients=16;objects=16384;ops=20000;read_ratio=0.95;burst_prob=0;"
      "zipf_theta=0.99;think_mean=400000";
  struct Case {
    const char* spec;
    std::uint64_t seed;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {kWrite, 1, 0x16c8e70c656ff595ULL},
      {kWrite, 7919, 0xde12dfbe843825eeULL},
      {kRead, 1, 0xbc78ba3873d3813aULL},
      {kRead, 7919, 0xe730ea73dd2744f4ULL},
  };
  for (const Case& c : cases) {
    const std::string spec = std::string(c.spec) + ";seed=" + std::to_string(c.seed);
    EXPECT_EQ(traceDigest(generateBlockTrace(SyntheticSpec::parse(spec))), c.digest)
        << spec;
  }
}

TEST(ZipfianSampler, CdfIsMonotoneAndHeadHeavy) {
  util::ZipfianSampler z(100, 1.0);
  EXPECT_EQ(z.size(), 100u);
  EXPECT_EQ(z.sample(0.0), 0u);
  EXPECT_EQ(z.sample(0.999999), 99u);
  // With theta=1 over n=100, rank 0 holds ~1/H(100) ~ 19% of the mass.
  std::uint64_t head = 0;
  util::Xoshiro256ss rng(123);
  for (int i = 0; i < 10000; ++i) {
    if (z.sample(rng.uniform()) == 0) ++head;
  }
  EXPECT_NEAR(static_cast<double>(head) / 10000.0, 0.19, 0.03);
}

// --- encodings ------------------------------------------------------------

TEST(BlockTraceFormat, BinaryRoundTrips) {
  const BlockTrace t = generateBlockTrace(smallSpec());
  const std::string path = "/tmp/nwc_block_roundtrip.nwcb";
  writeBlockTrace(path, t);
  const BlockTrace rt = readBlockTrace(path);
  EXPECT_EQ(rt.objects, t.objects);
  ASSERT_EQ(rt.clients.size(), t.clients.size());
  for (std::size_t c = 0; c < t.clients.size(); ++c) {
    ASSERT_EQ(rt.clients[c].size(), t.clients[c].size());
    for (std::size_t i = 0; i < t.clients[c].size(); ++i) {
      EXPECT_EQ(rt.clients[c][i].gap, t.clients[c][i].gap);
      EXPECT_EQ(rt.clients[c][i].obj, t.clients[c][i].obj);
      EXPECT_EQ(rt.clients[c][i].write, t.clients[c][i].write);
    }
  }
  EXPECT_TRUE(isBlockTraceFile(path));
}

TEST(BlockTraceFormat, TextRoundTrips) {
  const BlockTrace t = generateBlockTrace(smallSpec());
  const std::string path = "/tmp/nwc_block_roundtrip.nwcbt";
  writeBlockTraceText(path, t);
  const BlockTrace rt = readBlockTrace(path);
  EXPECT_EQ(rt.objects, t.objects);
  EXPECT_EQ(rt.totalOps(), t.totalOps());
  std::uint64_t gaps_a = 0, gaps_b = 0;
  for (const auto& c : t.clients)
    for (const auto& op : c) gaps_a += op.gap;
  for (const auto& c : rt.clients)
    for (const auto& op : c) gaps_b += op.gap;
  EXPECT_EQ(gaps_a, gaps_b);
  EXPECT_TRUE(isBlockTraceFile(path));
}

TEST(BlockTraceFormat, RejectsCorruptFiles) {
  const BlockTrace t = generateBlockTrace(smallSpec());
  const std::string path = "/tmp/nwc_block_corrupt.nwcb";
  writeBlockTrace(path, t);
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  // Truncation mid-stream must throw, not silently shorten the trace.
  std::ofstream(path, std::ios::binary)
      << bytes.substr(0, bytes.size() / 2);
  EXPECT_THROW((void)readBlockTrace(path), std::runtime_error);
  // Arbitrary non-trace content is rejected up front.
  std::ofstream(path, std::ios::binary) << "not a trace at all";
  EXPECT_THROW((void)readBlockTrace(path), std::runtime_error);
  EXPECT_FALSE(isBlockTraceFile(path));
  EXPECT_THROW((void)readBlockTrace("/no/such/file.nwcb"), std::runtime_error);
}

// --- end-to-end serving ---------------------------------------------------

std::string runSpec(const machine::MachineConfig& cfg, const std::string& spec) {
  ObsSinks sinks;
  auto src = makeWorkload(spec, 1.0);
  const RunSummary s = runWorkload(cfg, *src, sinks);
  EXPECT_TRUE(s.verified) << spec << " on " << cfg.describe();
  return summaryJson(s, 1.0);
}

TEST(BlockServe, RunsVerifiedOnAllSystems) {
  const std::string spec = "synth:clients=4;objects=512;ops=200;seed=7";
  for (const auto sys : kAllSystems) {
    const std::string json = runSpec(smallConfig(sys), spec);
    // Block traffic reaches the metrics layer.
    EXPECT_NE(json.find("\"block_reads\":"), std::string::npos);
  }
}

TEST(BlockServe, DeterministicAcrossRepeatRuns) {
  const std::string spec = "synth:clients=4;objects=512;ops=200;seed=7";
  const auto cfg = smallConfig(machine::SystemKind::kNWCache);
  EXPECT_EQ(runSpec(cfg, spec), runSpec(cfg, spec));
}

TEST(BlockServe, FileServeMatchesLiveGeneration) {
  const std::string spec = "synth:clients=4;objects=512;ops=200;seed=7";
  const std::string path = "/tmp/nwc_block_serve.nwcb";
  writeBlockTrace(path, generateBlockTrace(SyntheticSpec::parse(spec)));
  const auto cfg = smallConfig(machine::SystemKind::kNWCache);
  ObsSinks sinks;
  auto live = makeWorkload(spec, 1.0);
  auto filed = makeWorkload("trace:" + path, 1.0);
  const RunSummary a = runWorkload(cfg, *live, sinks);
  const RunSummary b = runWorkload(cfg, *filed, sinks);
  // Names differ (spec vs path); everything else must match exactly.
  EXPECT_EQ(a.metrics.faults, b.metrics.faults);
  EXPECT_EQ(a.metrics.swap_outs, b.metrics.swap_outs);
  EXPECT_EQ(a.metrics.block_reads, b.metrics.block_reads);
  EXPECT_EQ(a.metrics.block_writes, b.metrics.block_writes);
  EXPECT_EQ(a.exec_time, b.exec_time);
  EXPECT_TRUE(a.verified);
  EXPECT_TRUE(b.verified);
}

TEST(BlockServe, MakeWorkloadRejectsBadSpecs) {
  EXPECT_THROW((void)makeWorkload("trace:/no/such/file.nwcb", 1.0),
               std::invalid_argument);
  EXPECT_THROW((void)makeWorkload("synth:bogus=1", 1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace nwc::apps
