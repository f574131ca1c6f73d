// The benchmark's own unit checks (run by test_perfbench.py): the tail
// percentile rule and the layer drivers' geometry.
#include <cstdio>
#include <string>
#include <vector>

#include "layers.hpp"
#include "machine/machine.hpp"
#include "nwcache/optical_ring.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool cond, const std::string& what) {
  if (!cond) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

std::vector<std::uint64_t> oneTo(std::uint64_t n) {
  std::vector<std::uint64_t> v;
  for (std::uint64_t i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void percentileRule() {
  using perfbench::tailIndex;
  // p99 needs 10 samples beyond it: from n = 1000 on it is the plain
  // nearest-rank p99 (index 989 leaves 990..999 = 10 beyond).
  expect(tailIndex(1000, 99.0) == 989, "n=1000 p99 is rank 990");
  expect(tailIndex(2000, 99.0) == 1979, "n=2000 p99 is rank 1980");
  for (std::size_t n : {21u, 50u, 500u, 999u, 1000u, 3552u, 100000u}) {
    const std::size_t i = tailIndex(n, 99.0);
    expect(n - 1 - i >= perfbench::kTailSamples,
           "n=" + std::to_string(n) + " keeps ten samples beyond the tail");
    // Highest such percentile: one rank higher would leave only nine.
    expect(i + 1 >= perfbench::nearestRankIndex(n, 99.0) ||
               n - 1 - (i + 1) < perfbench::kTailSamples,
           "n=" + std::to_string(n) + " reports the highest supported rank");
  }
  // Below 999 samples p99 is lowered: n = 500 reports rank 490 (98th pct).
  expect(tailIndex(500, 99.0) == 489, "n=500 lowers p99 to rank 490");
  // Never below the median, even when ten beyond is unreachable.
  expect(tailIndex(12, 99.0) == 5, "n=12 falls back to the median rank");
  expect(tailIndex(1, 99.0) == 0, "n=1 reports its only sample");

  auto v = oneTo(1000);
  const perfbench::Percentile p = perfbench::tailOf(v);
  expect(p.value == 990.0 && p.n == 1000 && p.pct == 99.0, "tailOf(1..1000) = 990 @ p99");
  auto w = oneTo(500);
  const perfbench::Percentile q = perfbench::tailOf(w);
  expect(q.value == 490.0 && q.pct == 98.0, "tailOf(1..500) = 490 @ p98");
  auto m = oneTo(9);
  expect(perfbench::medianOf(m).value == 5.0, "median of 1..9 is 5");
}

void defaultGeometry() {
  // The layer drivers build every component from benchConfig(seed).
  const nwc::machine::MachineConfig defaults;
  const auto cfg = perfbench::benchConfig(7);
  expect(cfg.l1.size_bytes == defaults.l1.size_bytes &&
             cfg.l1.line_bytes == defaults.l1.line_bytes &&
             cfg.l1.assoc == defaults.l1.assoc,
         "L1 geometry is the MachineConfig default");
  expect(cfg.l2.size_bytes == defaults.l2.size_bytes &&
             cfg.l2.line_bytes == defaults.l2.line_bytes &&
             cfg.l2.assoc == defaults.l2.assoc,
         "L2 geometry is the MachineConfig default");
  expect(cfg.tlb_entries == defaults.tlb_entries, "TLB entries are the default");
  expect(cfg.page_bytes == defaults.page_bytes, "page size is the default");
  expect(cfg.diskCacheSlots() == defaults.diskCacheSlots(), "disk cache slots are the default");
  expect(cfg.ring_channels == defaults.ring_channels &&
             cfg.ring_channel_bytes == defaults.ring_channel_bytes,
         "ring geometry is the default");
  expect(cfg.num_nodes == 8 && cfg.num_io_nodes == 4, "8 nodes, 4 of them I/O nodes");
  expect(cfg.system == nwc::machine::SystemKind::kNWCache &&
             cfg.prefetch == nwc::machine::Prefetch::kOptimal && cfg.seed == 7,
         "benchmark machine is nwcache/optimal seeded by --seed");

  // The components match what a live machine built from the same config holds.
  nwc::machine::Machine m(cfg);
  expect(m.tlb(0).capacity() == cfg.tlb_entries, "TLB matches the machine's");
  expect(m.diskCache(0).slots() == cfg.diskCacheSlots(), "disk cache matches the machine's");
  const nwc::ring::OpticalRing ring(perfbench::ringParams(cfg));
  expect(m.ring() != nullptr && m.ring()->channels() == ring.channels() &&
             m.ring()->capacityPages() == ring.capacityPages() &&
             m.ring()->roundTripTicks() == ring.roundTripTicks() &&
             m.ring()->pageTransferTicks() == ring.pageTransferTicks(),
         "ring matches the machine's");
  const nwc::net::MeshNetwork mesh(perfbench::meshParams(cfg));
  expect(m.mesh().width() == mesh.width() && m.mesh().height() == mesh.height() &&
             m.mesh().serializationTicks(cfg.page_bytes) ==
                 mesh.serializationTicks(cfg.page_bytes),
         "mesh matches the machine's");
}

}  // namespace

int main() {
  percentileRule();
  defaultGeometry();
  if (failures == 0) std::printf("nwcbench_tests: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
