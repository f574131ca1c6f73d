// Isolated drivers of each layer's public functions, for the traced run's
// host-time estimate: ns per call here, times the call count the run's
// metrics catalog implies, gives host ms per layer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "machine/config.hpp"
#include "net/mesh.hpp"
#include "nwcache/optical_ring.hpp"

namespace perfbench {

/// The machine every workload runs on: nwcache, optimal prefetch, the
/// config's default 8 nodes with 4 I/O nodes, seeded by `seed`.
nwc::machine::MachineConfig benchConfig(std::uint64_t seed);

/// Mesh and ring parameters, derived from a machine config the same way
/// Machine and its ring backend derive them.
nwc::net::MeshParams meshParams(const nwc::machine::MachineConfig& cfg);
nwc::ring::RingParams ringParams(const nwc::machine::MachineConfig& cfg);

/// Which program path the workload's traffic takes: a kernel's references
/// go through the processor caches and TLB; a block store's requests reach
/// pages directly, so the caches stay empty and invalidations find nothing.
enum class Shape { kKernel, kStore };

/// One reference (kernel) or block request (store) of a run.
struct Ref {
  int cpu = 0;
  std::uint64_t addr = 0;
  bool write = false;
};

/// A run's own traffic, captured from the program: a prefix of a kernel's
/// reference stream (through ObsSinks::ref_recorder) or every block request
/// in the order the requests completed.
struct Traffic {
  Shape shape = Shape::kKernel;
  std::vector<Ref> refs;
  /// Page-table state changes (two per fault and per eviction) per entry
  /// lookup (one per reference or request), from the run's catalog.
  double transitions_per_lookup = 0.0;
};

struct LayerCost {
  std::string name;  // e.g. "mem.cache.access_ns"
  double ns = 0.0;   // median ns per call over the batches run
  int batches = 0;
};

/// Runs every driver on components built from `cfg` for about `seconds` in
/// total (at least 3 batches each) and returns the median ns per call of
/// each.
std::vector<LayerCost> measureLayers(const nwc::machine::MachineConfig& cfg,
                                     const Traffic& traffic, double seconds);

}  // namespace perfbench
