// One repetition of a benchmark workload: build the workload, run it on the
// benchmark machine through the program's runWorkload, and collect host
// times, simulated results and the metrics catalog.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "layers.hpp"

namespace perfbench {

struct WorkloadDef {
  std::string name;  // benchmark workload name
  std::string spec;  // program workload: a kernel name or a "synth:" spec
  Shape shape;
};

/// The benchmark's workloads, in BENCHMARK.json order.
const std::vector<WorkloadDef>& workloads();
const WorkloadDef* findWorkload(const std::string& name);

/// The program workload spec a run with `seed` serves (synth specs get the
/// seed appended; kernels take theirs from MachineConfig::seed only).
std::string seededSpec(const WorkloadDef& w, std::uint64_t seed);

struct RepOptions {
  bool attr = false;        // attach the per-operation attribution sink
  bool crosscheck = false;  // also serve the spec through apps::runApp
  std::string spans_path;   // write the benchmark's spans here at exit
  Traffic* traffic = nullptr;  // capture the run's own traffic here
};

/// Flat name -> number maps, printed as one JSON object per repetition.
struct RepResult {
  bool ok = false;
  std::string error;     // the last failed check, empty when ok
  std::string digest;    // exec time + metrics catalog, hex
  std::uint64_t ops = 0;
  std::map<std::string, double> host;    // host-side times and RSS
  std::map<std::string, double> sim;     // simulated end-to-end results
  std::map<std::string, double> layer;   // simulated per-layer metrics
  std::map<std::string, double> calls;   // layer call counts for host estimates
  std::map<std::string, double> check;   // cross-check values
};

RepResult runRep(const WorkloadDef& w, std::uint64_t seed, const RepOptions& opt);

/// Host seconds of the steps runWorkload takes before the event loop, done
/// once on their own: workload construction, machine construction,
/// WorkloadSource::setup and Machine::start.
double setupSeconds(const WorkloadDef& w, std::uint64_t seed);

std::string toJson(const RepResult& r);

}  // namespace perfbench
