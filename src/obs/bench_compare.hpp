// Comparison engine behind tools/nwcperf: reads two schema-versioned
// BENCH_*.json files (emitted by bench/perf_suite) and decides, with
// ratio-based tolerance, whether the current file regressed against the
// baseline. Lives in the library (not the tool) so tests can drive the
// gate logic directly.
//
// Semantics:
//  - Workloads are matched by name; a baseline workload missing from the
//    current file is a regression (coverage must not silently shrink).
//  - Lower-is-better metrics (total wall ms, per-phase wall ms, peak RSS)
//    regress when current/baseline > 1 + tolerance.
//  - Time metrics whose baseline is under `min_wall_ms` are reported but
//    never gate: at that magnitude the ratio is scheduler noise.
//  - Higher-is-better throughput (pages/s) is informational only — it is
//    derived from wall time, so gating it would double-count.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace nwc::obs::bench {

inline constexpr const char* kBenchSchema = "nwc-bench-v1";

/// One measured workload from a BENCH file (medians over trials).
struct Workload {
  std::string name;  // e.g. "radix/nwcache" or "parallel-grid/nwcache"
  double wall_ms = 0.0;
  double pages_per_s = 0.0;
  double events_per_s = 0.0;
  std::uint64_t peak_rss_bytes = 0;
  double pool_utilization = 0.0;  // parallel workloads; 0 elsewhere
  std::map<std::string, double> phase_wall_ms;  // per-phase medians
};

struct BenchFile {
  std::string schema;
  std::string tag;
  std::string git_sha;
  unsigned trials = 0;
  std::string host_json;  // provenance blob, carried through verbatim
  std::vector<Workload> workloads;
};

/// Parses a BENCH document. Throws std::runtime_error on malformed JSON or
/// a schema string other than kBenchSchema.
BenchFile parseBenchFile(const std::string& json_text);

/// Reads and parses the file at `path`. Throws on I/O failure.
BenchFile readBenchFile(const std::string& path);

struct CompareOptions {
  double tolerance = 0.25;    // ratio slack: >1+tolerance regresses
  double min_wall_ms = 5.0;   // time metrics below this never gate
  bool include_phases = true; // also compare per-phase wall times
};

enum class RowStatus {
  kOk,           // within tolerance
  kRegression,   // gated: current is worse beyond tolerance
  kImprovement,  // better beyond tolerance (informational)
  kNoise,        // out of tolerance but under the min_wall_ms floor
  kInfo,         // never-gated metric (throughput)
  kMissing,      // workload absent from the current file (gated)
};

struct CompareRow {
  std::string workload;
  std::string metric;     // "wall_ms", "phase:event-loop", "peak_rss_mb", ...
  double baseline = 0.0;
  double current = 0.0;
  double ratio = 0.0;     // current / baseline; 0 when baseline is 0
  RowStatus status = RowStatus::kOk;
};

struct CompareResult {
  std::vector<CompareRow> rows;
  unsigned regressions = 0;
  unsigned improvements = 0;

  bool ok() const { return regressions == 0; }
  /// GitHub-flavored markdown table of every row plus a verdict line.
  std::string markdown() const;
};

CompareResult compare(const BenchFile& baseline, const BenchFile& current,
                      const CompareOptions& opts);

}  // namespace nwc::obs::bench
