// One-call experiment driver: build a machine, run one application on it,
// collect metrics and check invariants.
#pragma once

#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "machine/config.hpp"
#include "machine/metrics.hpp"
#include "machine/trace.hpp"

namespace nwc::obs {
class EventTimeline;
class MetricsRegistry;
class Sampler;
struct HealthContext;
}

namespace nwc::apps {

struct RunSummary {
  std::string app;
  machine::MachineConfig cfg;
  machine::Metrics metrics{0};
  sim::Tick exec_time = 0;        // max per-cpu finish time
  bool verified = false;          // numerical result check
  std::string invariant_violations;  // empty when consistent
  std::uint64_t engine_events = 0;
  std::uint64_t data_bytes = 0;
  /// Health verdict from the periodic sampler ("healthy"/"degraded"); empty
  /// when the run was not sampled.
  std::string health_verdict;
  std::uint64_t health_trips = 0;

  bool ok() const { return verified && invariant_violations.empty(); }
};

/// Optional observability sinks for a run; every pointer may be null
/// (detached). `registry` is filled via Machine::publishMetrics after the
/// run completes; `timeline` records cross-layer events while it runs.
/// `attr_records` retains one obs::AttrRecord per completed fault/swap-out/
/// shootdown (aggregates are always in RunSummary.metrics.attr).
struct ObsSinks {
  machine::TraceBuffer* trace = nullptr;
  obs::EventTimeline* timeline = nullptr;
  obs::MetricsRegistry* registry = nullptr;
  std::vector<obs::AttrRecord>* attr_records = nullptr;
  /// Kernel reference-stream capture (perfbench's traffic capture);
  /// attached before setup() so region allocations are seen. See
  /// machine::RefRecorder.
  machine::RefRecorder* ref_recorder = nullptr;
  /// Periodic in-run sampler (obs/sampler.hpp). When `timeline` is also
  /// attached, health onsets/clears land there as `health.*` instants.
  obs::Sampler* sampler = nullptr;
  /// Allocation pool shared by runs on one worker thread (not thread-safe);
  /// the machine draws its page table from here and parks it on teardown.
  machine::MachineArena* arena = nullptr;
};

/// Runs `app_name` at input `scale` on a machine built from `cfg`.
/// If `trace` is non-null, page-grain events are recorded into it.
/// Throws std::invalid_argument for an unknown application name.
RunSummary runApp(const machine::MachineConfig& cfg, const std::string& app_name,
                  double scale = 1.0, machine::TraceBuffer* trace = nullptr);

/// As above, with the full set of observability sinks.
RunSummary runApp(const machine::MachineConfig& cfg, const std::string& app_name,
                  double scale, const ObsSinks& sinks);

/// The health-detector context implied by a machine configuration (reserve
/// floor, ring capacity, retune cost) — pass to obs::Sampler's constructor.
obs::HealthContext healthContextFor(const machine::MachineConfig& cfg);

}  // namespace nwc::apps
