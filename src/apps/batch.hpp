// Batch experiment driver: run a grid of (app x system x prefetch x seed)
// configurations described by an INI file, collecting summaries as CSV
// and/or JSON-lines. Used by tools/nwcbatch; unit-testable directly.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "apps/runner.hpp"
#include "machine/config.hpp"
#include "util/ini.hpp"

namespace nwc::apps {

struct BatchSpec {
  machine::MachineConfig base;  // [machine] section applied on top of defaults
  std::vector<std::string> apps;
  std::vector<machine::SystemKind> systems;
  std::vector<machine::Prefetch> prefetches;
  std::vector<std::uint64_t> seeds;
  double scale = 1.0;
  bool best_min_free = true;  // re-derive min-free per (system, prefetch)
  std::string csv_path;       // empty = no CSV
  std::string jsonl_path;     // empty = no JSON lines
  std::string meta_dir;       // non-empty: one run_meta.json per grid cell
  unsigned jobs = 0;          // worker threads; 0 = hardware concurrency,
                              // 1 = serial (today's loop, unchanged)
  unsigned heartbeat_secs = 2;  // parallel-run status cadence; 0 disables
  bool resume = false;        // skip grid cells already checkpointed in the
                              // JSONL (crashed grids restart where they died)
  sim::Tick sample_interval = 0;  // pcycles between telemetry samples; 0 = off
  std::string sample_dir;     // non-empty (with sample_interval): one
                              // nwc-timeseries-v1 JSON + CSV per grid cell
  std::string status_path;    // non-empty: live JSONL status stream
                              // (start/hb/cell/end lines; tools/nwctop tails it)

  /// Parses the [machine] and [batch] sections. [batch] keys:
  ///   apps, systems, prefetch (comma lists), scale, seeds, csv, jsonl,
  ///   meta_dir, best_min_free, jobs, heartbeat_secs, resume,
  ///   sample_interval, sample_dir, status. Missing keys default to the
  ///   full matrix of the standard+nwcache systems over all seven
  ///   applications. Throws std::runtime_error on any other key, in any
  ///   section.
  static BatchSpec fromIni(const util::IniFile& ini);

  std::size_t runCount() const {
    return apps.size() * systems.size() * prefetches.size() * seeds.size();
  }
};

struct BatchResult {
  std::vector<RunSummary> runs;
  bool all_ok = true;
};

/// Executes the grid on `spec.jobs` worker threads (each run gets its own
/// Machine; seeds come only from the grid coordinates), collecting results
/// indexed by grid position — apps outermost, seeds innermost — so the
/// summaries, CSV and JSONL are byte-for-byte identical to a serial run
/// regardless of scheduling. Progress lines go to `progress` when non-null
/// and always carry a "[done/total]" prefix; parallel runs add per-run
/// pass/fail and an ETA.
///
/// Checkpointing: with a `jsonl` path each completed cell is appended to
/// the file as it finishes (one `{"cell":i,...}` line, flushed), and the
/// file is rewritten in grid order once the grid settles. With
/// `spec.resume`, lines whose cell index and coordinates match the current
/// grid are trusted and those cells are not rerun — their summaries are
/// reconstructed from the checkpoint (timings and counters; histogram
/// internals are not persisted).
BatchResult runBatch(const BatchSpec& spec, std::ostream* progress = nullptr);

/// One-line JSON rendering of a run summary (shared with tools/nwcsim).
std::string summaryJson(const RunSummary& s, double scale);

/// CSV header/row for summaries.
std::vector<std::string> summaryCsvHeader();
std::vector<std::string> summaryCsvRow(const RunSummary& s, double scale);

}  // namespace nwc::apps
