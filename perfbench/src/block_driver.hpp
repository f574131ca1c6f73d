// The benchmark's own workload sources.
//
// BlockDriver serves a block trace through Machine::blockAccess exactly as
// the program's BlockServeWorkload does (same per-cpu merge order, same
// region). Untraced it keeps only a completion count, like the program;
// with `keep_spans` it also keeps one simulated-time span per request so
// request latency can be measured from each request's due time.
//
// TimedSource wraps any WorkloadSource and stamps host time at the seams
// runWorkload drives (setup, first drive, verify). Awaiting the inner
// drive() is symmetric transfer, so wrapping adds no engine events and the
// simulated results stay byte-identical.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/block_trace.hpp"
#include "apps/workload.hpp"

namespace perfbench {

/// One served block request: its times in simulated ticks, and what it
/// asked for.
struct RequestSpan {
  std::uint64_t due = 0;    // scheduled arrival (open loop)
  std::uint64_t issue = 0;  // when the driver actually issued it
  std::uint64_t done = 0;   // when blockAccess completed
  std::uint64_t addr = 0;   // the block's address
  int cpu = 0;
  bool write = false;
};

class BlockDriver final : public nwc::apps::WorkloadSource {
 public:
  BlockDriver(std::string name, nwc::apps::BlockTrace trace, bool keep_spans);

  std::string name() const override { return name_; }
  void setup(nwc::apps::AppContext& ctx) override;
  nwc::sim::Task<> drive(nwc::apps::AppContext& ctx, int cpu) override;
  /// True when every request of the trace completed, none issued before
  /// it was due.
  bool verify() const override;
  std::uint64_t dataBytes() const override { return data_bytes_; }

  std::uint64_t totalOps() const { return total_ops_; }
  /// Served requests in completion order; empty unless `keep_spans`.
  const std::vector<RequestSpan>& spans() const { return spans_; }

 private:
  std::string name_;
  nwc::apps::BlockTrace trace_;
  std::uint64_t base_ = 0;
  std::uint64_t page_bytes_ = 0;
  std::uint64_t data_bytes_ = 0;
  std::uint64_t total_ops_ = 0;
  bool keep_spans_ = false;
  std::uint64_t completed_ = 0;
  bool early_ = false;  // some request was issued before it was due
  std::vector<RequestSpan> spans_;
};

/// Host-clock stamps (steady_clock ns) taken at the workload seams.
struct SeamTimes {
  std::uint64_t setup_begin = 0;
  std::uint64_t setup_end = 0;
  std::uint64_t first_drive = 0;
  std::uint64_t verify_begin = 0;
  std::uint64_t verify_end = 0;
};

std::uint64_t hostNowNs();

class TimedSource final : public nwc::apps::WorkloadSource {
 public:
  explicit TimedSource(nwc::apps::WorkloadSource& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  void setup(nwc::apps::AppContext& ctx) override;
  nwc::sim::Task<> drive(nwc::apps::AppContext& ctx, int cpu) override;
  bool verify() const override;
  std::uint64_t dataBytes() const override { return inner_.dataBytes(); }

  const SeamTimes& times() const { return t_; }

 private:
  nwc::apps::WorkloadSource& inner_;
  mutable SeamTimes t_;  // verify() is const in the seam
};

}  // namespace perfbench
