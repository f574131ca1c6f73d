// Disk Caching Disk backend (SystemKind::kDCD, Hu & Yang [7]): a dedicated
// log spindle between the controller cache and the data disk absorbs write
// batches sequentially (no seek); a destage daemon copies log pages back to
// the data disk whenever the data arm is idle. Reads that miss the
// controller cache but hit the log are served from the log spindle.
#pragma once

#include <memory>
#include <vector>

#include "io/log_disk.hpp"
#include "machine/backends/disk_backend.hpp"

namespace nwc::machine {

class DcdBackend : public DiskBackend {
 public:
  explicit DcdBackend(Machine& m);

  sim::Task<bool> fetch(int cpu, sim::PageId page, const FetchPlan& plan,
                        obs::AttrCtx& actx) override;
  bool readFromStage(int disk_idx, sim::PageId page, sim::Tick t,
                     sim::Tick* done, obs::AttrCtx& actx) override;
  BatchWrite writeBatch(int disk_idx, const std::vector<sim::PageId>& batch,
                        obs::AttrCtx& actx) override;
  void finishBatch(int disk_idx, const std::vector<sim::PageId>& batch,
                   const BatchWrite& w) override;
  void startDiskDaemons(int disk_idx) override;
  void publishMetrics(obs::MetricsRegistry& reg) const override;
  io::LogDisk* logDisk(int disk_idx) override {
    return logs_[static_cast<std::size_t>(disk_idx)].get();
  }

 private:
  sim::Task<> destageLoop(int disk_idx);

  /// The run of live log pages with consecutive page numbers anchored at
  /// `anchor` (write-combine destage; bounded by kMaxDestageRun).
  std::vector<sim::PageId> destageRun(io::LogDisk& lg, sim::PageId anchor) const;

  io::LogDisk& log(int disk_idx) {
    return *logs_[static_cast<std::size_t>(disk_idx)];
  }

  std::vector<std::unique_ptr<io::LogDisk>> logs_;  // one per disk
};

}  // namespace nwc::machine
