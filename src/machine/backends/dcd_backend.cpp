#include "machine/backends/dcd_backend.hpp"

#include "machine/backends/cache_policy.hpp"
#include "obs/timeline.hpp"

namespace nwc::machine {

namespace {
// Longest adjacent-page run one write-combine destage pass may coalesce.
// Bounded so a long run cannot monopolize the data arm against demand reads
// (the destage daemon only *starts* while the arm is idle).
constexpr int kMaxDestageRun = 8;
}  // namespace

DcdBackend::DcdBackend(Machine& m) : DiskBackend(m) {
  for (int d = 0; d < numDisks(); ++d) {
    io::DiskParams lp;
    lp.min_seek_ms = cfg().min_seek_ms;
    lp.max_seek_ms = cfg().max_seek_ms;
    lp.rot_ms = cfg().rot_ms;
    lp.bytes_per_sec = cfg().log_disk_bps;
    lp.pcycle_ns = cfg().pcycle_ns;
    lp.page_bytes = cfg().page_bytes;
    lp.pages_per_cylinder = cfg().pages_per_cylinder;
    lp.cylinders = cfg().disk_cylinders;
    logs_.push_back(std::make_unique<io::LogDisk>(
        lp, rng().fork(0x40 + static_cast<std::uint64_t>(d))));
  }
  policy_ = makeCachePolicy(cfg(), metrics());
}

void DcdBackend::startDiskDaemons(int disk_idx) {
  eng().spawn(destageLoop(disk_idx));
}

sim::Task<bool> DcdBackend::fetch(int cpu, sim::PageId page,
                                  const FetchPlan& plan, obs::AttrCtx& actx) {
  (void)plan;  // only Route::kDisk is ever planned here
  // Feed the admission policy: a fault whose current version still sits in
  // the log is evidence the write cache is holding the right pages.
  policy_->noteFault(page, log(diskIndexOf(page)).contains(page));
  return fetchFromDisk(cpu, page, actx);
}

bool DcdBackend::readFromStage(int disk_idx, sim::PageId page, sim::Tick t,
                               sim::Tick* done, obs::AttrCtx& actx) {
  io::LogDisk& lg = log(disk_idx);
  if (!lg.contains(page)) return false;
  // The current version lives in the log; read it from the log spindle
  // (random access: seek + rotation). No sequential prefetch — log
  // neighbours are unrelated pages.
  const sim::Tick svc = lg.readTime(page);
  const sim::Tick end = lg.arm().request(t, svc);
  actx.add(obs::AttrStage::kDiskQueue, end - svc - t, 0);
  const sim::Tick xfer = lg.pageTransferTicks();
  actx.add(obs::AttrStage::kDiskSeek, 0, svc - xfer);
  actx.add(obs::AttrStage::kDiskTransfer, 0, xfer);
  diskCtx(disk_idx).cache.insertClean(page);
  *done = end;
  return true;
}

IoBackend::BatchWrite DcdBackend::writeBatch(
    int disk_idx, const std::vector<sim::PageId>& batch, obs::AttrCtx& actx) {
  // Admission gate (docs/POLICIES.md): the policy decides — keyed on the
  // batch's anchor page, the oldest dirty slot — whether this batch enters
  // the log at all. Rejected batches go straight to the data platters, as
  // on the standard machine. `always` (default) admits everything.
  if (!policy_->admit(batch.front())) {
    return IoBackend::writeBatch(disk_idx, batch, actx);
  }
  // Dirty slots append to the log disk sequentially (no seek); the destage
  // daemon copies them to the data disk later.
  io::LogDisk& lg = log(disk_idx);
  const sim::Tick now = eng().now();
  const sim::Tick svc = lg.appendTime(static_cast<int>(batch.size()));
  const sim::Tick t = lg.arm().request(now, svc);
  actx.add(obs::AttrStage::kDiskQueue, t - svc - now, 0);
  actx.add(obs::AttrStage::kDestage, 0, svc);
  return BatchWrite{t, svc, true};
}

void DcdBackend::finishBatch(int disk_idx, const std::vector<sim::PageId>& batch,
                             const BatchWrite& w) {
  if (!w.logged) {
    IoBackend::finishBatch(disk_idx, batch, w);
    return;
  }
  log(disk_idx).recordAppend(batch);
  if (etl() != nullptr && etl()->enabled(obs::Layer::kDisk)) {
    etl()->span(obs::Layer::kDisk, "disk.log_append", w.done - w.svc, w.svc,
                diskCtx(disk_idx).node, batch.front());
  }
}

std::vector<sim::PageId> DcdBackend::destageRun(io::LogDisk& lg,
                                                sim::PageId anchor) const {
  // Extend downward then upward over live log pages with consecutive page
  // numbers (same disk by construction: a disk's log only ever receives
  // that disk's pages).
  sim::PageId lo = anchor, hi = anchor;
  while (hi - lo + 1 < kMaxDestageRun && lg.contains(lo - 1)) --lo;
  while (hi - lo + 1 < kMaxDestageRun && lg.contains(hi + 1)) ++hi;
  std::vector<sim::PageId> run;
  run.reserve(static_cast<std::size_t>(hi - lo + 1));
  for (sim::PageId p = lo; p <= hi; ++p) run.push_back(p);
  return run;
}

sim::Task<> DcdBackend::destageLoop(int disk_idx) {
  Machine::DiskCtx& dc = diskCtx(disk_idx);
  io::LogDisk& lg = log(disk_idx);
  const bool combine = cfg().destage_policy == DestageKind::kWriteCombine;
  for (;;) {
    const auto page = lg.oldestLive();
    if (!page.has_value()) {
      co_await dc.work.wait();
      continue;
    }
    // Copy log -> data disk only while the data disk is idle (the DCD's
    // defining behaviour); demand reads always come first.
    if (dc.disk.arm().wouldQueue(eng().now())) {
      co_await eng().waitUntil(dc.disk.arm().busyUntil());
      continue;
    }
    // FIFO destage copies the oldest live page alone; write-combine extends
    // it to the adjacent run so the data arm pays one seek for the lot.
    const std::vector<sim::PageId> run =
        combine ? destageRun(lg, *page) : std::vector<sim::PageId>{*page};

    obs::AttrCtx actx;
    const sim::Tick t0 = eng().now();
    // Gather the run from the log spindle (random access per page)...
    for (sim::PageId p : run) {
      const sim::Tick now = eng().now();
      const sim::Tick svc = lg.readTime(p);
      const sim::Tick read_done = lg.arm().request(now, svc);
      actx.add(obs::AttrStage::kDiskQueue, read_done - svc - now, 0);
      actx.add(obs::AttrStage::kDestage, 0, svc);
      co_await eng().waitUntil(read_done);
    }
    // ... then write it to the data disk in one combined operation.
    {
      const sim::Tick now = eng().now();
      const sim::Tick svc = dc.disk.writeTime(pfs().blockOf(run.front()),
                                              static_cast<int>(run.size()));
      const sim::Tick write_done = dc.disk.arm().request(now, svc);
      actx.add(obs::AttrStage::kDiskQueue, write_done - svc - now, 0);
      actx.add(obs::AttrStage::kDestage, 0, svc);
      co_await eng().waitUntil(write_done);
    }
    for (sim::PageId p : run) {
      lg.remove(p);
      policy_->noteDestage(p);
    }
    recordDestage(actx, eng().now() - t0, run.size(), run.front(), dc.node);
  }
}

void DcdBackend::publishMetrics(obs::MetricsRegistry& reg) const {
  policy_->publishMetrics(reg);
}

}  // namespace nwc::machine
