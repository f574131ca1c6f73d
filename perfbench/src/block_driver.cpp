#include "block_driver.hpp"

#include <chrono>

#include "apps/app_context.hpp"

namespace perfbench {

using nwc::apps::AppContext;

BlockDriver::BlockDriver(std::string name, nwc::apps::BlockTrace trace, bool keep_spans)
    : name_(std::move(name)),
      trace_(std::move(trace)),
      total_ops_(trace_.totalOps()),
      keep_spans_(keep_spans) {
  if (keep_spans_) spans_.reserve(total_ops_);
}

void BlockDriver::setup(AppContext& ctx) {
  nwc::machine::Machine& m = ctx.machine();
  page_bytes_ = m.config().page_bytes;
  data_bytes_ = trace_.objects * page_bytes_;
  base_ = m.allocRegion(data_bytes_, "blockstore");
}

nwc::sim::Task<> BlockDriver::drive(AppContext& ctx, int cpu) {
  nwc::machine::Machine& m = ctx.machine();
  nwc::sim::Engine& eng = m.engine();
  const std::size_t ncpu = static_cast<std::size_t>(ctx.numCpus());

  // Same merge as BlockServeWorkload::drive: this cpu's clients (striped
  // by client id) in scheduled-arrival order, ties broken by client id.
  struct Cursor {
    std::size_t client;
    std::size_t idx;
    std::uint64_t at;
  };
  std::vector<Cursor> cur;
  for (std::size_t c = static_cast<std::size_t>(cpu); c < trace_.clients.size();
       c += ncpu) {
    if (trace_.clients[c].empty()) continue;
    cur.push_back(Cursor{c, 0, trace_.clients[c][0].gap});
  }

  while (!cur.empty()) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < cur.size(); ++i) {
      if (cur[i].at < cur[best].at ||
          (cur[i].at == cur[best].at && cur[i].client < cur[best].client)) {
        best = i;
      }
    }
    Cursor& k = cur[best];
    const nwc::apps::BlockOp& op = trace_.clients[k.client][k.idx];
    const std::uint64_t addr = base_ + op.obj * page_bytes_;
    if (k.at > eng.now()) co_await eng.waitUntil(k.at);
    const std::uint64_t issue = eng.now();
    if (issue < k.at) early_ = true;
    co_await m.blockAccess(cpu, addr, op.write);
    ++completed_;
    if (keep_spans_) spans_.push_back(RequestSpan{k.at, issue, eng.now(), addr, cpu, op.write});

    ++k.idx;
    if (k.idx >= trace_.clients[k.client].size()) {
      cur[best] = cur.back();
      cur.pop_back();
    } else {
      k.at += trace_.clients[k.client][k.idx].gap;
    }
  }
}

bool BlockDriver::verify() const { return completed_ == total_ops_ && !early_; }

std::uint64_t hostNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void TimedSource::setup(AppContext& ctx) {
  t_.setup_begin = hostNowNs();
  inner_.setup(ctx);
  t_.setup_end = hostNowNs();
}

nwc::sim::Task<> TimedSource::drive(AppContext& ctx, int cpu) {
  if (t_.first_drive == 0) t_.first_drive = hostNowNs();
  co_await inner_.drive(ctx, cpu);
}

bool TimedSource::verify() const {
  t_.verify_begin = hostNowNs();
  const bool ok = inner_.verify();
  t_.verify_end = hostNowNs();
  return ok;
}

}  // namespace perfbench
