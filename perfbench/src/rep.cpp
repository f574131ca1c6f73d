#include "rep.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "apps/app_context.hpp"
#include "apps/block_trace.hpp"
#include "apps/runner.hpp"
#include "apps/workload.hpp"
#include "block_driver.hpp"
#include "machine/machine.hpp"
#include "machine/trace.hpp"
#include "obs/attribution.hpp"
#include "obs/registry.hpp"
#include "stats.hpp"

namespace perfbench {

using nwc::obs::AttrOp;
using nwc::obs::AttrRecord;
using nwc::obs::AttrStage;
using nwc::obs::MetricsRegistry;

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> defs = {
      {"mg-nwcache", "mg", Shape::kKernel},
      {"store-write",
       "synth:clients=16;objects=16384;ops=20000;read_ratio=0.3;burst_prob=0.05;"
       "burst_len=32;think_mean=4000000",
       Shape::kStore},
      {"store-read",
       "synth:clients=16;objects=16384;ops=20000;read_ratio=0.95;burst_prob=0;"
       "zipf_theta=0.99;think_mean=400000",
       Shape::kStore},
  };
  return defs;
}

const WorkloadDef* findWorkload(const std::string& name) {
  for (const WorkloadDef& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::string seededSpec(const WorkloadDef& w, std::uint64_t seed) {
  if (w.shape == Shape::kKernel) return w.spec;
  return w.spec + ";seed=" + std::to_string(seed);
}

namespace {

// References a kernel run's traffic capture keeps (16 MB of records).
constexpr std::size_t kRecordedRefs = std::size_t{1} << 20;

// Keeps the first `limit` references of a run.
class PrefixRecorder final : public nwc::machine::RefRecorder {
 public:
  PrefixRecorder(std::vector<Ref>& out, std::size_t limit) : out_(out), limit_(limit) {
    out_.reserve(limit);
  }
  void onRegion(std::uint64_t, std::uint64_t, const std::string&) override {}
  void onAccess(int cpu, std::uint64_t vaddr, bool write) override {
    if (out_.size() < limit_) out_.push_back(Ref{cpu, vaddr, write});
  }
  void onCompute(int, std::uint64_t) override {}
  void onBarrier(int) override {}

 private:
  std::vector<Ref>& out_;
  std::size_t limit_;
};

struct Source {
  std::unique_ptr<nwc::apps::WorkloadSource> src;
  BlockDriver* block = nullptr;  // set for the store workloads
};

Source makeSource(const WorkloadDef& w, std::uint64_t seed, bool keep_spans) {
  const std::string spec = seededSpec(w, seed);
  Source out;
  if (w.shape == Shape::kKernel) {
    const nwc::apps::AppInfo* info = nwc::apps::findApp(spec);
    if (info == nullptr) throw std::invalid_argument("unknown kernel " + spec);
    out.src = std::make_unique<nwc::apps::KernelWorkload>(info->name, info->make(1.0));
  } else {
    const auto s = nwc::apps::SyntheticSpec::parse(spec);
    auto drv = std::make_unique<BlockDriver>(
        s.canonical(), nwc::apps::generateBlockTrace(s, 1.0), keep_spans);
    out.block = drv.get();
    out.src = std::move(drv);
  }
  return out;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double count(const MetricsRegistry& reg, const std::string& name) {
  return reg.has(name) ? static_cast<double>(reg.counterValue(name)) : 0.0;
}

double gauge(const MetricsRegistry& reg, const std::string& name) {
  return reg.has(name) ? reg.gaugeValue(name) : 0.0;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// The simulated per-layer catalog, renamed into layer.metric form.
void layerMetrics(const MetricsRegistry& reg, const nwc::apps::RunSummary& s,
                  std::uint64_t ops, RepResult& r) {
  const double ms = s.cfg.pcycle_ns / 1e6;  // ticks -> simulated ms
  auto& L = r.layer;
  L["sim.events"] = static_cast<double>(s.engine_events);
  L["sim.events_per_op"] = ratio(static_cast<double>(s.engine_events),
                                 static_cast<double>(ops));
  L["vm.faults"] = count(reg, "fault.count");
  L["vm.swap_outs"] = count(reg, "swap.outs");
  L["vm.clean_evictions"] = count(reg, "swap.clean_evictions");
  L["vm.nofree_stall_ms"] = count(reg, "cpu.stall.nofree_ticks") * ms;
  L["nwcache.ring.inserts"] = count(reg, "ring.inserts");
  L["nwcache.ring.read_hit_ratio"] = gauge(reg, "fault.ring_read.rate");
  L["nwcache.ring.peak_pages"] = gauge(reg, "ring.peak_occupancy");
  L["nwcache.receiver.busy_ms"] = count(reg, "ring.receiver.busy_ticks") * ms;
  L["nwcache.receiver.queued_ms"] = count(reg, "ring.receiver.queued_ticks") * ms;
  L["nwcache.receiver.retunes"] = count(reg, "ring.receiver.retunes");
  L["nwcache.swap.nacks"] = count(reg, "swap.nacks");
  double arm_busy = 0, arm_queued = 0, arm_jobs = 0;
  for (int d = 0; d < s.cfg.num_io_nodes; ++d) {
    const std::string p = "disk" + std::to_string(d) + ".arm.";
    arm_busy += count(reg, p + "busy_ticks");
    arm_queued += count(reg, p + "queued_ticks");
    arm_jobs += count(reg, p + "jobs");
  }
  L["io.disk.reads"] = count(reg, "disk.reads");
  L["io.disk.writes"] = count(reg, "disk.writes");
  L["io.disk.arm_busy_ms"] = arm_busy * ms;
  L["io.disk.arm_queued_ms"] = arm_queued * ms;
  const double cc_hits = count(reg, "fault.ctrl_cache_hits");
  L["io.disk_cache.hit_ratio"] =
      ratio(cc_hits, cc_hits + count(reg, "fault.ctrl_cache_misses"));
  L["io.destage.pages_per_write"] =
      ratio(count(reg, "destage.pages"), count(reg, "destage.writes"));
  L["io.destage.stall_ms"] = count(reg, "destage.stall_ticks") * ms;
  L["io.bus.busy_ms"] = count(reg, "bus.io.busy_ticks") * ms;
  L["io.bus.queued_ms"] = count(reg, "bus.io.queued_ticks") * ms;
  const double tlb_lookups = count(reg, "tlb.hits") + count(reg, "tlb.misses");
  L["mem.tlb.miss_ratio"] = ratio(count(reg, "tlb.misses"), tlb_lookups);
  L["mem.tlb.shootdowns"] = count(reg, "tlb.shootdowns");
  L["mem.bus.busy_ms"] = count(reg, "bus.mem.busy_ticks") * ms;
  L["mem.bus.queued_ms"] = count(reg, "bus.mem.queued_ticks") * ms;
  L["net.mesh.bytes"] = count(reg, "mesh.total_bytes");
  L["net.mesh.link_busy_ms"] = count(reg, "mesh.link_busy_ticks") * ms;
  L["net.mesh.link_queued_ms"] = count(reg, "mesh.link_queued_ticks") * ms;
  // Every eviction invalidates the victim page in each node's L1 and L2.
  L["mem.cache.invalidate_pages"] =
      count(reg, "tlb.shootdowns") * 2.0 * s.cfg.num_nodes;

  // Call counts the host-time estimate weights each driver's ns by. Where
  // the catalog has no exact count the comment says what bounds it.
  auto& C = r.calls;
  C["mem.cache.access_ns"] = tlb_lookups;  // one cache-path pass per reference
  C["mem.tlb.op_ns"] = tlb_lookups;
  // Upper bound: directory actions ride on memory-bus jobs, plus one page
  // drop per eviction.
  C["mem.dir.op_ns"] = count(reg, "bus.mem.jobs") + count(reg, "tlb.shootdowns");
  C["mem.cache.invalidate_page_ns"] = L["mem.cache.invalidate_pages"];
  C["sim.event_ns"] = static_cast<double>(s.engine_events);
  C["sim.fifo_request_ns"] = count(reg, "bus.mem.jobs") + count(reg, "bus.io.jobs") +
                             count(reg, "ring.tx.jobs") +
                             count(reg, "ring.receiver.jobs") + arm_jobs;
  // One entry lookup per reference or block request, two transitions per
  // fault and per eviction.
  C["vm.page_table_ns"] =
      tlb_lookups + count(reg, "block.reads") + count(reg, "block.writes") +
      2.0 * (count(reg, "fault.count") + count(reg, "tlb.shootdowns"));
  double messages = 0;
  for (const char* cls : {"page_read", "swap_out", "control", "coherence"}) {
    messages += count(reg, std::string("mesh.") + cls + ".messages");
  }
  C["net.mesh.transfer_ns"] = messages;
  C["nwcache.ring.op_ns"] = count(reg, "ring.inserts") + count(reg, "ring.removes");
  C["io.disk_cache.op_ns"] = count(reg, "fault.count") + count(reg, "swap.outs") +
                             2.0 * count(reg, "destage.writes");
}

// Exact latency percentiles and mean per-stage attribution from the
// per-operation records.
void attrMetrics(const std::vector<AttrRecord>& recs, double us_per_tick,
                 RepResult& r) {
  constexpr AttrStage kStages[] = {
      AttrStage::kMesh,       AttrStage::kMemBus,       AttrStage::kIoBus,
      AttrStage::kRing,       AttrStage::kDiskQueue,    AttrStage::kDiskSeek,
      AttrStage::kDiskTransfer, AttrStage::kDiskCtrl,   AttrStage::kRingRetune,
  };
  for (const AttrOp op : {AttrOp::kFault, AttrOp::kSwap}) {
    std::vector<std::uint64_t> lat;
    std::vector<double> stage_sum(std::size(kStages), 0.0);
    for (const AttrRecord& rec : recs) {
      if (rec.op != op) continue;
      lat.push_back(rec.end_to_end);
      for (std::size_t i = 0; i < std::size(kStages); ++i) {
        stage_sum[i] += static_cast<double>(
            rec.stages[static_cast<std::size_t>(kStages[i])].total());
      }
    }
    const std::string key = op == AttrOp::kFault ? "fault" : "swapout";
    double sum = 0.0;
    for (const std::uint64_t v : lat) sum += static_cast<double>(v);
    r.sim[key + "_mean_us"] =
        lat.empty() ? 0.0 : sum / static_cast<double>(lat.size()) * us_per_tick;
    const Percentile p50 = medianOf(lat);
    const Percentile tail = tailOf(lat);
    r.sim[key + "_p50_us"] = p50.value * us_per_tick;
    r.sim[key + "_p99_us"] = tail.value * us_per_tick;
    r.sim[key + "_p99_pct"] = tail.pct;
    r.sim[key + "_n"] = static_cast<double>(lat.size());
    const std::string prefix =
        std::string("machine.attr.") + (op == AttrOp::kFault ? "fault." : "swap.");
    for (std::size_t i = 0; i < std::size(kStages); ++i) {
      r.layer[prefix + nwc::obs::toString(kStages[i]) + "_us"] =
          lat.empty() ? 0.0
                      : stage_sum[i] / static_cast<double>(lat.size()) * us_per_tick;
    }
  }
}

void requestMetrics(const std::vector<RequestSpan>& spans, double us_per_tick,
                    RepResult& r) {
  std::vector<std::uint64_t> lat, late;
  lat.reserve(spans.size());
  late.reserve(spans.size());
  for (const RequestSpan& s : spans) {
    lat.push_back(s.done - s.due);
    late.push_back(s.issue - s.due);
  }
  const Percentile p50 = medianOf(lat);
  const Percentile tail = tailOf(lat);
  r.sim["req_p50_us"] = p50.value * us_per_tick;
  r.sim["req_p99_us"] = tail.value * us_per_tick;
  r.sim["req_p99_pct"] = tail.pct;
  r.sim["req_n"] = static_cast<double>(lat.size());
  r.layer["apps.issue_late_p99_us"] = tailOf(late).value * us_per_tick;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void writeSpans(const std::string& path, const SeamTimes& t, std::uint64_t t0,
                std::uint64_t t_built, std::uint64_t t_end,
                const BlockDriver* block) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  // Host spans (steady_clock ns) around each call the benchmark makes into
  // a layer; "parent" is the enclosing span's index.
  struct Span {
    const char* name;
    std::uint64_t start, end;
    int parent;
  };
  const Span spans[] = {
      {"rep", t0, t_end, -1},
      {"apps.construct", t0, t_built, 0},
      {"machine.construct", t_built, t.setup_begin, 0},
      {"apps.setup", t.setup_begin, t.setup_end, 0},
      {"machine.start", t.setup_end, t.first_drive, 0},
      {"sim.event_loop", t.first_drive, t.verify_begin, 0},
      {"apps.verify", t.verify_begin, t.verify_end, 0},
      {"obs.publish", t.verify_end, t_end, 0},
  };
  out << "{\"schema\":\"perfbench-spans-v1\",\"host_spans\":[";
  bool first = true;
  for (const Span& s : spans) {
    out << (first ? "" : ",") << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start
        << ",\"end_ns\":" << s.end << ",\"parent\":" << s.parent << "}";
    first = false;
  }
  // Simulated request spans (ticks): due, issue, done per request, in
  // completion order.
  out << "],\"request_spans\":[";
  if (block != nullptr) {
    first = true;
    for (const RequestSpan& s : block->spans()) {
      out << (first ? "" : ",") << '[' << s.due << ',' << s.issue << ',' << s.done << ']';
      first = false;
    }
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

}  // namespace

double setupSeconds(const WorkloadDef& w, std::uint64_t seed) {
  const nwc::machine::MachineConfig cfg = benchConfig(seed);
  const std::uint64_t t0 = hostNowNs();
  const Source source = makeSource(w, seed, false);
  nwc::machine::Machine m(cfg);
  nwc::apps::AppContext ctx(m);
  source.src->setup(ctx);
  m.start();
  return static_cast<double>(hostNowNs() - t0) / 1e9;
}

RepResult runRep(const WorkloadDef& w, std::uint64_t seed, const RepOptions& opt) {
  const nwc::machine::MachineConfig cfg = benchConfig(seed);
  const double us_per_tick = cfg.pcycle_ns / 1e3;
  const std::string spec = seededSpec(w, seed);
  // Spans are kept only when something reads them, so untraced runs pay
  // for nothing the program itself does not do.
  const bool keep_spans = opt.attr || !opt.spans_path.empty() || opt.traffic != nullptr;

  const std::uint64_t t0 = hostNowNs();
  const Source source = makeSource(w, seed, keep_spans);
  BlockDriver* const block = source.block;
  const std::uint64_t t_built = hostNowNs();
  TimedSource timed(*source.src);
  MetricsRegistry reg;
  std::vector<AttrRecord> recs;
  nwc::apps::ObsSinks sinks;
  sinks.registry = &reg;
  if (opt.attr) sinks.attr_records = &recs;
  std::unique_ptr<PrefixRecorder> recorder;
  if (opt.traffic != nullptr && block == nullptr) {
    recorder = std::make_unique<PrefixRecorder>(opt.traffic->refs, kRecordedRefs);
    sinks.ref_recorder = recorder.get();
  }
  const nwc::apps::RunSummary s = nwc::apps::runWorkload(cfg, timed, sinks);
  const std::uint64_t t_end = hostNowNs();
  const SeamTimes& t = timed.times();

  RepResult r;
  r.ops = block != nullptr ? block->totalOps() : s.metrics.totalAccesses();
  const double run_s = static_cast<double>(t_end - t.first_drive) / 1e9;
  r.host["setup_s"] = static_cast<double>(t.first_drive - t0) / 1e9;
  r.host["run_s"] = run_s;
  r.host["wall_s"] = static_cast<double>(t_end - t0) / 1e9;
  r.host["ops_per_s"] = static_cast<double>(r.ops) / run_s;
  r.host["apps.setup_ms"] = static_cast<double>(t.setup_end - t.setup_begin) / 1e6;
  r.host["apps.verify_ms"] = static_cast<double>(t.verify_end - t.verify_begin) / 1e6;
  r.host["obs.publish_ms"] = static_cast<double>(t_end - t.verify_end) / 1e6;
  r.host["event_loop_ms"] = static_cast<double>(t.verify_begin - t.first_drive) / 1e6;

  r.sim["sim_exec_ms"] = static_cast<double>(s.exec_time) * cfg.pcycle_ns / 1e6;
  r.digest = hex(fnv1a(reg.toJson(), fnv1a(std::to_string(s.exec_time))));
  layerMetrics(reg, s, r.ops, r);
  if (opt.attr) attrMetrics(recs, us_per_tick, r);
  if (block == nullptr) {
    r.layer["apps.issue_late_p99_us"] = 0.0;  // closed loop: never late
  } else if (keep_spans) {
    requestMetrics(block->spans(), us_per_tick, r);
  }
  if (opt.traffic != nullptr) {
    opt.traffic->shape = w.shape;
    if (block != nullptr) {
      for (const RequestSpan& q : block->spans()) {
        opt.traffic->refs.push_back(Ref{q.cpu, q.addr, q.write});
      }
    }
    const double transitions = 2.0 * (r.layer["vm.faults"] + r.layer["mem.tlb.shootdowns"]);
    opt.traffic->transitions_per_lookup =
        ratio(transitions, r.calls["vm.page_table_ns"] - transitions);
  }

  // Correctness gate: the program's own verify + invariants, the attribution
  // conservation invariant, and (through BlockDriver::verify) every request.
  if (!s.verified) r.error = "workload verify failed";
  if (!s.invariant_violations.empty()) r.error = "invariants: " + s.invariant_violations;
  if (s.metrics.attr.conservationViolations() != 0) {
    r.error = "attribution: " + s.metrics.attr.firstViolation();
  }

  if (!opt.spans_path.empty()) {
    writeSpans(opt.spans_path, t, t0, t_built, t_end, block);
  }
  r.host["peak_rss_mb"] = peakRssMb();

  if (opt.crosscheck) {
    // The program's own path for the same spec must agree with ours.
    const nwc::apps::RunSummary ref = nwc::apps::runApp(cfg, spec, 1.0);
    r.check["exec_pcycles"] = static_cast<double>(s.exec_time);
    r.check["faults"] = static_cast<double>(s.metrics.faults);
    r.check["swap_outs"] = static_cast<double>(s.metrics.swap_outs);
    r.check["program.exec_pcycles"] = static_cast<double>(ref.exec_time);
    r.check["program.faults"] = static_cast<double>(ref.metrics.faults);
    r.check["program.swap_outs"] = static_cast<double>(ref.metrics.swap_outs);
    if (!ref.ok()) r.error = "program run of " + spec + " failed its checks";
    if (ref.exec_time != s.exec_time || ref.metrics.faults != s.metrics.faults ||
        ref.metrics.swap_outs != s.metrics.swap_outs) {
      r.error = "cross-check: benchmark driver and apps::runApp disagree";
    }
  }
  r.ok = r.error.empty();
  return r;
}

namespace {

void emitMap(std::ostream& o, const char* key, const std::map<std::string, double>& m) {
  o << ",\"" << key << "\":{";
  bool first = true;
  for (const auto& [k, v] : m) {
    o << (first ? "" : ",") << '"' << k << "\":" << v;
    first = false;
  }
  o << '}';
}

std::string escaped(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out;
}

}  // namespace

std::string toJson(const RepResult& r) {
  std::ostringstream o;
  o.precision(17);
  o << "{\"ok\":" << (r.ok ? "true" : "false") << ",\"error\":\"" << escaped(r.error)
    << "\",\"digest\":\"" << r.digest << "\",\"ops\":" << r.ops;
  emitMap(o, "host", r.host);
  emitMap(o, "sim", r.sim);
  emitMap(o, "layer", r.layer);
  emitMap(o, "calls", r.calls);
  emitMap(o, "check", r.check);
  o << '}';
  return o.str();
}

}  // namespace perfbench
