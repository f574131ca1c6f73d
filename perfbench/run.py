#!/usr/bin/env python3
"""The repository benchmark: builds the simulator's libraries and the
benchmark driver from source, runs one workload for about --seconds, checks
the simulated outputs, and prints every metric by name.

    python3 perfbench/run.py --workload mg-nwcache --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics from untraced repetitions;
--trace 1 makes the separate traced run that gives the per-layer metrics.
A human-readable table goes to stdout first; the last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}. The exit code is
non-zero when the build fails or any correctness check fails.
See perfbench/README.md for the workloads, metrics and method.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

WORKLOADS = ["mg-nwcache", "store-write", "store-read"]

# Repetitions per run never fall below this, whatever --seconds says.
MIN_REPS = 3

# Set-up is short, so each repetition is followed by this many set-up-only
# processes and setup_s is the median over all of them.
SETUP_PROBES = 3

# (name, unit, better): the end-to-end metrics, in BENCHMARK.json order.
END_TO_END = [
    ("ops_per_s", "ops/s", "higher"),
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_exec_ms", "sim_ms", "lower"),
    ("fault_mean_us", "sim_us", "lower"),
    ("swapout_mean_us", "sim_us", "lower"),
]

# Isolated layer drivers: ns per call, and the host-time layer each feeds.
HOST_DRIVERS = [
    ("mem.cache.access_ns", "mem_ref"),
    ("mem.tlb.op_ns", "mem_ref"),
    ("mem.dir.op_ns", "mem_ref"),
    ("mem.cache.invalidate_page_ns", "mem_invalidate"),
    ("sim.event_ns", "sim"),
    ("sim.fifo_request_ns", "sim"),
    ("vm.page_table_ns", "vm"),
    ("net.mesh.transfer_ns", "net"),
    ("nwcache.ring.op_ns", "nwcache"),
    ("io.disk_cache.op_ns", "io"),
]
HOST_LAYERS = ["mem_ref", "mem_invalidate", "sim", "vm", "net", "nwcache", "io"]

ATTR_STAGES = ["mesh", "mem_bus", "io_bus", "ring", "disk_queue", "disk_seek",
               "disk_transfer", "disk_ctrl", "ring_retune"]

# Simulated per-layer metrics read from the run's metrics catalog.
SIM_LAYER = [
    ("sim.events", "count"), ("sim.events_per_op", "events/op"),
    ("vm.faults", "count"), ("vm.swap_outs", "count"),
    ("vm.clean_evictions", "count"), ("vm.nofree_stall_ms", "sim_ms"),
    ("nwcache.ring.inserts", "count"), ("nwcache.ring.read_hit_ratio", "ratio"),
    ("nwcache.ring.peak_pages", "pages"), ("nwcache.receiver.busy_ms", "sim_ms"),
    ("nwcache.receiver.queued_ms", "sim_ms"), ("nwcache.receiver.retunes", "count"),
    ("nwcache.swap.nacks", "count"),
    ("io.disk.reads", "count"), ("io.disk.writes", "count"),
    ("io.disk.arm_busy_ms", "sim_ms"), ("io.disk.arm_queued_ms", "sim_ms"),
    ("io.disk_cache.hit_ratio", "ratio"), ("io.destage.pages_per_write", "pages"),
    ("io.destage.stall_ms", "sim_ms"), ("io.bus.busy_ms", "sim_ms"),
    ("io.bus.queued_ms", "sim_ms"),
    ("mem.tlb.miss_ratio", "ratio"), ("mem.tlb.shootdowns", "count"),
    ("mem.bus.busy_ms", "sim_ms"), ("mem.bus.queued_ms", "sim_ms"),
    ("mem.cache.invalidate_pages", "count"),
    ("net.mesh.bytes", "bytes"), ("net.mesh.link_busy_ms", "sim_ms"),
    ("net.mesh.link_queued_ms", "sim_ms"),
]

# (name, unit, better): the per-layer metrics, in BENCHMARK.json order.
PER_LAYER = (
    [(name, "ns", "lower") for name, _ in HOST_DRIVERS]
    + [("host.%s_ms" % layer, "ms", "lower") for layer in HOST_LAYERS]
    + [("host.unattributed_ms", "ms", "lower")]
    + [(name, unit, "lower") for name, unit in SIM_LAYER]
    + [("machine.attr.%s.%s_us" % (op, stage), "sim_us", "lower")
       for op in ("fault", "swap") for stage in ATTR_STAGES]
    + [
        ("apps.setup_ms", "ms", "lower"),
        ("apps.verify_ms", "ms", "lower"),
        ("apps.issue_late_p99_us", "sim_us", "lower"),
        ("apps.req_p50_us", "sim_us", "lower"),
        ("apps.req_p99_us", "sim_us", "lower"),
        ("machine.fault_p50_us", "sim_us", "lower"),
        ("machine.fault_p99_us", "sim_us", "lower"),
        ("machine.swapout_p50_us", "sim_us", "lower"),
        ("machine.swapout_p99_us", "sim_us", "lower"),
        ("obs.publish_ms", "ms", "lower"),
        ("obs.trace_overhead_ratio", "ratio", "lower"),
    ]
)
# More of these is better; every other per-layer metric is lower-is-better.
HIGHER_IS_BETTER = {"nwcache.ring.read_hit_ratio", "io.disk_cache.hit_ratio",
                    "io.destage.pages_per_write"}
PER_LAYER = [(n, u, "higher" if n in HIGHER_IS_BETTER else b) for n, u, b in PER_LAYER]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(targets=("nwcbench",)):
    """Configures and builds `targets`; returns (build dir, target dir) or
    exits 2."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    bdir = os.path.join(target, "perfbench")
    os.makedirs(bdir, exist_ok=True)
    logpath = os.path.join(bdir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", bdir])
    steps.append(["cmake", "--build", bdir, "-j", "4", "--target"] + list(targets))
    with open(logpath, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                with open(logpath) as f:
                    log(f.read()[-4000:])
                log("perfbench: build failed (see %s)" % logpath)
                sys.exit(2)
    return bdir, target


def probe_setup(exe, args, gate):
    """One set-up-only process; returns its setup_s or None."""
    out, rc = run_driver(exe, ["setup", "--workload", args.workload, "--seed", str(args.seed)])
    if out is None or rc != 0:
        gate.errors.append("set-up probe failed (exit %d)" % rc)
        return None
    return out["setup_s"]


def run_driver(exe, args):
    """Runs one driver process; returns (parsed JSON or None, exit code)."""
    proc = subprocess.run([exe] + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), proc.returncode
    except (IndexError, ValueError):
        return None, proc.returncode or 1


class Gate:
    """Correctness bookkeeping: ops attempted and ops of failed repetitions."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digest = None

    def admit(self, rep, rc, what):
        if rep is None:
            self.errors.append("%s: driver crashed (exit %d)" % (what, rc))
            self.attempted += 1
            self.failed += 1
            return None
        ops = int(rep["ops"])
        self.attempted += ops
        problem = ""
        if rc != 0 or not rep["ok"]:
            problem = rep["error"] or "exit %d" % rc
        if not problem and self.digest is not None and rep["digest"] != self.digest:
            problem = "simulated outputs differ between repetitions (digest %s vs %s)" % (
                rep["digest"], self.digest)
        if problem:
            self.errors.append("%s: %s" % (what, problem))
            self.failed += ops
            return None
        if self.digest is None:
            self.digest = rep["digest"]
        return rep

    @property
    def correct(self):
        return not self.errors and self.failed == 0


def median(values):
    return statistics.median(values) if values else 0.0


def rep_args(workload, seed, *extra):
    return ["rep", "--workload", workload, "--seed", str(seed)] + list(extra)


def measure_end_to_end(exe, args, gate):
    """Trace 0: one repetition with the attribution sink (simulated
    latencies), then untraced repetitions for the host metrics, each
    followed by set-up probes."""
    start = time.monotonic()
    check = gate.admit(*run_driver(exe, rep_args(args.workload, args.seed, "--attr")),
                       "attributed repetition")
    hosts = []
    setups = []
    last = 0.0
    while len(hosts) < MIN_REPS or time.monotonic() + last <= start + args.seconds:
        t = time.monotonic()
        rep = gate.admit(*run_driver(exe, rep_args(args.workload, args.seed)),
                         "repetition %d" % (len(hosts) + 1))
        if rep is None:
            break
        hosts.append(rep)
        setups.append(rep["host"]["setup_s"])
        probes = [probe_setup(exe, args, gate) for _ in range(SETUP_PROBES)]
        if None in probes:
            break
        setups += probes
        last = time.monotonic() - t
    if check is None or not hosts or not gate.correct:
        return {}, []

    def host(key, unit, note="", values=None):
        values = values or [r["host"][key] for r in hosts]
        return (key, median(values), unit, "median of %d (%.6g..%.6g)%s" % (
            len(values), min(values), max(values), note))

    sim = check["sim"]
    table = [
        host("ops_per_s", "ops/s", ", %d ops each" % check["ops"]),
        host("wall_s", "s"),
        host("setup_s", "s", ", repetitions and set-up probes", setups),
        host("peak_rss_mb", "MB"),
        ("sim_exec_ms", sim["sim_exec_ms"], "sim_ms", "simulated"),
        ("fault_mean_us", sim["fault_mean_us"], "sim_us", "n=%d" % sim["fault_n"]),
        ("swapout_mean_us", sim["swapout_mean_us"], "sim_us", "n=%d" % sim["swapout_n"]),
    ]
    for key in ("fault", "swapout", "req"):
        if key + "_n" not in sim:
            table.append(("%s_p50_us" % key, None, "sim_us", "n/a: closed loop, no due times"))
            table.append(("%s_p99_us" % key, None, "sim_us", "n/a: closed loop, no due times"))
            continue
        count = int(sim[key + "_n"])
        table.append(("%s_p50_us" % key, sim[key + "_p50_us"], "sim_us", "n=%d" % count))
        table.append(("%s_p99_us" % key, sim[key + "_p99_us"], "sim_us",
                      "n=%d, reported at p%.3f" % (count, sim[key + "_p99_pct"])))
    metrics = {name: value for name, value, _, _ in table}
    return metrics, table


def measure_per_layer(exe, args, gate, target):
    """Trace 1: traced repetitions (attribution sink + spans) alternating with
    untraced ones for the overhead ratio, then the isolated layer drivers."""
    start = time.monotonic()
    spans_dir = os.path.join(target, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, "%s-seed%d.json" % (args.workload, args.seed))
    traced_args = rep_args(args.workload, args.seed, "--attr", "--spans", spans)
    # A third of the run (at least a second) is left for the layer drivers.
    reps_until = start + max(args.seconds * 2 / 3, 1.0)
    traced, untraced = [], []
    first = gate.admit(*run_driver(exe, traced_args + ["--crosscheck"]), "traced repetition 1")
    if first is not None:
        traced.append(first)
    last = 0.0
    while first is not None and (len(untraced) < 2 or time.monotonic() + last <= reps_until):
        t = time.monotonic()
        pair = []
        for kind, rep_argv in (("untraced", rep_args(args.workload, args.seed)),
                               ("traced", traced_args)):
            rep = gate.admit(*run_driver(exe, rep_argv), "%s repetition" % kind)
            pair.append(rep)
        last = time.monotonic() - t
        if None in pair:
            break
        untraced.append(pair[0])
        traced.append(pair[1])
    if not traced or not untraced:
        return {}, []

    # The layer process reruns the workload to capture its traffic, so its
    # simulated outputs pass the same digest check.
    remaining = max(1.0, start + args.seconds - time.monotonic())
    layers = gate.admit(*run_driver(exe, ["layers", "--workload", args.workload, "--seed",
                                          str(args.seed), "--seconds", "%.3f" % remaining]),
                        "layer drivers")
    if layers is None:
        return {}, []
    ns = layers["layers"]

    base = traced[0]
    metrics = {name: ns[name] for name, _ in HOST_DRIVERS}
    loop_ms = median([r["host"]["event_loop_ms"] for r in untraced])
    estimate = {layer: 0.0 for layer in HOST_LAYERS}
    for name, layer in HOST_DRIVERS:
        estimate[layer] += ns[name] * base["calls"][name] / 1e6
    for layer in HOST_LAYERS:
        metrics["host.%s_ms" % layer] = estimate[layer]
    metrics["host.unattributed_ms"] = loop_ms - sum(estimate.values())
    for name, _ in SIM_LAYER:
        metrics[name] = base["layer"][name]
    for op in ("fault", "swap"):
        for stage in ATTR_STAGES:
            name = "machine.attr.%s.%s_us" % (op, stage)
            metrics[name] = base["layer"][name]
    for name in ("apps.setup_ms", "apps.verify_ms", "obs.publish_ms"):
        metrics[name] = median([r["host"][name] for r in traced])
    metrics["apps.issue_late_p99_us"] = base["layer"]["apps.issue_late_p99_us"]
    metrics["apps.req_p50_us"] = base["sim"].get("req_p50_us", 0.0)
    metrics["apps.req_p99_us"] = base["sim"].get("req_p99_us", 0.0)
    for key in ("fault_p50_us", "fault_p99_us", "swapout_p50_us", "swapout_p99_us"):
        metrics["machine." + key] = base["sim"][key]
    metrics["obs.trace_overhead_ratio"] = (
        median([r["host"]["wall_s"] for r in traced])
        / median([r["host"]["wall_s"] for r in untraced]))

    units = {name: unit for name, unit, _ in PER_LAYER}
    table = [(name, metrics[name], units[name], "") for name, _, _ in PER_LAYER]
    largest = max(HOST_LAYERS, key=lambda layer: estimate[layer])
    table.append(("host.largest_layer", None, "", "%s (%.1f ms of %.1f ms event loop, "
                  "median of %d untraced)" % (largest, estimate[largest], loop_ms,
                                              len(untraced))))
    table.append(("spans", None, "", os.path.relpath(spans, ROOT)))
    return metrics, table


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    bdir, target = build()
    exe = os.path.join(bdir, "nwcbench")
    gate = Gate()
    if args.trace == 0:
        metrics, table = measure_end_to_end(exe, args, gate)
        wanted = END_TO_END
    else:
        metrics, table = measure_per_layer(exe, args, gate, target)
        wanted = PER_LAYER

    print("perfbench %s seed=%d trace=%d" % (args.workload, args.seed, args.trace))
    for name, value, unit, note in table:
        if not unit:
            print("  %-36s %s" % (name, note))
            continue
        shown = "n/a" if value is None else "%.6g" % value
        print("  %-36s %14s %-7s %s" % (name, shown, unit, note))
    attempted = max(gate.attempted, 1)
    print("  %-36s %14.6g %-7s %d of %d ops failed" % (
        "fail_ratio", gate.failed / attempted, "ratio", gate.failed, attempted))
    for err in gate.errors:
        print("  FAILED: %s" % err)

    correct = gate.correct and all(name in metrics for name, _, _ in wanted)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": gate.failed if correct else max(gate.failed, 1),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in wanted if name in metrics},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
