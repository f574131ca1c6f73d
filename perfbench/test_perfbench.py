#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_perfbench.py

They build the driver (as run.py does), run its unit checks (tail
percentile rule, layer-driver geometry), check that every workload and
metric name the benchmark prints is one in BENCHMARK.json, and check that
the benchmark refuses to run without the simulator's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def run_bench(workload, trace, cwd=run.ROOT, seconds=1):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)


class UnitChecks(unittest.TestCase):
    def test_driver_unit_checks(self):
        bdir, _ = run.build(("nwcbench", "nwcbench_tests"))
        proc = subprocess.run([os.path.join(bdir, "nwcbench_tests")],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)


class Names(unittest.TestCase):
    def test_lists_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in BENCH["workloads"]], run.WORKLOADS)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in BENCH["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]],
                         run.PER_LAYER)

    def test_printed_names_are_in_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in BENCH[key]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    proc = run_bench(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    lines = proc.stdout.strip().splitlines()
                    self.assertIn("perfbench %s " % workload, lines[0])
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    printed = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(printed, declared)


class Isolation(unittest.TestCase):
    def test_fails_without_simulator_sources(self):
        _, target = run.build()
        lone = os.path.join(target, "lone-checkout")
        shutil.rmtree(lone, ignore_errors=True)
        os.makedirs(lone)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), lone)
        shutil.copytree(run.BENCH_DIR, os.path.join(lone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "mg-nwcache", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=lone, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=180)
        shutil.rmtree(lone, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
