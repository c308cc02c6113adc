#!/usr/bin/env python3
"""The benchmark's own tests, at test size (--tiny).

    python3 perfbench/test_perfbench.py

Run from the repository root; the first run builds the driver like
run.py does. The tests check that every metric BENCHMARK.json names is
printed with its unit in both modes on every workload, that the digest
of simulated statistics is identical across two runs (each run checks
that its passes at min(2, nproc) workers reproduce its 1-worker
warm-up pass, so this also covers two worker counts), that the layers'
span self times sum to the layer probe's wall time, and that the
benchmark refuses to run without the simulator sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
SCRATCH = os.path.join(ROOT, ".bench_build", "tests")
WORKLOADS = ("spec_detailed", "detect_functional", "server_multicore")


def run(workload, trace):
    """One tiny run; returns (stdout, last-line result, --out record)."""
    os.makedirs(SCRATCH, exist_ok=True)
    out = os.path.join(SCRATCH, "%s-%d.json" % (workload, trace))
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny", "--out", out]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (
            " ".join(cmd), proc.returncode, proc.stderr[-3000:]))
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    with open(out) as f:
        return proc.stdout, result, json.load(f)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_every_metric_printed_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    stdout, result, _ = run(workload, trace)
                    self.assertEqual(
                        set(result),
                        {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(result["failed"], 0)
                    expected = {m["name"]: m["unit"]
                                for m in self.spec[key]}
                    self.assertEqual(
                        {k: v["unit"]
                         for k, v in result["metrics"].items()},
                        expected)
                    for name, unit in expected.items():
                        self.assertRegex(stdout, r"\n  %s +\S+ %s\n" % (
                            re.escape(name), re.escape(unit)))

    def test_digest_identical_across_worker_counts_and_runs(self):
        if (os.cpu_count() or 1) < 2:
            self.skipTest("needs two hardware threads")
        # run() requires a correct result, which includes each run's
        # own check of its 2-worker passes against its 1-worker pass.
        records = [run("spec_detailed", 0)[2], run("spec_detailed", 0)[2]]
        self.assertEqual(len({r["digest"] for r in records}), 1)
        for name in self.spec["end_to_end"]:
            if name["name"].startswith("sim_overhead"):
                values = {r["result"]["metrics"][name["name"]]["value"]
                          for r in records}
                self.assertEqual(len(values), 1, name["name"])

    def test_self_times_sum_to_probe_wall(self):
        for workload in ("spec_detailed", "server_multicore"):
            with self.subTest(workload=workload):
                metrics = run(workload, 1)[1]["metrics"]
                self_sum = sum(v["value"] for k, v in metrics.items()
                               if k.endswith(".self_s"))
                wall = metrics["bench.probe_wall_s"]["value"]
                self.assertAlmostEqual(self_sum, wall,
                                       delta=0.02 * wall + 0.005)

    def test_refuses_to_run_without_sources(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "spec_detailed", "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=bare, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
