#!/usr/bin/env python3
"""Self-check of the benchmark at smoke size.

    python3 perfbench/test_perfbench.py

For every workload in BENCHMARK.json:
  * two untraced runs with one seed print identical "record" lines (graph
    and churn-plan fingerprints and the deterministic work counts);
  * an untraced run is correct and reports every end-to-end metric, each
    finite and non-zero;
  * a traced run is correct and reports every per-layer metric, finite.
Across the traced runs of all workloads no per-layer metric may read zero
every time: a metric that is always zero measures nothing.
"""
import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
SECONDS = "0.5"

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    record = [l for l in lines if l.startswith("record ")]
    return json.loads(lines[-1]), record


def check_metrics(test, result, specs, nonzero):
    test.assertTrue(result["correct"])
    test.assertEqual(result["failed"], 0)
    test.assertGreaterEqual(result["attempted"], 1)
    metrics = result["metrics"]
    test.assertEqual(sorted(metrics), sorted(m["name"] for m in specs))
    for spec in specs:
        m = metrics[spec["name"]]
        test.assertEqual(m["unit"], spec["unit"], spec["name"])
        test.assertTrue(math.isfinite(m["value"]), spec["name"])
        if nonzero:
            test.assertNotEqual(m["value"], 0, spec["name"])


class PerfbenchSmoke(unittest.TestCase):
    def test_workloads(self):
        traced_metrics = {}
        for w in SPEC["workloads"]:
            name = w["name"]
            with self.subTest(workload=name):
                first, record_a = run(name, 0)
                _, record_b = run(name, 0)
                self.assertEqual(len(record_a), 1)
                self.assertEqual(record_a, record_b,
                                 "same seed, different deterministic record")
                check_metrics(self, first, SPEC["end_to_end"], nonzero=True)
                traced, _ = run(name, 1)
                check_metrics(self, traced, SPEC["per_layer"], nonzero=False)
                traced_metrics[name] = traced["metrics"]
        always_zero = [
            spec["name"] for spec in SPEC["per_layer"]
            if all(m[spec["name"]]["value"] == 0 for m in traced_metrics.values())
        ]
        self.assertEqual(always_zero, [], "per-layer metrics always zero")


if __name__ == "__main__":
    unittest.main()
