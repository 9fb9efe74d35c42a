#!/usr/bin/env python3
"""The benchmark's own test: output contract and the reconciliation bound.

    python3 perfbench/test_perfbench.py [workload ...]

For each workload (default: every one BENCHMARK.json names) it runs run.py
briefly with --trace 0 and --trace 1 and checks that

  * the run passes its correctness gate and prints every metric that
    BENCHMARK.json names for that mode, with the unit named there;
  * the traced layers account for the traced run's mean latency within
    RESIDUAL_SHARE of it: |trace.mean_us - serve.layer_sum_us|;
  * hence the untraced mean differs from the layer sum by at most the
    tracing overhead plus that share of the untraced mean:
    |serve.unattributed_us| <= |trace.overhead_us| + RESIDUAL_SHARE *
    serve.mean_us.

Both means are over typical requests (undisturbed windows, within their
window's p99), so a host stall does not decide the outcome.
"""

import json
import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RESIDUAL_SHARE = 0.2
SECONDS = 6


def run(workload, trace):
    result = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=900)
    lines = result.stdout.strip().splitlines()
    return result.returncode, json.loads(lines[-1]) if lines else None


class PerfbenchTest(unittest.TestCase):
    workloads = [w["name"] for w in BENCHMARK["workloads"]]

    def check_contract(self, report, specs):
        self.assertEqual(set(report), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(report["correct"])
        self.assertGreaterEqual(report["attempted"], 1)
        self.assertEqual(report["failed"], 0)
        for spec in specs:
            self.assertIn(spec["name"], report["metrics"])
            self.assertEqual(report["metrics"][spec["name"]]["unit"],
                             spec["unit"], spec["name"])

    def test_end_to_end(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                code, report = run(workload, 0)
                self.assertEqual(code, 0)
                self.check_contract(report, BENCHMARK["end_to_end"])
                for spec in BENCHMARK["end_to_end"]:
                    self.assertGreater(report["metrics"][spec["name"]]["value"],
                                       0, spec["name"])

    def test_traced_reconciles(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                code, report = run(workload, 1)
                self.assertEqual(code, 0)
                self.check_contract(report, BENCHMARK["per_layer"])
                m = {k: v["value"] for k, v in report["metrics"].items()}
                self.assertLessEqual(
                    abs(m["trace.mean_us"] - m["serve.layer_sum_us"]),
                    RESIDUAL_SHARE * m["trace.mean_us"])
                self.assertLessEqual(
                    abs(m["serve.unattributed_us"]),
                    abs(m["trace.overhead_us"]) +
                    RESIDUAL_SHARE * m["serve.mean_us"])


if __name__ == "__main__":
    if len(sys.argv) > 1:
        PerfbenchTest.workloads = sys.argv[1:]
        del sys.argv[1:]
    unittest.main(verbosity=2)
