#!/usr/bin/env python3
"""Tests of the repository benchmark.

    python3 perfbench/tests/test_perfbench.py

Each test makes short runs through perfbench/run.py (the first one builds
the harness) and checks that:
  * every workload finishes with no failed operation;
  * its output names every metric BENCHMARK.json declares, untraced and
    traced;
  * with the same seed, the exact counts repeat exactly.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(ROOT, "perfbench", "run.py")
SECONDS = os.environ.get("PERFBENCH_TEST_SECONDS", "2")
EXACT_COUNTS = ("vm.restore_instructions", "vm.kernel_instructions",
                "server.frames_per_restore", "server.connections_per_frame")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    if proc.returncode != 0:
        raise AssertionError("%s --trace %d failed:\n%s" %
                             (workload, trace, proc.stderr[-4000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    def check(self, result, declared):
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in declared})
        units = {m["name"]: m["unit"] for m in declared}
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], units[name], name)

    def test_untraced_runs_name_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = run(workload, 3, 0)
                self.check(result, SPEC["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_runs_repeat_exact_counts(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = run(workload, 4, 1)
                second = run(workload, 4, 1)
                self.check(first, SPEC["per_layer"])
                self.check(second, SPEC["per_layer"])
                for name in EXACT_COUNTS:
                    self.assertGreater(first["metrics"][name]["value"], 0)
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)


if __name__ == "__main__":
    unittest.main()
