#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

The first test builds the benchmark (about a minute on 4 CPUs); every run
uses --smoke sizes and one-second phases.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)


def run(workload, trace, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"run failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    def check_names(self, result, expected):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], result)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(printed, {m["name"]: m["unit"] for m in expected})

    def test_every_workload_prints_every_metric(self):
        # svc-light is not in BENCHMARK.json but stays runnable by hand.
        for workload in [w["name"] for w in SPEC["workloads"]] + ["svc-light"]:
            with self.subTest(workload=workload, trace=0):
                result = result_of(run(workload, 0))
                self.check_names(result, SPEC["end_to_end"])
                for metric in ("setup_s", "latency_p50_ms", "throughput_rps"):
                    self.assertGreater(result["metrics"][metric]["value"], 0)
            with self.subTest(workload=workload, trace=1):
                self.check_names(result_of(run(workload, 1)), SPEC["per_layer"])

    def test_replay_hit_ratio_matches_daemon_stats(self):
        # The replay serves the stream one request at a time. The daemon
        # serves up to four at once, so up to three concurrent requests for
        # a key may miss before the first one inserts it. Smoke sizes evict
        # nothing, so those are the only extra misses: at most three per
        # key of svc-light's hot set of 32.
        metrics = result_of(run("svc-light", 1))["metrics"]
        replayed = metrics["service.cache_hit_ratio"]["value"]
        daemon = metrics["service.daemon_cache_hit_ratio"]["value"]
        slack = 3 * 32 / metrics["loadgen.samples"]["value"]
        self.assertGreater(replayed, 0.0)
        self.assertLessEqual(daemon, replayed + 1e-12)
        self.assertGreaterEqual(daemon, replayed - slack)

    def test_fails_without_the_program_sources(self):
        build_root = os.path.join(ROOT, ".bench_build")
        os.makedirs(build_root, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=build_root)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(bare, "perfbench"))
            proc = run("svc-light", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
