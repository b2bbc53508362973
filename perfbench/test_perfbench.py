#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Runs perfbench/run.py (building on first use) with short runs and checks
that the same seed gives identical deterministic figures, that another
seed passes every output check, that the printed metric names and units
match BENCHMARK.json exactly, and that the benchmark refuses to report
when the sources are missing.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"
OTHER_SEED = 7
# Detail-line figures that depend only on the seed, never on timing.
DETERMINISTIC = ("violation_s", "accuracy_tpr", "accuracy_fpr")


def run(workload, seed, trace, root=ROOT):
    env = dict(os.environ)
    if root != ROOT:
        env.pop("CARGO_TARGET_DIR", None)  # build inside the bare copy
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=root, env=env, timeout=900)


def parse(out):
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)
        with open(os.path.join(HERE, "golden.json")) as f:
            cls.golden = json.load(f)
        cls.workloads = [w["name"] for w in cls.bench["workloads"]]

    def expect_ok(self, out):
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        result, detail = parse(out)
        self.assertTrue(result["correct"], detail["failures"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        return result, detail

    def expect_names(self, result, declared):
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(printed, {m["name"]: m["unit"] for m in declared})

    def test_same_seed_is_deterministic_and_matches_recorded_checksum(self):
        seed = self.golden["seed"]
        for workload in self.workloads:
            with self.subTest(workload=workload):
                first, first_detail = self.expect_ok(run(workload, seed, 0))
                second, second_detail = self.expect_ok(run(workload, seed, 0))
                self.expect_names(first, self.bench["end_to_end"])
                self.assertEqual(first_detail["checksum"],
                                 self.golden["checksums"][workload])
                self.assertEqual(first_detail["checksum"],
                                 second_detail["checksum"])
                self.assertEqual(first_detail["fingerprint"],
                                 second_detail["fingerprint"])
                for name in DETERMINISTIC:
                    self.assertEqual(first_detail["metrics"].get(name),
                                     second_detail["metrics"].get(name))

    def test_other_seed_passes_every_check(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                result, detail = self.expect_ok(run(workload, OTHER_SEED, 0))
                self.assertNotEqual(detail["checksum"],
                                    self.golden["checksums"][workload])
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0.0)

    def test_traced_run_prints_per_layer_metrics(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                result, _ = self.expect_ok(run(workload, OTHER_SEED, 1))
                self.expect_names(result, self.bench["per_layer"])

    def test_consolidated_at_recorded_seed(self):
        # Not in BENCHMARK.json (the simulator aborts at some seeds, see
        # README.md), but it must keep working where it does.
        seed = self.golden["seed"]
        result, detail = self.expect_ok(run("consolidated", seed, 0))
        self.expect_names(result, self.bench["end_to_end"])
        self.assertEqual(detail["checksum"],
                         self.golden["checksums"]["consolidated"])
        result, _ = self.expect_ok(run("consolidated", seed, 1))
        self.expect_names(result, self.bench["per_layer"])

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as root:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
            shutil.copytree(HERE, os.path.join(root, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = run(self.workloads[0], OTHER_SEED, 0, root=root)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
