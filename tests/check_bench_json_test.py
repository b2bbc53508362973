#!/usr/bin/env python3
"""Unit tests for the --compare gate of tools/check_bench_json.py.

The gate must only compare reports of the same bench configuration: a
fresh report whose `config` differs from the committed baseline's fails
regardless of its rate, and a missing baseline fails too.
"""

import json
import os
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tools"))
import check_bench_json as cbj  # noqa: E402


def report(config, rate=1000.0):
    return {"schema": cbj.SCHEMA, "bench": "ext_scale", "config": config,
            "vm_ticks": 1000, "elapsed_s": 1000.0 / rate,
            "rate_vm_ticks_per_sec": rate,
            "stages": [{"stage": "markov_lookahead", "count": 3,
                        "p50_s": 1e-5, "p90_s": 2e-5, "p99_s": 3e-5}]}


class CompareTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        root = Path(self._tmp.name)
        self.fresh_dir = root / "fresh"
        self.baseline_dir = root / "baseline"
        self.fresh_dir.mkdir()
        self.baseline_dir.mkdir()
        self.fresh = self.fresh_dir / "BENCH_ext_scale.json"

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, path, doc):
        path.write_text(json.dumps(doc))

    def compare(self):
        return cbj.compare_to_baseline(self.fresh, self.baseline_dir, 0.30)

    def test_matching_config_compares_rates(self):
        config = {"apps_max": 1, "configs": 1}
        self.write(self.baseline_dir / self.fresh.name, report(config, 1000.0))
        self.write(self.fresh, report(dict(config), 900.0))
        self.assertEqual(self.compare(), [])
        self.write(self.fresh, report(dict(config), 500.0))
        errors = self.compare()
        self.assertEqual(len(errors), 1)
        self.assertIn("regressed", errors[0])

    def test_mismatched_config_fails_even_when_faster(self):
        self.write(self.baseline_dir / self.fresh.name,
                   report({"apps_max": 1, "configs": 1}, 1000.0))
        self.write(self.fresh, report({"apps_max": 6, "configs": 4}, 5000.0))
        errors = self.compare()
        self.assertEqual(len(errors), 1)
        self.assertIn("config", errors[0])
        self.assertIn("apps_max", errors[0])

    def test_missing_baseline_fails(self):
        self.write(self.fresh, report({"apps_max": 1, "configs": 1}))
        errors = self.compare()
        self.assertEqual(len(errors), 1)
        self.assertIn("no baseline", errors[0])

    def test_main_exit_codes(self):
        config = {"scenario_runs": 75}
        self.write(self.baseline_dir / self.fresh.name, report(config))
        self.write(self.fresh, report(config))
        argv = ["check_bench_json.py", str(self.fresh),
                "--compare", str(self.baseline_dir)]
        self.assertEqual(cbj.main(argv), 0)
        self.write(self.fresh, report({"scenario_runs": 5}))
        self.assertEqual(cbj.main(argv), 1)


if __name__ == "__main__":
    unittest.main()
