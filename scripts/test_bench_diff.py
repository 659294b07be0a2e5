#!/usr/bin/env python3
"""Pin the behaviours of bench_diff.py that CI relies on.

Each case writes a BASE and a NEW file shaped like BENCH_serving.json
(a bar list and a point list) and runs bench_diff.py on them:
identical files agree; a flipped bar, a float off by more than 1e-9
relative, a changed string or integer and a dropped point each fail
and name what moved.

Usage: python3 scripts/test_bench_diff.py
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "bench_diff.py")

BASE = {
    "model": "tiny",
    "platform": "A100-80GB",
    "bars": [
        {"name": "prefix_p50_ttft", "met": True},
        {"name": "slo_ordering", "met": True},
    ],
    "points": [
        {"sweep": "preempt_mode", "mode": "swap", "preemptions": 7,
         "tok_s": 123.45},
        {"sweep": "preempt_mode", "mode": "auto", "preemptions": 5,
         "tok_s": 98.765},
    ],
}


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def run_diff(self, new):
        """bench_diff.py BASE NEW: (exit code, stdout)."""
        paths = []
        for name, doc in (("base.json", BASE), ("new.json", new)):
            path = os.path.join(self.dir.name, name)
            with open(path, "w") as f:
                json.dump(doc, f)
            paths.append(path)
        proc = subprocess.run([sys.executable, SCRIPT, *paths],
                              capture_output=True, text=True)
        return proc.returncode, proc.stdout

    def assert_fails_naming(self, new, needle):
        code, out = self.run_diff(new)
        self.assertEqual(code, 1, out)
        self.assertIn(needle, out)

    def test_identical_files_agree(self):
        code, out = self.run_diff(copy.deepcopy(BASE))
        self.assertEqual(code, 0, out)
        self.assertIn("files agree", out)

    def test_flipped_bar_fails(self):
        new = copy.deepcopy(BASE)
        new["bars"][0]["met"] = False
        self.assert_fails_naming(new, "bars[0](prefix_p50_ttft).met")

    def test_float_off_by_1e8_relative_fails(self):
        new = copy.deepcopy(BASE)
        new["points"][1]["tok_s"] *= 1.0 + 1e-8
        self.assert_fails_naming(new, "points[1](preempt_mode).tok_s")

    def test_float_off_by_1e10_relative_passes(self):
        new = copy.deepcopy(BASE)
        new["points"][1]["tok_s"] *= 1.0 + 1e-10
        self.assertNotEqual(new["points"][1]["tok_s"],
                            BASE["points"][1]["tok_s"])
        code, out = self.run_diff(new)
        self.assertEqual(code, 0, out)

    def test_changed_string_fails(self):
        new = copy.deepcopy(BASE)
        new["points"][0]["mode"] = "recompute"
        self.assert_fails_naming(new, "points[0](preempt_mode).mode")

    def test_changed_integer_fails(self):
        new = copy.deepcopy(BASE)
        new["points"][0]["preemptions"] += 1
        self.assert_fails_naming(new,
                                 "points[0](preempt_mode).preemptions")

    def test_dropped_point_fails(self):
        new = copy.deepcopy(BASE)
        del new["points"][1]
        self.assert_fails_naming(new, "points: 2 entries -> 1")


if __name__ == "__main__":
    unittest.main()
