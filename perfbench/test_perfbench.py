#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the library it measures).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Builds perfbench through run.py's build step, then checks that the metric
names and units compiled into perfbench match BENCHMARK.json, that the
BENCHMARK.json fields respect the benchmark contract, and that the C++
helper self-test (percentiles, per-op median, seeded request lists, report
format) passes.
"""
import json
import os
import re
import subprocess
import unittest

import run

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class CatalogueTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.build_dir = run.build()
        out = subprocess.run([os.path.join(cls.build_dir, "perfbench"),
                              "--catalogue"], check=True, capture_output=True,
                             text=True).stdout
        cls.catalogue = json.loads(out)
        with open(BENCHMARK) as f:
            cls.bench = json.load(f)

    def test_catalogue_matches_benchmark_json(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         self.catalogue["workloads"])
        for kind in ("end_to_end", "per_layer"):
            declared = [{"name": m["name"], "unit": m["unit"]}
                        for m in self.bench[kind]]
            self.assertEqual(declared, self.catalogue[kind])

    def test_benchmark_json_contract(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        names = [m["name"] for m in b["end_to_end"] + b["per_layer"]]
        names += [w["name"] for w in b["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        bounds = {}
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
            bounds[m["name"]] = m["bound"]
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for p in b["paths"]:
            self.assertTrue(os.path.isdir(os.path.join(run.ROOT, p)))

    def test_helper_selftest(self):
        subprocess.run([os.path.join(self.build_dir, "perfbench_selftest")],
                       check=True, capture_output=True)


if __name__ == "__main__":
    unittest.main()
