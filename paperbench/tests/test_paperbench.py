"""Tests of the paperbench benchmark itself.

Run from the repository root (the first run builds the benchmark):

    python3 -m unittest discover -s paperbench/tests -v

Every run here is short (--seconds 1), so the timings are meaningless;
the tests check names, units, correctness and determinism.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "paperbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
COUNT_UNITS = {"count", "B"}

_cache = {}


def bench(workload, trace, seed=42, fresh=False):
    """(stdout lines, parsed result) of one short run; cached unless fresh."""
    key = (workload, trace, seed)
    if fresh or key not in _cache:
        out = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed",
             str(seed), "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        lines = out.stdout.strip().splitlines()
        result = (lines, json.loads(lines[-1]))
        if fresh:
            return result
        _cache[key] = result
    return _cache[key]


class NamesTest(unittest.TestCase):
    def test_every_name_matches_the_pattern(self):
        names = WORKLOADS + [m["name"] for key in ("end_to_end", "per_layer")
                             for m in SPEC[key]]
        for name in names:
            self.assertRegex(name, NAME.pattern + r"\Z")
        self.assertEqual(len(names), len(set(names)), "a name is used twice")

    def test_binary_knows_exactly_the_listed_workloads(self):
        out = subprocess.run(
            [sys.executable, str(RUN), "--workload", "no-such-workload"],
            cwd=ROOT, capture_output=True, text=True)
        self.assertEqual(out.returncode, 2)
        listed = out.stderr.split("workloads:")[1].split()
        self.assertEqual(sorted(listed), sorted(WORKLOADS))


class OutputTest(unittest.TestCase):
    def check_metrics(self, trace, spec_key):
        expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, r = bench(w, trace)
                self.assertEqual(
                    set(r), {"correct", "attempted", "failed", "metrics"})
                got = {k: v["unit"] for k, v in r["metrics"].items()}
                self.assertEqual(got, expected)
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assertGreaterEqual(r["attempted"], 1)

    def test_untraced_run_prints_every_end_to_end_metric(self):
        self.check_metrics(0, "end_to_end")

    def test_traced_run_prints_every_per_layer_metric(self):
        self.check_metrics(1, "per_layer")


class DeterminismTest(unittest.TestCase):
    def test_same_seed_runs_print_identical_counts(self):
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        counts = [n for n, u in units.items() if u in COUNT_UNITS]
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, first = bench(w, 1)
                _, second = bench(w, 1, fresh=True)
                for name in counts:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)


class TracedDigestTest(unittest.TestCase):
    def test_traced_rows_equal_untraced_rows(self):
        # The binary compares every traced result row with the untraced
        # one and fails the point on any difference.
        for w in WORKLOADS:
            with self.subTest(workload=w):
                lines, r = bench(w, 1)
                self.assertEqual(
                    [l for l in lines if l.startswith("FAIL")], [])
                self.assertTrue(r["correct"])
                self.assertGreater(r["attempted"], 0)


if __name__ == "__main__":
    unittest.main()
