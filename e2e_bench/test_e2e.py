#!/usr/bin/env python3
"""The benchmark's own test, on the smoke versions of the four workloads.

Run from the repository root (builds the driver on first use):

    python3 e2e_bench/test_e2e.py

It checks the output schema against BENCHMARK.json, that the correctness
gate passes at HEAD and fails when its reference is moved, and that the
deterministic counters repeat exactly between two runs of one seed.
"""

import json
import math
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join("e2e_bench", "run.py")]
DETERMINISTIC = ["core.rounds", "dist.collectives", "dist.words_per_round",
                 "la.flops", "core.replicated_flops", "io.snapshot_bytes"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, seed=3, extra=()):
    """Runs one smoke benchmark; returns (exit code, stdout lines)."""
    cmd = RUN + ["--workload", workload, "--seed", str(seed), "--seconds",
                 "0.5", "--trace", str(trace), "--smoke", *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    return out.returncode, out.stdout.strip().splitlines()


def result(lines):
    res = json.loads(lines[-1])
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"], res
    return res


class SmokeTest(unittest.TestCase):
    def check_schema(self, res, expected):
        self.assertIsInstance(res["attempted"], int)
        self.assertIsInstance(res["failed"], int)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(sorted(res["metrics"]),
                         sorted(m["name"] for m in expected))
        for m in expected:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_end_to_end_schema_and_gate(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, lines = run(w, 0)
                self.assertEqual(code, 0)
                res = result(lines)
                self.check_schema(res, SPEC["end_to_end"])
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                for m in SPEC["end_to_end"]:
                    self.assertGreater(res["metrics"][m["name"]]["value"], 0)
                self.assertTrue(any(line.startswith('{"provenance"')
                                    for line in lines))

    def test_per_layer_schema_and_counters_repeat(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                runs = []
                for _ in range(2):
                    code, lines = run(w, 1)
                    self.assertEqual(code, 0)
                    res = result(lines)
                    self.check_schema(res, SPEC["per_layer"])
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    runs.append(res["metrics"])
                for name in DETERMINISTIC:
                    self.assertEqual(runs[0][name]["value"],
                                     runs[1][name]["value"], name)

    def test_gate_fails_when_reference_moves(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, lines = run(w, 0, extra=["--reference-scale", "3"])
                self.assertEqual(code, 0)
                res = result(lines)
                self.assertFalse(res["correct"])
                self.assertEqual(res["failed"], res["attempted"])

    def test_bad_arguments_print_no_result(self):
        code, lines = run("no-such-workload", 0)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(line.startswith('{"correct"') for line in lines))


if __name__ == "__main__":
    unittest.main()
