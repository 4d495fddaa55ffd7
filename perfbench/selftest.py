#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Builds the driver as run.py does, then checks that the benchmark
counts failed legs and exits nonzero on them, accepts retried legs,
and times a program whose answers do not depend on the pool size.
Takes about a minute.
"""

import contextlib
import io
import json
import sys
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

ROSTER = ("--benchmarks", "adpcm,mst")


def benchmark(*extra):
    """One paper-matrix unit on a 2-benchmark roster through run.main:
    (exit status, printed result)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", "paper-matrix", "--seconds", "0"],
                      extra=ROSTER + extra)
    return rc, json.loads(out.getvalue().strip().splitlines()[-1])


def unit(workload, *extra):
    """One timed driver unit: its record."""
    (_, rec), = run.time_units(run.build(), workload, 1, 0,
                               time.monotonic() + run.HARD_LIMIT_S, extra)
    return rec


class FailureAccounting(unittest.TestCase):
    def test_thrown_leg_lowers_legs_ok_and_fails(self):
        rc, res = benchmark("--fault-plan", "leg:adpcm/dyn1=throw")
        self.assertNotEqual(rc, 0)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)
        self.assertLess(res["metrics"]["legs_ok_frac"]["value"], 1.0)

    def test_flaky_leg_counts_as_ok_after_retry(self):
        rc, res = benchmark("--fault-plan", "leg:adpcm/dyn1=flaky:1")
        self.assertEqual(rc, 0)
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertEqual(res["metrics"]["legs_ok_frac"]["value"], 1.0)
        rec = unit("paper-matrix", *ROSTER,
                   "--fault-plan", "leg:adpcm/dyn1=flaky:1")
        self.assertEqual(rec["legs_retried"], 1)


class Determinism(unittest.TestCase):
    def test_sampled_j2_matches_serial(self):
        par = unit("sampled-j2")
        ser = unit("sampled-j2", "--jobs", "1")
        self.assertEqual((par["jobs"], ser["jobs"]), (2, 1))
        self.assertEqual(par["legs"], ser["legs"])


if __name__ == "__main__":
    unittest.main()
