#!/usr/bin/env python3
"""Benchmark of the MCD simulator's experiment matrix.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (the simulator
library from src/ plus perfbench_driver) in Release mode into
$CARGO_TARGET_DIR (default .bench_build), then repeats one matrix unit
of the workload, each in a fresh driver process, until --seconds have
passed, and reports medians over the units.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, with
tracing off. --trace 1 instead repeats (untraced reference, traced
replica) pairs and reports the per-layer metrics. The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Exit status: 0 when every check passed, 1 when a correctness check
failed, 2 when the benchmark cannot be built or run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Every run ends within this many seconds of its build finishing.
HARD_LIMIT_S = 170.0


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    """BENCHMARK.json: the workloads and the metrics with their units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure (once) and build the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no simulator sources under {ROOT / 'src'}")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench_driver",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            die("build failed: " + " ".join(cmd))
    return out / "perfbench_driver"


def clean_env(**extra):
    """The caller's environment without MCD_* settings, which would
    otherwise change what the matrix computes."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MCD_")}
    env.update(extra)
    return env


def run_driver(driver, args, timeout, env=None):
    """One driver process; returns (exit code, its JSON record). The
    driver measures set-up from the --spawn-ns stamp taken here."""
    cmd = [str(driver)] + [str(a) for a in args]
    cmd += ["--spawn-ns", str(time.monotonic_ns())]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                           env=env or clean_env(), timeout=timeout)
    except subprocess.TimeoutExpired:
        die(f"driver did not finish within {timeout:.0f} s: {' '.join(cmd)}")
    lines = p.stdout.strip().splitlines()
    if p.returncode not in (0, 1) or not lines:
        die(f"driver failed (exit {p.returncode}): {' '.join(cmd)}")
    rec = json.loads(lines[-1])
    shown = {k: v for k, v in rec.items() if isinstance(v, (int, float))}
    print(f"perfbench: {rec['mode']} unit: {json.dumps(shown)}",
          file=sys.stderr)
    return p.returncode, rec


def unit_seed(seed, i):
    """The simulation seed of a run's i-th unit. The seed moves the
    shaker's convergence and with it analysis time (g721's doubled on
    2 of 12 seeds tried), so every unit of a run simulates its own
    seed and the run reports the median over them."""
    return (seed * 1000 + i) % 2**64


def repeat(seconds, deadline, once):
    """Call once(i, time left) for i = 0, 1, ... (at least once) while
    another call, judged by the last one's duration, would end nearer
    to `seconds` after the start than stopping now; never start one
    that would end after deadline."""
    records = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        records.append(once(len(records), deadline - t))
        now = time.monotonic()
        last = now - t
        if now - start + last / 2 >= seconds or now + last > deadline:
            return records


def time_units(driver, workload, seed, seconds, deadline, extra=()):
    """Timed units: list of (exit code, record)."""
    args = ["--mode", "time", "--workload", workload, *extra]
    return repeat(seconds, deadline, lambda i, left: run_driver(
        driver, args + ["--seed", unit_seed(seed, i)], left))


def end_to_end(units):
    """The end-to-end metrics (value, without unit) over timed units."""
    recs = [r for _, r in units]

    def med(key):
        return statistics.median(r[key] for r in recs)

    attempted = sum(r["legs_attempted"] for r in recs)
    failed = sum(r["legs_failed"] for r in recs)
    return {
        "wall_s": med("wall_s"),
        "cpu_s": med("cpu_s"),
        "sim_minst_per_s": statistics.median(
            r["sim_inst"] / r["wall_s"] / 1e6 for r in recs),
        "peak_rss_mb": med("peak_rss_mb"),
        "setup_s": med("setup_s"),
        "legs_ok_frac": (attempted - failed) / attempted,
        "paper_gap_pt": med("paper_gap_pt"),
    }


def prof_analysis_share_pct(path):
    """The analyze phase's share of leg time in the program's own
    host profile (MCD_PROF_OUT): analyze nests inside each leg's
    simulate phase."""
    events = json.loads(path.read_text())["traceEvents"]
    total = {"analyze": 0.0, "simulate": 0.0}
    for e in events:
        if e.get("ph") == "X" and e["name"] in total:
            total[e["name"]] += e["dur"]
    return 100.0 * total["analyze"] / total["simulate"]


def trace_pairs(driver, workload, seed, seconds, deadline):
    """Traced (reference, replica) pairs: list of (exit code, record)."""
    out = build_dir()
    prof = out / f"prof-{workload}-{seed}.json"
    args = ["--mode", "trace", "--workload", workload,
            "--spans", out / f"spans-{workload}-{seed}.json"]

    def once(i, left):
        rc, rec = run_driver(driver, args + ["--seed", unit_seed(seed, i)],
                             left, env=clean_env(MCD_PROF_OUT=str(prof)))
        rec["metrics"]["analysis.prof_share_pct"] = (
            prof_analysis_share_pct(prof))
        return rc, rec

    return repeat(seconds, deadline, once)


def main(argv=None, extra=()):
    """Run the benchmark; returns the exit status. @p extra goes to
    every timed driver unit (the self-tests' roster and fault plans)."""
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)

    driver = build()
    deadline = time.monotonic() + HARD_LIMIT_S

    if a.trace:
        runs = trace_pairs(driver, a.workload, a.seed, a.seconds, deadline)
        wanted = spec["per_layer"]
        values = {m["name"]: statistics.median(
            r["metrics"][m["name"]] for _, r in runs) for m in wanted}
    else:
        runs = time_units(driver, a.workload, a.seed, a.seconds, deadline,
                          extra)
        wanted = spec["end_to_end"]
        values = end_to_end(runs)

    problems = [f for _, r in runs for f in r["failures"]]
    for f in problems:
        print(f"perfbench: check failed: {f}", file=sys.stderr)
    correct = not problems and all(rc == 0 for rc, _ in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["legs_attempted"] for _, r in runs),
        "failed": sum(r["legs_failed"] for _, r in runs),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
