#!/usr/bin/env python3
"""A/A spread of the benchmark: the same code measured in two sets.

    python3 perfbench/aa.py [--runs 10] [--sets 2] [--workloads a,b]

For every workload, makes --sets sets of --runs runs of run.py (seeds
1..runs) and reports, per end-to-end metric and set, the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median,
plus each later set's median shift against the first. Then one traced
run per workload gives the layer shares of lanes x traced wall. Prints
one JSON document; the run-by-run lines go to stderr.
"""

import argparse
import contextlib
import io
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = run.load_spec()


def bench(workload, seed, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", str(seed),
                       "--seconds", str(SPEC["run_seconds"]),
                       "--trace", str(trace)])
    res = json.loads(out.getvalue().strip().splitlines()[-1])
    if rc != 0 or not res["correct"]:
        sys.exit(f"aa: {workload} seed {seed} failed its checks")
    return {k: v["value"] for k, v in res["metrics"].items()}


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def layer_shares(m):
    """Shares of lanes x traced wall; they sum to 1 by construction."""
    total = m["tracing.lanes"] * m["tracing.wall_ms"]
    parts = {
        "analysis": m["analysis.depgraph_ms"] + m["analysis.shake_ms"] +
        m["analysis.cluster_ms"],
        "core": sum(m[f"core.{k}_ms"] for k in
                    ("profile", "baseline", "replay", "ctrl", "global")),
        "control": m["control.observe_ms"],
        "unattributed": m["tracing.unattributed_ms"],
    }
    return {k: round(v / total, 4) for k, v in parts.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in SPEC["workloads"]))
    a = ap.parse_args()

    report = {}
    for w in a.workloads.split(","):
        sets = []
        for s in range(a.sets):
            runs = []
            for seed in range(1, a.runs + 1):
                runs.append(bench(w, seed, 0))
                print(f"aa: {w} set {s + 1} seed {seed}: {runs[-1]}",
                      file=sys.stderr)
            sets.append({k: summary([r[k] for r in runs]) for k in runs[0]})
            sets[-1]["seed2"] = {k: runs[1][k] for k in
                                 ("paper_gap_pt", "legs_ok_frac")}
        shift = [{k: v["median"] / sets[0][k]["median"] - 1.0
                  for k, v in later.items() if k != "seed2"}
                 for later in sets[1:]]
        traced = bench(w, 1, 1)
        report[w] = {"sets": sets, "median_shift": shift,
                     "layer_shares": layer_shares(traced), "traced": traced}
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
