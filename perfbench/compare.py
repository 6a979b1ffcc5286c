#!/usr/bin/env python3
"""Compares two benchmark result sets against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each set is a JSON-lines file written by `run.py --out` (one line per run;
a set may hold several runs per workload, e.g. one per seed). For every
workload and metric the medians of the two sets are compared:

  * modeled metrics (simulated time, throughput, counts) are deterministic
    per seed, so any difference is a real behaviour change and is shown;
  * host metrics (wall time, memory) are shown when the change's median
    falls outside the base's interquartile range.

One row is printed per moved metric per workload. The exit status is 1 if
any end-to-end metric is worse than the base median by more than its
bound, if any change run is incorrect, or if a workload's failed share of
attempted transactions rose; otherwise 0. Per-layer metrics have no bound
and never fail the comparison. Standard library only.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Wall-clock and memory metrics; everything else is modeled.
HOST_UNITS = {"s", "us", "ns", "MB"}
HOST_RATIOS = {"sim.pdes_speedup_w3", "sim.pdes_stall_share_w3",
               "trace.overhead_ratio"}


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs.setdefault(r["workload"], []).append(r)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.spec) as f:
        spec = json.load(f)
    metrics = [(m, True) for m in spec["end_to_end"]]
    metrics += [(m, False) for m in spec["per_layer"]]
    base, change = load(args.base), load(args.change)

    regressions = 0
    print("%-18s %-38s %14s %14s %9s %7s  %s" %
          ("workload", "metric", "base", "change", "delta", "bound",
           "verdict"))
    for workload in sorted(set(base) & set(change)):
        b_runs, c_runs = base[workload], change[workload]
        for r in c_runs:
            if not r["correct"]:
                print("%-18s run seed=%s is incorrect" % (workload, r["seed"]))
                regressions += 1
        b_fail, c_fail = failed_share(b_runs), failed_share(c_runs)
        if c_fail > b_fail:
            print("%-18s failed share rose %.6f -> %.6f" %
                  (workload, b_fail, c_fail))
            regressions += 1
        for m, end_to_end in metrics:
            name = m["name"]
            b_vals = [r["metrics"][name]["value"] for r in b_runs
                      if name in r["metrics"]]
            c_vals = [r["metrics"][name]["value"] for r in c_runs
                      if name in r["metrics"]]
            if not b_vals or not c_vals:
                continue
            b_q1, b_med, b_q3 = quartiles(b_vals)
            c_med = statistics.median(c_vals)
            host = m["unit"] in HOST_UNITS or name in HOST_RATIOS
            moved = (c_med < b_q1 or c_med > b_q3) if host else c_med != b_med
            if not moved:
                continue
            worse = c_med > b_med if m["better"] == "lower" else c_med < b_med
            delta = (c_med - b_med) / b_med if b_med else float("inf")
            verdict = "better" if not worse else "worse"
            bound = ""
            if end_to_end:
                bound = "%.0f%%" % (100 * m["bound"])
                if worse and abs(delta) > m["bound"]:
                    verdict = "REGRESSION"
                    regressions += 1
            print("%-18s %-38s %14.6g %14.6g %+8.2f%% %7s  %s%s" %
                  (workload, name, b_med, c_med, 100 * delta, bound, verdict,
                   " (host: base IQR %.6g..%.6g)" % (b_q1, b_q3)
                   if host else ""))
    missing = sorted(set(base) ^ set(change))
    if missing:
        print("workloads in only one set: %s" % ", ".join(missing))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
