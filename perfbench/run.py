#!/usr/bin/env python3
"""Builds aurora_bench from source and runs the repository benchmark.

One run (what a harness calls, from the repository root):

    python3 perfbench/run.py --workload write_only --seed 1 --seconds 10 --trace 0

prints the run's metrics as one JSON object on the last line of stdout:
every end-to-end metric of BENCHMARK.json with --trace 0, every per-layer
metric with --trace 1. Exit status is non-zero if the build fails, the run
fails, or the output check finds a wrong value.

A pass over workloads (for people):

    python3 perfbench/run.py [--workloads a,b] [--seeds 1,2] [--trace 1]
                             [--out results.jsonl]

prints one `workload metric value unit` line per metric and appends each
run's full result to --out for perfbench/compare.py.

Standard library only.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds aurora_bench; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "aurora_bench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "aurora_bench")


def run_once(binary, workload, seed, seconds, trace, trace_dir):
    """Runs one workload; returns the binary's result object (or raises)."""
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--trace_dir=" + trace_dir]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s exited %d without a result" %
                           (workload, proc.returncode))
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def metric_names(spec, trace):
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def contract_result(result, spec, trace):
    """The harness-facing object: exactly correct/attempted/failed/metrics,
    with every metric BENCHMARK.json lists for this mode."""
    metrics = {}
    for name in metric_names(spec, trace):
        m = result["metrics"].get(name)
        if m is None or not math.isfinite(m["value"]):
            raise RuntimeError("metric %s missing or not finite" % name)
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": bool(result["correct"]) and result["exit_code"] == 0,
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help="run one workload (harness mode)")
    ap.add_argument("--workloads", help="comma list for a pass (default all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seeds", help="comma list of seeds for a pass")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--build-dir",
                    default=os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    ap.add_argument("--out", help="append each run's full result (JSON lines)")
    args = ap.parse_args()

    try:
        with open(SPEC) as f:
            spec = json.load(f)
        seconds = args.seconds if args.seconds else spec["run_seconds"]
        binary = build(os.path.abspath(args.build_dir))
        trace_dir = os.path.join(os.path.abspath(args.build_dir), "traces")
        os.makedirs(trace_dir, exist_ok=True)

        if args.workload:
            result = run_once(binary, args.workload, args.seed, seconds,
                              args.trace, trace_dir)
            out = contract_result(result, spec, args.trace)
            print(json.dumps(out, sort_keys=True))
            return 0 if out["correct"] else 1

        names = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
        seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
                 else [args.seed])
        units = {m["name"]: m["unit"]
                 for m in spec["end_to_end"] + spec["per_layer"]}
        wanted = metric_names(spec, 0)
        if args.trace:
            wanted += metric_names(spec, 1)
        ok = True
        for name in names:
            for seed in seeds:
                result = run_once(binary, name, seed, seconds, args.trace,
                                  trace_dir)
                ok = ok and result["correct"] and result["exit_code"] == 0
                for metric in wanted:
                    m = result["metrics"].get(metric)
                    value = "MISSING" if m is None else "%.6g" % m["value"]
                    ok = ok and m is not None
                    print("%s %s %s %s" % (name, metric, value,
                                           units[metric]))
                print("%s correct %s (attempted %d, failed %d, samples %s, "
                      "host speed %.3f)" %
                      (name, result["correct"], result["attempted"],
                       result["failed"], json.dumps(result["samples"]),
                       result["host_speed"]))
                sys.stdout.flush()
                if args.out:
                    with open(args.out, "a") as f:
                        f.write(json.dumps(result, sort_keys=True) + "\n")
        return 0 if ok else 1
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        print("run.py: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
