#!/usr/bin/env python3
"""Smoke test of aurora_bench (registered as the ctest aurora_bench_smoke).

    python3 perfbench/smoke.py --bench PATH/aurora_bench --spec BENCHMARK.json

Runs every workload traced on a tiny window and checks that each run's
output check passes and that every metric BENCHMARK.json names is present
and finite. The benchmark itself fails a run whose trace differs between 1
and 3 PDES workers; the first workload is run twice to check the trace is
also byte-identical from run to run.
Standard library only.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

TINY = ["--trace", "--warmup_ms=20", "--measure_ms=50", "--setups=1"]


def run(bench, workload, trace_dir):
    proc = subprocess.run(
        [bench, "--workload=" + workload, "--trace_dir=" + trace_dir] + TINY,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise AssertionError("%s exited %d" % (workload, proc.returncode))
    with open(os.path.join(trace_dir, "TRACE_%s.json" % workload), "rb") as f:
        trace = f.read()
    return json.loads(proc.stdout.strip().splitlines()[-1]), trace


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bench", required=True)
    ap.add_argument("--spec", required=True)
    args = ap.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]

    failures = []
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        for i, w in enumerate(spec["workloads"]):
            workload = w["name"]
            try:
                result, trace = run(args.bench, workload, a)
                if not result["correct"]:
                    failures.append("%s: output check failed" % workload)
                for name in names:
                    m = result["metrics"].get(name)
                    if m is None or not math.isfinite(m["value"]):
                        failures.append("%s: metric %s missing or not finite"
                                        % (workload, name))
                if i == 0 and run(args.bench, workload, b)[1] != trace:
                    failures.append("%s: trace differs between two runs" %
                                    workload)
            except (AssertionError, OSError, ValueError,
                    subprocess.TimeoutExpired) as e:
                failures.append("%s: %s" % (workload, e))
            print("%s: %s" % (workload, "ok" if not failures else "FAILED"))
    for f in failures:
        print(f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
