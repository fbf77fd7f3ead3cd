#!/usr/bin/env python3
"""Benchmark entry point for the wfqsort library.

Builds perfbench/ (the wfqsort library from src/ plus the wfqs_perfbench
driver) under .bench_build/perfbench at the repository root, runs one
workload, checks the result's shape and prints it as the last stdout line:

    python3 perfbench/run.py --workload paper12-model --seed 1 --seconds 30 --trace 0

Workloads and metrics are described in wfqs_perfbench.cpp and declared in
BENCHMARK.json. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ledger. Build output goes to stderr; a failed build or run exits
with status 1 and prints no result.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "wfqs_perfbench")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True, timeout=300)
    subprocess.run(["cmake", "--build", BUILD, "--target", "wfqs_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=840)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def well_formed(result, expected):
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                       "metrics"}:
        return "result keys differ from correct/attempted/failed/metrics"
    if not isinstance(result["correct"], bool):
        return "correct is not a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            return f"{key} is not a whole number"
    if result["attempted"] < 1:
        return "attempted is below 1"
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        return f"metrics {sorted(metrics)} differ from the declared {sorted(expected)}"
    for name, m in metrics.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"metric {name} is not a finite number"
        if m.get("unit") != expected[name]:
            return f"metric {name} has unit {m.get('unit')}, declared {expected[name]}"
    return None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    try:
        expected = declared_metrics(args.trace)
        build()
        proc = subprocess.run(
            [BINARY, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"run.py: wfqs_perfbench exited with {proc.returncode}", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError as e:
        print(f"run.py: unreadable result: {e}", file=sys.stderr)
        return 1
    problem = well_formed(result, expected)
    if problem:
        print(f"run.py: {problem}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
