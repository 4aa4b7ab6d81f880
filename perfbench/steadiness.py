#!/usr/bin/env python3
"""Steadiness report: runs a workload N times with different seeds and prints,
per metric, the median, the quartiles and the quartile spread as a share of
the median (Python's statistics.quantiles(values, n=4)).

Usage, from the repository root:

    python3 perfbench/steadiness.py --workload bulk_calls --runs 10 [--trace 0]

Metrics whose spread exceeds a third of their BENCHMARK.json bound are marked.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except OSError:
        return {}, 10
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}, spec["run_seconds"]


def main():
    bound, run_seconds = bounds()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=run_seconds)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    values = {}
    units = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect output", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(
            f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()),
            file=sys.stderr)

    print(f"{args.workload}: {args.runs} runs of {args.seconds:g} s, trace {args.trace}")
    print(f"{'metric':40} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} unit")
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / abs(med) if med else 0.0
        flag = " *" if name in bound and spread > bound[name] / 3 else ""
        print(f"{name:40} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
              f"{units[name]}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
