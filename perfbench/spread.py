#!/usr/bin/env python3
"""Measures the run-to-run spread of the benchmark's result-line metrics.

    python3 perfbench/spread.py --workloads vault web_fleet --seeds 10 \\
        [--first-seed 1] [--seconds 10]

Runs perfbench/run.py --trace 0 once per workload and seed, one run at a
time, and prints for every end-to-end metric its median over the seeds,
its spread (the distance between the first and third quartile, as
Python's statistics.quantiles(values, n=4) gives them, as a share of the
median) and its BENCHMARK.json bound. A spread above a third of the bound
is flagged (setup_s is exempt from the spread rule), and so is a metric
that reads exactly the same on every run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"spread.py: {workload} seed {seed} failed "
                 f"(exit {proc.returncode})")
    return json.loads(lines[-1])["metrics"]


def spread(values):
    """Returns (median, interquartile range / |median|); the spread is NaN
    for fewer than two values or a zero median."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main():
    parser = argparse.ArgumentParser(description="run-to-run spread")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    for workload in args.workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            metrics = run(workload, seed, args.seconds)
            for name, metric in metrics.items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in metrics.items()),
                flush=True)
        print(f"== {workload}, {args.seeds} seeds")
        for name, vals in values.items():
            med, sp = spread(vals)
            bound = bounds[name]
            flag = ""
            if name != "setup_s" and not sp <= bound / 3:
                flag = "  spread > bound/3"
            if len(vals) > 1 and len(set(vals)) == 1:
                flag += "  identical on every run"
            print(f"{name:34s} median {med:12.6g}  spread {sp:7.4f}  "
                  f"bound {bound:5.2f}{flag}", flush=True)


if __name__ == "__main__":
    main()
