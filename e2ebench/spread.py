#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

Usage (from the repository root):

  python3 e2ebench/spread.py --workload <name> [--seeds 1-10] [--seconds <s>]

Runs run.py once per seed and prints, for each metric of the result line,
the median of the runs and the distance between the first and third
quartiles (statistics.quantiles, n=4) as a share of that median. Those
shares must stay below each metric's bound in BENCHMARK.json; a benchmark
is steady when they stay below a third of it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seconds = args.seconds or str(spec["run_seconds"])
    values = {}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", seconds,
             "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            return 1
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name}={metric['value']:.6g}"
            for name, metric in result["metrics"].items()), flush=True)

    print(f"\n{'metric':34} {'median':>14} {'IQR/median':>11} {'bound':>6}")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        print(f"{name:34} {median:14.6g} {spread:11.4f} "
              f"{bound if bound is not None else '':>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
