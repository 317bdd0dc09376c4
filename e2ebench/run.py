#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark on one workload.

Usage (from the repository root):

  python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark binary is built from this checkout's sources with CMake into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench), then run with
every AMALUR_* variable removed from its environment, so the thread count
and cost constants are the ones the benchmark pins.

--trace 0 splits the seconds over several fresh processes, one after
another, and pools the passes of all of them: how the worker threads of
one process land on the cores shifts its four-thread timings as a whole,
so sampling several processes keeps that shift inside a run instead of
between runs. As in the binary, each time is the fastest of the pooled
samples (a shared host's other tenants only ever add time), except
train_s, which is their 10th percentile. Each process measures an even
share of the seconds still left, so a run takes about --seconds however
long its processes take to start.
--trace 1 runs one process, which also writes a Chrome trace under
.../e2ebench/traces/.

The processes' own output goes to standard error. Standard output gets
every metric with its unit and, as its last line, the JSON result with the
metrics BENCHMARK.json lists for the mode. The exit code is non-zero when
an output check or operation failed (1), the checkout has no library
sources or the build failed (2), or a process ran over its time (3).

`--toy` and `--corrupt-reference` are passed through for the self-test
(selftest.py).
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
PROCESSES = 6
TRAIN_QUANTILE = 0.10
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--parallel", "4"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "amalur_e2ebench")


def run_process(command, timeout_s):
    """Runs one benchmark process to completion; returns (exit code,
    result, passes), echoing its output to standard error."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("AMALUR_")}
    try:
        proc = subprocess.run(command, env=env, capture_output=True,
                              text=True, timeout=timeout_s, check=False)
    except subprocess.TimeoutExpired:
        print(f"benchmark process exceeded {timeout_s:.0f} s", file=sys.stderr)
        return 3, None, {}
    sys.stderr.write(proc.stdout + proc.stderr)
    lines = proc.stdout.strip().splitlines()
    passes = {}
    for line in lines:
        if line.startswith("passes "):
            passes = json.loads(line[len("passes "):])
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result, passes


def combine(results, passes):
    """One result from several processes: the timings are the fastest
    sample of all processes (train_s: their TRAIN_QUANTILE), the peak
    resident set the largest of any process, the other metrics medians over
    processes."""
    metrics = {}
    for name, metric in results[0]["metrics"].items():
        pooled = sorted(v for p in passes for v in p.get(name, []))
        if pooled:
            value = pooled[0]
            if name == "train_s":  # kTrainQuantile in e2ebench.h
                value = pooled[max(0, math.ceil(TRAIN_QUANTILE *
                                                len(pooled)) - 1)]
            print(f"{name}: reported {value:.6f} s, fastest {pooled[0]:.6f} "
                  f"s, median {statistics.median(pooled):.6f} s over "
                  f"{len(pooled)} samples")
        elif name == "peak_rss_mb":
            # The heap grows in steps of a freed block (6 MB on
            # integrate_wide) that a later allocation did or did not
            # reuse. A process reaches the top step after a few passes or
            # not at all, so a median over six short processes moves by a
            # whole step, while the largest stays on the top one.
            value = max(r["metrics"][name]["value"] for r in results)
        else:
            value = statistics.median([r["metrics"][name]["value"]
                                       for r in results
                                       if name in r["metrics"]])
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--corrupt-reference", action="store_true")
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        print(f"no library sources at {os.path.join(ROOT, 'src')}; run from "
              "a full checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    reported = [m["name"] for m in
                spec["per_layer" if args.trace == "1" else "end_to_end"]]

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "e2ebench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"build failed: {error}", file=sys.stderr)
        return 2

    processes = 1 if args.trace == "1" else PROCESSES
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--trace", args.trace]
    if args.trace == "1":
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-file", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    if args.toy:
        command.append("--toy")
    if args.corrupt_reference:
        command.append("--corrupt-reference")

    results, passes, exit_code = [], [], 0
    start = time.monotonic()
    deadline = start + RUN_TIMEOUT_S
    for i in range(processes):
        left = args.seconds - (time.monotonic() - start)
        share = max(left / (processes - i), args.seconds / processes / 4)
        code, result, process_passes = run_process(
            command + ["--seconds", f"{share:.3f}"],
            max(1.0, deadline - time.monotonic()))
        if result is None:
            return code or 1
        exit_code = exit_code or code
        results.append(result)
        passes.append(process_passes)

    result = combine(results, passes)
    for name, metric in result["metrics"].items():
        print(f"{name:34} {metric['value']:16.6f} {metric['unit']}")
    print(f"operations: {result['attempted']} attempted, "
          f"{result['failed']} failed, over {processes} process(es)")
    missing = [name for name in reported if name not in result["metrics"]]
    if missing:
        print(f"missing metrics: {missing}", file=sys.stderr)
        return 1
    result["metrics"] = {name: result["metrics"][name] for name in reported}
    print(json.dumps(result))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
