#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark at toy sizes.

Usage (from the repository root):

  python3 e2ebench/selftest.py

For every workload in BENCHMARK.json it checks that
  - an untraced run passes its output checks and its result line carries
    every end-to-end metric with the unit BENCHMARK.json gives it, and the
    metrics only some workloads have (serving latency and throughput, wire
    bytes) are printed with their units;
  - a traced run does the same for every per-layer metric, prints each
    layer's share and the tracing overhead, and writes a Chrome trace whose
    spans all carry a name, start, duration, parent and the run's id;
  - a run against deliberately corrupted references exits non-zero and
    reports each of the workload's reference checks (CORRUPTIBLE below)
    as failed.
Exits 0 when everything holds, 1 otherwise.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3
# End-to-end metrics only some workloads have: printed with their units,
# left out of the result line.
PRINTED_ONLY = {
    "augment_snowflake": [("serve_p50_us", "us"), ("serve_p99_us", "us"),
                          ("serve_rows_per_s", "rows/s")],
    "federated_vfl": [("wire_bytes", "B")],
}

# The checks each workload runs against a reference; --corrupt-reference
# must make every one of them fail on its own.
CORRUPTIBLE = {
    "augment_snowflake": ["factorized vs materialized weights",
                          "served scores vs Predict()"],
    "integrate_wide": ["target rows vs rel::HashJoin"],
    "federated_vfl": ["Paillier vs plaintext VFL weights"],
}


def run(workload, *flags):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(SEED), "--seconds", "1", "--toy",
               *flags]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, proc.stdout + proc.stderr, result


def check_metrics(problems, label, result, expected):
    got = result["metrics"]
    for metric in expected:
        name = metric["name"]
        if name not in got:
            problems.append(f"{label}: metric {name} missing")
        elif got[name]["unit"] != metric["unit"]:
            problems.append(f"{label}: {name} has unit {got[name]['unit']}, "
                            f"BENCHMARK.json says {metric['unit']}")
    extra = set(got) - {metric["name"] for metric in expected}
    if extra:
        problems.append(f"{label}: unexpected metrics {sorted(extra)}")


def check_trace(problems, workload):
    path = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "e2ebench", "traces", f"{workload}-seed{SEED}.json")
    try:
        with open(path, encoding="utf-8") as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError) as error:
        problems.append(f"{workload}: trace file {path}: {error}")
        return
    run_ids = {event.get("id") for event in events}
    if len(run_ids) != 1:
        problems.append(f"{workload}: spans carry run ids {run_ids}")
    for event in events:
        if not all(k in event for k in ("name", "ts", "dur")) or \
                "parent" not in event.get("args", {}):
            problems.append(f"{workload}: malformed span {event}")
            return


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        code, output, result = run(workload, "--trace", "0")
        if code != 0 or result is None or not result["correct"]:
            problems.append(f"{workload}: untraced run exit {code}")
        else:
            check_metrics(problems, f"{workload} untraced", result,
                          spec["end_to_end"])
            for name, unit in PRINTED_ONLY.get(workload, []):
                if not re.search(rf"^{name} +[-\d.]+ {re.escape(unit)}$",
                                 output, re.M):
                    problems.append(f"{workload}: {name} not printed in {unit}")

        code, stdout, result = run(workload, "--trace", "1")
        if code != 0 or result is None or not result["correct"]:
            problems.append(f"{workload}: traced run exit {code}")
        else:
            check_metrics(problems, f"{workload} traced", result,
                          spec["per_layer"])
            if not re.search(r"^tracing overhead: ", stdout, re.M):
                problems.append(f"{workload}: no tracing overhead printed")
            check_trace(problems, workload)

        code, output, result = run(workload, "--trace", "0",
                                   "--corrupt-reference")
        if code == 0 or result is None or result["failed"] == 0:
            problems.append(f"{workload}: corrupted reference went unnoticed "
                            f"(exit {code})")
        for check in CORRUPTIBLE[workload]:
            if not re.search(rf"^FAILED: {re.escape(check)}: ", output, re.M):
                problems.append(f"{workload}: check '{check}' did not fail "
                                "on a corrupted reference")
        print(f"{workload}: checked", flush=True)

    for problem in problems:
        print("PROBLEM:", problem)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
