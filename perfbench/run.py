#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
library and the harness (perfbench/CMakeLists.txt, Release) under
.bench_build/perfbench; later calls rebuild incrementally. The harness output
is passed through. Its last line, one JSON object with the keys correct,
attempted, failed and metrics (name -> value), is completed from
BENCHMARK.json, the one place the metric set and units are defined: with
--trace 0 it must hold exactly the end-to-end metrics; with --trace 1 it may
hold only per-layer metrics, and those a workload does not exercise read 0.
Each value gets its unit, and the result is printed last. Any failure exits
non-zero without a result line.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
HARNESS = BUILD / "perfbench"
OUT = BUILD / "out"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr, so stdout stays clean."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(cmd)}")


def build():
    if not (BUILD / "Makefile").exists():
        run_quiet(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(BUILD), "-j", jobs], BUILD_TIMEOUT_S)


def expected_units(trace):
    """name -> unit of the metrics a run reports, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def complete_result(line, trace):
    """The harness result with every metric named in BENCHMARK.json, each
    as {"value", "unit"}."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("the harness did not end with a JSON result")
    if not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result object")
    units = expected_units(trace)
    values = result["metrics"]
    extra = sorted(set(values) - set(units))
    missing = sorted(set(units) - set(values))
    if extra or (missing and not trace):
        fail(f"metrics disagree with BENCHMARK.json: missing {missing}, extra {extra}")
    bad = sorted(n for n, v in values.items()
                 if not isinstance(v, (int, float)) or not math.isfinite(v))
    if bad:
        fail(f"non-finite metric values: {bad}")
    if result["attempted"] < 1:
        fail("no operation attempted")
    result["metrics"] = {name: {"value": values.get(name, 0.0), "unit": unit}
                         for name, unit in units.items()}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    build()
    if args.self_test:
        sys.exit(subprocess.run([str(HARNESS), "--self-test"], cwd=ROOT).returncode)
    if args.workload is None or args.seed is None or args.seconds is None \
            or args.trace is None:
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    OUT.mkdir(parents=True, exist_ok=True)
    cmd = [str(HARNESS), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(OUT)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"harness exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("the harness printed nothing")
    result = complete_result(lines[-1], args.trace == 1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
