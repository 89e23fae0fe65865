#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Builds the benchmark driver (perfbench/driver.cc plus the library under
src/) into .bench_build with CMake, runs one workload for a fixed time and
passes the driver's output through. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload ldbc --seed 1 --seconds 10 --trace 0

Workloads: ldbc, job_hot, job_write (see driver.cc). --trace 1 reports
per-layer metrics from a profiled, traced run instead of the end-to-end
metrics, and writes the query spans to .bench_build/trace_<workload>.json.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "relgo_perfbench")
WORKLOADS = ("ldbc", "job_hot", "job_write")
BUILD_BUDGET_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "database.h")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD_DIR, "--target", "relgo_perfbench",
              "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                         "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    deadline = time.monotonic() + BUILD_BUDGET_S
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as err:
            fail("build failed: %s" % err)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(BUILD_DIR, "trace_%s.json" % args.workload)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail("driver did not finish: %s" % err)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail("driver exited with status %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("driver printed no result line")
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail("malformed result line: " + lines[-1])
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
