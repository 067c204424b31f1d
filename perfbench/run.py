#!/usr/bin/env python3
"""Build and run the qadd_perf benchmark.

    python3 perfbench/run.py --workload alg-exact|num-sweep|serve-mix \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the QADD library from src/ and the
benchmark from perfbench/ (CMake, Release) into $CARGO_TARGET_DIR when set,
else .bench_build, then runs one measurement.  The benchmark's last line of
output is one JSON object with the keys correct, attempted, failed and
metrics.  Artefacts of a run (QREF reference caches, per-op CSV, span trace)
go to <build dir>/runs/<workload>-s<seed>-t<trace>/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
WORKLOADS = ("alg-exact", "num-sweep", "serve-mix")


def run_timeout(seconds):
    """Seconds a run may take: the measurement (a traced run measures twice
    half the time, serve-mix adds its rate ladder), three set-ups and the
    checks."""
    return 2 * seconds + 110


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_root):
    if not os.path.isfile(os.path.join(REPO_DIR, "src", "CMakeLists.txt")):
        fail("src/CMakeLists.txt not found: run from a full checkout of the repository")
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_root, "perfbench-build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "qadd_perf"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-40:]))
                fail(f"build failed: {' '.join(step)} (log: {log_path})")
    return os.path.join(build_dir, "qadd_perf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if not 0 < args.seconds <= 600:
        fail("--seconds must be in (0, 600]")

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_root)

    run_dir = os.path.join(build_root, "runs", f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--tmp", run_dir, "--data", BENCH_DIR]
    timeout = run_timeout(args.seconds)
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {timeout:g} s")
    if result.returncode != 0:
        sys.stdout.write(result.stdout)
        fail(f"benchmark exited with code {result.returncode}")
    lines = result.stdout.rstrip("\n").split("\n")
    try:
        report = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(result.stdout)
        fail("benchmark printed no result line")
    if set(report) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has unexpected keys")
    sys.stdout.write(result.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
