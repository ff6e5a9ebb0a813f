#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the xdb Engine facade.

Run from the repository root:

    python3 bench_e2e/run.py --workload catalog_lookup --seed 1 \
        --seconds 40 --trace 0

The first run configures and builds a Release binary under
.bench_build/bench_e2e (engine sources from src/, harness from this
directory); later runs only let the build check that it is up to date. The
binary's standard output is passed through; its last line is the JSON
result. Build output goes to standard error. Exits non-zero, without a
result, when the engine sources are missing, the build fails, or the run
fails or times out.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "bench_e2e")
WORKLOADS = ("catalog_lookup", "catalog_mixed", "deep_paths")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("bench_e2e: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    src = os.path.join(BENCH_DIR, os.pardir, "src", "CMakeLists.txt")
    if not os.path.isfile(src):
        fail("engine sources not found next to the benchmark (src/)")
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    configured = False
    if os.path.isfile(cache):
        with open(cache) as f:
            configured = "CMAKE_BUILD_TYPE:STRING=Release\n" in f.read()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not configured:
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "bench_e2e",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "bench_e2e")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    binary = build()
    work_dir = os.path.join(BUILD_DIR, "work")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail("run failed with exit code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out)
        fail("run printed no result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result: " + lines[-1])
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
