#!/usr/bin/env python3
"""Builds the wall-clock benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 wallbench/run.py --workload tpch-sf0.01 --seed 1 --seconds 20 --trace 0

The engine libraries and the wallbench binary are built with CMake into
.bench_build/wallbench (incrementally; the first build takes a few minutes).
Build output goes to standard error. The binary's standard output is passed
through unchanged, so its last line is the JSON result. With --trace 1 the
traced run's spans are written to .bench_build/wallbench/spans-<workload>-<seed>.jsonl.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "wallbench")
BINARY = os.path.join(BUILD_DIR, "wallbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the binary. Returns True on success."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    out = sys.stderr
    # Configure when the tree has no build file yet, including a tree whose
    # configure step was cut short.
    if not any(os.path.exists(os.path.join(BUILD_DIR, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=out, stderr=out) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "wallbench", "-j", jobs]
    return subprocess.call(cmd, stdout=out, stderr=out) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    if not build():
        print("wallbench: build failed", file=sys.stderr)
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans", os.path.join(
            BUILD_DIR, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("wallbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
