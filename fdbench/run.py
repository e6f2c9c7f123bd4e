#!/usr/bin/env python3
"""Build and run the fdbench repository benchmark.

    python3 fdbench/run.py --workload crash_fleet --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Configures and builds fdbench/ (a CMake
project that compiles the library from ../src) into .bench_build/fdbench
with a Release build, then runs the binary with the same arguments. The
binary's stdout is passed through; its last line is the JSON result.
Exits non-zero, without a result line, when the build or the run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "fdbench")
WORKLOADS = ("crash_fleet", "peer_scale", "sub_churn")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "fdbench", "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.stderr.write("fdbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def commit():
    root = os.path.dirname(HERE)
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"  # an exported tree: do not report an enclosing repository's commit
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 1
    cmd = [os.path.join(BUILD, "fdbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--commit", commit(),
           "--trace-dir", os.path.join(".bench_build", "fdbench-traces")]
    try:
        done = subprocess.run(cmd, timeout=175)
    except subprocess.TimeoutExpired:
        sys.stderr.write("fdbench: run exceeded 175 s\n")
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
