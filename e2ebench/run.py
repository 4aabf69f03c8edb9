#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md in this directory).

    python3 e2ebench/run.py --workload cache_rw --seed 1 --seconds 25 --trace 0
    python3 e2ebench/run.py --self-test

The first call configures and builds the mpfdb library and the benchmark
into .bench_build/e2ebench at the repository root; later calls rebuild
incrementally. Build output goes to stderr, so the last stdout line is the
benchmark's JSON result. Exits non-zero, without a result, when the build
fails.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
RUN_TIMEOUT_S = 170


def build(target):
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def flag(args, name, default):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def main():
    args = sys.argv[1:]
    if args == ["--self-test"]:
        if not build("e2ebench_logic_test"):
            return 1
        return subprocess.run(
            [os.path.join(BUILD_DIR, "e2ebench_logic_test")]).returncode
    if not build("e2ebench"):
        return 1
    cmd = [os.path.join(BUILD_DIR, "e2ebench")] + args
    if flag(args, "--trace", "0") == "1" and "--spans" not in args:
        cmd += ["--spans", os.path.join(
            BUILD_DIR, "spans-%s-%s.jsonl" % (flag(args, "--workload", "x"),
                                              flag(args, "--seed", "0")))]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        print("benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
