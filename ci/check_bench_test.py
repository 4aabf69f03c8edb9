#!/usr/bin/env python3
"""Fixture check for ci/check_bench.py's hardware_threads refusal.

Usage:
    python3 ci/check_bench_test.py

A gated entry that regressed by 50% fails the gate when both runs record
the same hardware_threads, and is reported as incomparable (the gate
passes) when they record different ones.
"""

import json
import os
import subprocess
import sys
import tempfile

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "check_bench.py")
ENTRY = "pipeline_join_agg/batch"


def run_gate(base_threads, cur_threads):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for label, threads, ops in (("baseline", base_threads, 100.0),
                                    ("current", cur_threads, 50.0)):
            path = os.path.join(tmp, label + ".json")
            with open(path, "w") as f:
                json.dump([{"name": ENTRY, "ops_per_sec": ops,
                            "hardware_threads": threads}], f)
            paths.append(path)
        return subprocess.run(
            [sys.executable, GATE, "--baseline", paths[0], "--current",
             paths[1]], capture_output=True, text=True)


def main():
    same = run_gate(4, 4)
    if same.returncode != 1 or "FAIL" not in same.stdout:
        print(same.stdout)
        return "a 50% regression on equal hardware_threads must fail"
    differ = run_gate(1, 4)
    if differ.returncode != 0 or "incomparable" not in differ.stdout:
        print(differ.stdout)
        return "entries with different hardware_threads must be incomparable"
    if "hardware_threads 1 in the baseline, 4 in the current run" not in \
            differ.stdout:
        print(differ.stdout)
        return "the incomparable report must name both thread counts"
    print("check_bench.py: hardware_threads refusal OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
