#!/usr/bin/env python3
"""Test-selection gate: every ctest -R regex in the CI workflow must select.

Usage:
    python3 ci/check_test_regexes.py [--workflow .github/workflows/ci.yml] \
        [--preset default]

Every `-R '<regex>'` in the workflow is split on its top-level `|` into
alternatives, and each alternative is listed with
`ctest --preset <preset> -N -R <alternative>` against an already-built tree.
An alternative that selects no test fails the gate: when a suite is renamed
or deleted, the sanitizer, fault-injection and soak legs that name it would
otherwise keep passing while silently running less.
"""

import argparse
import re
import subprocess
import sys


def workflow_regexes(text):
    """The argument of every `-R '...'` in the workflow text."""
    return re.findall(r"-R\s+'([^']*)'", text)


def alternatives(regex):
    """Splits `regex` on the `|` separators outside any parentheses."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(regex):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "|" and depth == 0:
            parts.append(regex[start:i])
            start = i + 1
    parts.append(regex[start:])
    return [p for p in parts if p]


def selected_tests(preset, regex):
    """Number of tests `ctest -N -R regex` lists for the preset's tree."""
    out = subprocess.run(["ctest", "--preset", preset, "-N", "-R", regex],
                         capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit("ctest failed for -R '%s':\n%s" % (regex, out.stderr))
    match = re.search(r"Total Tests:\s*(\d+)", out.stdout)
    return int(match.group(1)) if match else 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workflow", default=".github/workflows/ci.yml")
    parser.add_argument("--preset", default="default")
    args = parser.parse_args()

    with open(args.workflow) as f:
        regexes = workflow_regexes(f.read())
    if not regexes:
        sys.exit("no -R regexes found in " + args.workflow)

    counts = {}
    for regex in regexes:
        for alt in alternatives(regex):
            if alt not in counts:
                counts[alt] = selected_tests(args.preset, alt)
    empty = sorted(alt for alt, n in counts.items() if n == 0)
    for alt in sorted(counts):
        print("%5d  %s" % (counts[alt], alt))
    if empty:
        print("FAIL: alternatives selecting no test: " + ", ".join(empty))
        return 1
    print("OK: %d regexes, %d distinct alternatives, each selects a test"
          % (len(regexes), len(counts)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
