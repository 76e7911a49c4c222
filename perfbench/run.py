#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <dumbbell_mixed|cdn_churn|live_loopback> \
        --seed <n> --seconds <s> --trace <0|1>

The first call configures and compiles perfbench/ (which builds ../src)
into .bench_build/perfbench; later calls rebuild incrementally. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. Exits nonzero, printing no result, when the build fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("dumbbell_mixed", "cdn_churn", "live_loopback")


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def revision():
    """The checkout's git revision, or "unknown" outside a git checkout."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, check=True)
        if os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             check=True)
        return rev.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--revision", revision()]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
