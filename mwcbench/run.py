#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 mwcbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

The build goes to .bench_build/ at the checkout root (CMake, RelWithDebInfo,
the repository's default). The statistics helper's self-test runs before the
workload. Everything the benchmark binary prints to stdout is passed through,
so the last stdout line is its JSON result; build output goes to stderr.
The exit code is the benchmark's: non-zero when any output fails a check.
A traced run also writes its spans to .bench_build/spans/<workload>-seed<N>.jsonl.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["exact-768", "approx-classes", "lossy-arq", "service-mix"]
DEFAULT_SEED = 7


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "mwc", "api.h")):
        sys.exit("error: library sources not found at %s/src"
                 % os.path.relpath(ROOT))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"],
                   stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        build()
        subprocess.run([os.path.join(BUILD, "stats_test")],
                       stdout=sys.stderr, check=True)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("error: %s" % e)
    cmd = [os.path.join(BUILD, "mwc_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
