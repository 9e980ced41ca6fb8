#!/usr/bin/env python3
"""End-to-end benchmark of the subseq library.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/ (a CMake package compiling the library sources under
src/) into perfbench/.build on first use, generates the workload's fixed
inputs into a scratch directory under perfbench/.runs, times several
cold set-ups in processes of their own, runs the measurement with the
seed's queries, and prints its result line last on stdout. Traced runs
keep their spans in perfbench/.traces. See perfbench/README.md.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(BENCH_DIR, ".build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ["songs-dtw-scan", "proteins-refnet", "serve-ingest"]
# Separate cold set-ups per --trace 0 run: at most this many, stopping
# once they have taken this long.
SETUP_SAMPLES = 8
SETUP_BUDGET_S = 2.0


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(REPO_DIR, "src", "subseq", "frame", "matcher.h")):
        fail("the library sources (src/subseq) are missing; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    # One build at a time per checkout; later runs find it up to date.
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps = [
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
        ]
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    run_dir = os.path.join(BENCH_DIR, ".runs", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    trace_dir = os.path.join(BENCH_DIR, ".traces")
    os.makedirs(run_dir)
    os.makedirs(trace_dir, exist_ok=True)
    try:
        common = ["--workload", args.workload, "--dir", run_dir]
        if subprocess.run([BINARY, "gen"] + common).returncode != 0:
            fail("input generation failed")
        # setup_s is the median of several cold set-ups, each in a process
        # of its own, and the measuring process's own: one set-up of a few
        # milliseconds is too short to time alone.
        setup_samples = []
        while args.trace == 0 and len(setup_samples) < SETUP_SAMPLES and sum(setup_samples) < SETUP_BUDGET_S:
            setup = subprocess.run([BINARY, "setup"] + common, stdout=subprocess.PIPE, text=True)
            if setup.returncode != 0 or not setup.stdout.strip():
                fail("a set-up failed (exit code %d)" % setup.returncode)
            setup_samples.append(float(setup.stdout.split()[-1]))
        trace_out = os.path.join(trace_dir, "%s-%d.jsonl" % (args.workload, args.seed))
        run = subprocess.run(
            [BINARY, "run"] + common
            + ["--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--trace-out", trace_out,
               "--setup-samples", ",".join(repr(x) for x in setup_samples)],
            stdout=subprocess.PIPE, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            fail("the measurement failed (exit code %d)" % run.returncode)
        print(lines[-1])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
