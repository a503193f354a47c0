#!/usr/bin/env python3
"""Builds and runs the bagdet end-to-end benchmark.

    python3 e2e_bench/run.py --workload decide|certify|serve --seed N \
        --seconds S --trace 0|1
    python3 e2e_bench/run.py --self-test

Run from the repository root. The benchmark binary is built from source
with CMake into $CARGO_TARGET_DIR (default .bench_build) under the current
directory; build output goes to stderr. Per-workload parameters (latency
limit, serve's offered rate) come from e2e_bench/workloads.json, so the record
of why a workload was chosen is also what runs. The last stdout line is the
benchmark's JSON result; traced runs also write their spans as JSON lines
to <build dir>/spans-<workload>-<seed>.jsonl.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "bagdet_e2e",
         "bagdet_e2e_selftest", "-j", jobs],
        stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    if args.self_test:
        return subprocess.run([os.path.join(build_dir, "bagdet_e2e_selftest")]).returncode

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    params = workloads[args.workload]["args"]
    cmd = [os.path.join(build_dir, "bagdet_e2e"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    for key, value in params.items():
        cmd += ["--" + key, str(value)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir, f"spans-{args.workload}-{args.seed}.jsonl")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
