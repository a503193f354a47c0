#!/usr/bin/env python3
"""Perf-regression gate over google-benchmark JSON output.

The CI perf-gate job regenerates the pinned thread-sweep benchmarks with
``--benchmark_format=json`` and this script compares them against a
committed per-runner baseline, failing the job when any pinned benchmark's
wall clock regresses beyond the noise tolerance. Stdlib-only by design —
CI may not install anything.

Subcommands
-----------
check        Compare current runs against a baseline. Exit 1 on any
             regression past tolerance; exit 0 (with a loud warning and a
             ready-to-commit candidate baseline) when no baseline exists
             for this runner yet — the bootstrap path.
baseline     Write a baseline file from current runs (the refresh path:
             run the perf-gate workflow, download the candidate artifact,
             commit it under ci/perf-baselines/<runner>.json).
sweep-entry  Convert a thread-sweep benchmark JSON into the per-machine
             entry format committed in BENCH_concurrency.json.
selftest     Prove the gate can fail: synthesize a baseline and a current
             run 30% slower, assert check() rejects it (and accepts the
             unregressed twin). Runs first in the perf-gate job, so a
             broken gate fails CI instead of silently passing everything.

Baseline format::

    {"runner": "ubuntu-latest", "fingerprint": "<bagdet_tune slug>",
     "tolerance": 0.25,
     "benchmarks": {"BM_x/8/2": {"real_time_ns": 1.2e6}}}

Only benchmarks matching PINNED_PREFIXES are baselined: the gate pins the
dispatch-sensitive sweeps (hom split sweep, decide loop), not every
microbenchmark, so a refactor adding benches does not
invalidate baselines.
"""

import argparse
import json
import sys

# Benchmarks worth gating: the thread sweeps whose shape the tuning
# subsystem exists to keep honest, plus the end-to-end decide loop.
PINNED_PREFIXES = (
    "BM_CountHomsSplit",
    "BM_DecideDetermined",
)

DEFAULT_TOLERANCE = 0.25


def _to_ns(value, unit):
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    return float(value) * scale.get(unit, 1.0)


def load_benchmarks(paths):
    """name -> {"real_time_ns": float, "cpu_time_ns": float}."""
    merged = {}
    for path in paths:
        with open(path) as f:
            data = json.load(f)
        for bench in data.get("benchmarks", []):
            if bench.get("run_type") == "aggregate":
                continue
            name = bench["name"]
            unit = bench.get("time_unit", "ns")
            merged[name] = {
                "real_time_ns": _to_ns(bench["real_time"], unit),
                "cpu_time_ns": _to_ns(bench["cpu_time"], unit),
            }
    return merged


def pinned(benchmarks):
    return {
        name: times
        for name, times in benchmarks.items()
        if name.startswith(PINNED_PREFIXES)
    }


def make_baseline(runner, fingerprint, benchmarks, tolerance):
    return {
        "runner": runner,
        "fingerprint": fingerprint,
        "tolerance": tolerance,
        "benchmarks": pinned(benchmarks),
    }


def check(baseline, current, tolerance=None):
    """Returns (failures, notes). failures non-empty => gate fails."""
    tol = tolerance if tolerance is not None else baseline.get(
        "tolerance", DEFAULT_TOLERANCE)
    failures, notes = [], []
    for name, base in baseline.get("benchmarks", {}).items():
        cur = current.get(name)
        if cur is None:
            failures.append(
                f"{name}: pinned in baseline but missing from current run "
                f"(renamed or deleted? refresh the baseline)")
            continue
        base_ns = float(base["real_time_ns"])
        cur_ns = float(cur["real_time_ns"])
        if base_ns <= 0:
            notes.append(f"{name}: non-positive baseline time, skipped")
            continue
        ratio = cur_ns / base_ns
        line = (f"{name}: {cur_ns / 1e6:.3f} ms vs baseline "
                f"{base_ns / 1e6:.3f} ms ({ratio - 1.0:+.1%})")
        if ratio > 1.0 + tol:
            failures.append(f"REGRESSION {line} exceeds +{tol:.0%} tolerance")
        elif ratio < 1.0 - tol:
            notes.append(
                f"improvement {line} — consider refreshing the baseline")
        else:
            notes.append(f"ok {line}")
    return failures, notes


def cmd_check(args):
    current = load_benchmarks(args.current)
    candidate = make_baseline(args.runner, args.fingerprint, current,
                              args.tolerance or DEFAULT_TOLERANCE)
    if args.emit_candidate:
        with open(args.emit_candidate, "w") as f:
            json.dump(candidate, f, indent=2, sort_keys=True)
            f.write("\n")
    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
    except FileNotFoundError:
        print(f"perf-gate: NO BASELINE at {args.baseline} — bootstrap pass.")
        print("perf-gate: commit the candidate baseline artifact as "
              f"{args.baseline} to arm the gate on this runner.")
        return 0
    failures, notes = check(baseline, current, args.tolerance)
    for note in notes:
        print(f"perf-gate: {note}")
    if failures:
        for failure in failures:
            print(f"perf-gate: {failure}", file=sys.stderr)
        print(
            f"perf-gate: FAILED — {len(failures)} pinned benchmark(s) "
            "regressed. If this is an accepted trade (or new hardware), "
            "refresh the baseline: download this run's candidate-baseline "
            f"artifact and commit it as {args.baseline}.",
            file=sys.stderr)
        return 1
    print(f"perf-gate: PASS ({len(baseline.get('benchmarks', {}))} pinned "
          "benchmarks within tolerance)")
    return 0


def cmd_baseline(args):
    current = load_benchmarks(args.current)
    baseline = make_baseline(args.runner, args.fingerprint, current,
                             args.tolerance or DEFAULT_TOLERANCE)
    if not baseline["benchmarks"]:
        print("perf-gate: no pinned benchmarks found in input", file=sys.stderr)
        return 1
    with open(args.out, "w") as f:
        json.dump(baseline, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"perf-gate: wrote baseline {args.out} "
          f"({len(baseline['benchmarks'])} pinned benchmarks)")
    return 0


def cmd_sweep_entry(args):
    current = load_benchmarks(args.current)
    entry = {
        "fingerprint": args.fingerprint,
        "runner": args.runner,
        "benchmarks": [
            {
                "name": name,
                "real_time_ms": round(times["real_time_ns"] / 1e6, 3),
                "cpu_time_ms": round(times["cpu_time_ns"] / 1e6, 3),
            }
            for name, times in sorted(pinned(current).items())
        ],
    }
    with open(args.out, "w") as f:
        json.dump(entry, f, indent=2)
        f.write("\n")
    print(f"perf-gate: wrote sweep entry {args.out} "
          f"({len(entry['benchmarks'])} benchmarks)")
    return 0


def cmd_selftest(_args):
    base_times = {
        "BM_DecideDetermined/4": {"real_time_ns": 1e6, "cpu_time_ns": 1e6},
        "BM_CountHomsSplit/4": {"real_time_ns": 2e6, "cpu_time_ns": 2e6},
    }
    baseline = make_baseline("selftest", "selftest", base_times,
                             DEFAULT_TOLERANCE)

    slowed = {
        name: {
            "real_time_ns": times["real_time_ns"] * 1.30,
            "cpu_time_ns": times["cpu_time_ns"] * 1.30,
        }
        for name, times in base_times.items()
    }
    failures, _ = check(baseline, slowed)
    if not failures:
        print("selftest: gate ACCEPTED a 30% slowdown — gate is broken",
              file=sys.stderr)
        return 1

    within = {
        name: {
            "real_time_ns": times["real_time_ns"] * 1.10,
            "cpu_time_ns": times["cpu_time_ns"] * 1.10,
        }
        for name, times in base_times.items()
    }
    failures, _ = check(baseline, within)
    if failures:
        print("selftest: gate REJECTED a within-tolerance run: "
              f"{failures}", file=sys.stderr)
        return 1

    missing = dict(slowed)
    del missing["BM_CountHomsSplit/4"]
    missing["BM_DecideDetermined/4"] = base_times["BM_DecideDetermined/4"]
    failures, _ = check(baseline, missing)
    if not failures:
        print("selftest: gate ignored a missing pinned benchmark",
              file=sys.stderr)
        return 1

    print("selftest: PASS — gate fails on +30%, passes on +10%, "
          "fails on missing pinned benchmark")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check")
    p.add_argument("--baseline", required=True)
    p.add_argument("--current", nargs="+", required=True)
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--runner", default="unknown")
    p.add_argument("--fingerprint", default="unknown")
    p.add_argument("--emit-candidate", default=None,
                   help="also write a ready-to-commit candidate baseline")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("baseline")
    p.add_argument("--out", required=True)
    p.add_argument("--current", nargs="+", required=True)
    p.add_argument("--runner", default="unknown")
    p.add_argument("--fingerprint", default="unknown")
    p.add_argument("--tolerance", type=float, default=None)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("sweep-entry")
    p.add_argument("--out", required=True)
    p.add_argument("--current", nargs="+", required=True)
    p.add_argument("--runner", default="unknown")
    p.add_argument("--fingerprint", default="unknown")
    p.set_defaults(func=cmd_sweep_entry)

    p = sub.add_parser("selftest")
    p.set_defaults(func=cmd_selftest)

    args = parser.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()
