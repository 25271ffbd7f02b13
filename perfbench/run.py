#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--trace 0|1]
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark binary is built from
source into $CARGO_TARGET_DIR (default .bench_build). Build output goes
to stderr; stdout carries the benchmark's report, whose last line is
one JSON object holding the metrics BENCHMARK.json lists for the mode:
its end_to_end metrics untraced, its per_layer metrics with --trace 1.
`--workload all` runs every workload in turn, each report after the
other. The exit code is non-zero when the build fails, an output check
fails or the metrics do not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# One run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(target):
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", target])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, target)


def expected_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in listed}, spec


def run_workload(binary, workload, args, seconds, expected):
    """One benchmark run; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            os.path.dirname(binary),
            "spans-%s-%d.json" % (workload, args.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("benchmark did not finish: %s" % e)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(done.stdout)
        fail("benchmark printed no result (exit code %d)"
             % done.returncode)

    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("metrics disagree with BENCHMARK.json: missing %s, "
             "unlisted %s, unit mismatch %s" % (missing, extra, units))
    return done.returncode, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        tests = build("perfbench_tests")
        sys.exit(subprocess.run([tests]).returncode)
    if not args.workload:
        parser.error("--workload is required")

    expected, spec = expected_metrics(args.trace)
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        fail("workload '%s' is not in BENCHMARK.json" % args.workload)
    seconds = args.seconds or spec["run_seconds"]
    binary = build("perfbench")

    worst = 0
    for workload in workloads:
        code, lines = run_workload(binary, workload, args, seconds,
                                   expected)
        sys.stdout.write("\n".join(lines) + "\n")
        worst = worst or code
    sys.exit(worst)


if __name__ == "__main__":
    main()
