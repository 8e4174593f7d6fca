#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload serve|serve-spec|migrate|grid|all \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/main.exe with dune, runs
one workload in its own process (so its peak memory is its own), checks
that the result line carries exactly the metrics BENCHMARK.json lists for
the mode, and prints that line last.  `--workload all` runs the four
workloads one after another and ends with one combined line whose
metric names are prefixed with the workload.

Exit codes: 0 correct, 1 a correctness check failed, 2 the build or the
benchmark could not run, 3 the benchmark printed a malformed result.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
WORKLOADS = ["serve", "serve-spec", "migrate", "grid"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


class Malformed(Exception):
    pass


def expected_metrics(benchmark, trace):
    """(name, unit) pairs the result line must carry, in order."""
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in benchmark[key]]


def parse_result(line, expected):
    """Parse and validate one result line against the expected metrics."""
    try:
        result = json.loads(line)
    except ValueError as e:
        raise Malformed(f"result line is not JSON: {e}")
    if not isinstance(result, dict) or sorted(result) != sorted(
        ["correct", "attempted", "failed", "metrics"]
    ):
        raise Malformed("result must have exactly correct, attempted, failed, metrics")
    if not isinstance(result["correct"], bool):
        raise Malformed("correct must be a boolean")
    for key in ("attempted", "failed"):
        value = result[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise Malformed(f"{key} must be a whole number >= 0")
    if result["attempted"] < 1:
        raise Malformed("attempted must be at least 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        raise Malformed("metrics must be an object")
    names = [name for name, _ in expected]
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        raise Malformed(f"metric names differ: missing {missing}, unexpected {extra}")
    for name, unit in expected:
        m = metrics[name]
        if not isinstance(m, dict) or sorted(m) != ["unit", "value"]:
            raise Malformed(f"{name}: must have exactly value and unit")
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            raise Malformed(f"{name}: value must be a finite number")
        if m["unit"] != unit:
            raise Malformed(f"{name}: unit {m['unit']!r}, expected {unit!r}")
    return result


def combine(results):
    """One line for `--workload all`: workload-prefixed metrics."""
    metrics = {}
    for workload, r in results:
        for name, m in r["metrics"].items():
            metrics[f"{workload}.{name}"] = m
    return {
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": metrics,
    }


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    env.pop("DUNE_BUILD_DIR", None)
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ROOT, "--build-dir", "_build",
             "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    return done.returncode == 0 and os.path.exists(EXE)


def run_one(workload, args, expected):
    """Run one workload; echo its report; return its result line, parsed
    and as printed."""
    cmd = [EXE, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {workload} did not finish: {e}", file=sys.stderr)
        return None
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stdout.write(done.stdout)
        print(f"perfbench: {workload} exited {done.returncode}", file=sys.stderr)
        return None
    for line in lines[:-1]:
        print(line)
    result = parse_result(lines[-1], expected)
    if (done.returncode == 0) != (result["correct"] and result["failed"] == 0):
        raise Malformed("exit code disagrees with the result line")
    return result, lines[-1]


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            expected = expected_metrics(json.load(f), args.trace)
    except (OSError, ValueError, KeyError) as e:
        print(f"perfbench: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 2
    if not build():
        return 2
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    try:
        for w in workloads:
            r = run_one(w, args, expected)
            if r is None:
                return 2
            results.append((w, r))
    except Malformed as e:
        print(f"perfbench: malformed result: {e}", file=sys.stderr)
        return 3
    if len(results) == 1:
        result, line = results[0][1]
    else:
        result = combine([(w, r) for w, (r, _) in results])
        line = json.dumps(result)
    print(line)
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
