#!/usr/bin/env python3
"""Build and run the outside-in benchmark.

    python3 perfbench/run.py --workload plan_flow --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench/ (which compiles ../src) as a Release package into
.bench_build/ at the checkout root, runs bt_perfbench, checks that its last
line names exactly the metrics BENCHMARK.json lists for the trace mode,
and passes the output through. Exits non-zero without a result when the
sources are missing, the build fails, or the output is malformed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under src/; run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "bt_perfbench", "bt_perfbench_selftest"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))


def source_rev():
    """The git revision, or a digest of the sources outside a git tree."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env)
        if got.returncode == 0:
            return got.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def result_problem(line, expected):
    """Why the result line is malformed, or None when it is well formed."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if not isinstance(result, dict) or sorted(result) != [
            "attempted", "correct", "failed", "metrics"]:
        return "result keys are not correct/attempted/failed/metrics"
    if not isinstance(result["correct"], bool):
        return "correct is not a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            return key + " is not a whole number"
    if result["attempted"] < 1:
        return "nothing attempted"
    metrics = result["metrics"]
    if not isinstance(metrics, dict) or set(metrics) != set(expected):
        got = set(metrics) if isinstance(metrics, dict) else set()
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(expected) - got), sorted(got - set(expected)))
    for name, unit in expected.items():
        entry = metrics[name]
        if (not isinstance(entry, dict) or sorted(entry) != ["unit", "value"]
                or entry["unit"] != unit
                or not isinstance(entry["value"], (int, float))):
            return "metric %s is not {value, unit: %s}" % (name, unit)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the helper checks only")
    args = parser.parse_args()

    build()
    if args.self_test:
        sys.exit(subprocess.run(
            [os.path.join(BUILD, "bt_perfbench_selftest")]).returncode)
    if not args.workload:
        fail("--workload is required")

    cmd = [os.path.join(BUILD, "bt_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--rev", source_rev()]
    try:
        run = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("bt_perfbench exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines[-1]:
        sys.stderr.write(run.stdout)
        fail("bt_perfbench exited with code %d" % run.returncode)
    problem = result_problem(lines[-1], expected_metrics(args.trace))
    if problem:
        sys.stderr.write(run.stdout)
        fail(problem)
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
