#!/usr/bin/env python3
"""perfbench: builds whtbench from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from anywhere; it builds into .bench_build/ at the root of the
checkout (configure once, then incremental), runs the benchmark's own unit
tests, then runs the workload.  The metric table goes to stderr; the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.  --trace 0 reports every end-to-end metric of BENCHMARK.json,
--trace 1 every per-layer metric.  The exit status is non-zero when the
whtlab sources are missing, the build or a unit test fails, any served
output differs from the `generated` reference, or the result is malformed.
"""
import argparse
import json
import math
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, what, timeout):
    """Runs cmd with its output on stderr; exits on failure."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{what} failed: {e}")
    if proc.returncode != 0:
        fail(f"{what} failed with exit status {proc.returncode}")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"whtlab sources not found under {ROOT}; nothing to build")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"], "configure", 600)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs], "build", 840)
    tests = os.path.join(BUILD, "perfbench_tests")
    if os.path.isfile(tests):
        run_quiet([tests], "unit tests", 120)


def commit_id():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    names = expected_metrics(args.trace)
    build()
    os.makedirs(RESULTS, exist_ok=True)

    cmd = [os.path.join(BUILD, "whtbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--out", RESULTS, "--commit", commit_id()]
    # Own process group, so a timeout also takes the forked daemon down.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"whtbench did not finish within {RUN_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if not lines:
        fail(f"whtbench printed no result (exit status {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("whtbench's last line is not JSON")

    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has the wrong keys")
    if set(result["metrics"]) != names:
        missing = sorted(names - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - names)
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, metric in result["metrics"].items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} is not a finite number")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("nothing was attempted")

    print(json.dumps(result))
    if proc.returncode != 0 or result["correct"] is not True:
        fail("served outputs differ from the generated reference"
             if result["correct"] is not True else
             f"whtbench exited with status {proc.returncode}")


if __name__ == "__main__":
    main()
