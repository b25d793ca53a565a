#!/usr/bin/env python3
"""Builds perf_report from this checkout and runs one workload.

    python3 perf_report/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds the package into $CARGO_TARGET_DIR/perf_report
(default .bench_build/perf_report), runs the binary, copies its output to
stderr, and prints one JSON object as the last line of stdout:

    {"correct": true, "attempted": 9120, "failed": 0,
     "metrics": {"qps": {"value": 912.3, "unit": "1/s"}, ...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. A failed build or run exits non-zero
without printing a result; a run whose answers disagree with the oracle
prints "correct": false.

    python3 perf_report/run.py --check-quick --binary <path> --workload <name>

is the ctest smoke check: two quick traced runs must print every metric
BENCHMARK.json names, fail nothing, pass the oracle, write a valid Chrome
trace, and repeat the core.reads.* node-read counts exactly.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(target, "perf_report")
    configured = any(os.path.exists(os.path.join(build_dir, f)) for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perf_report", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perf_report")


def run_binary(binary, argv):
    # subprocess.run kills and reaps the child if the timeout expires.
    return subprocess.run([binary] + argv, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)


def parse(stdout):
    """Returns ({name: {"value", "unit"}}, (attempted, failed, correct) or None)."""
    metrics, result = {}, None
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "metric":
            value = float(parts[2])
            if math.isfinite(value):
                metrics[parts[1]] = {"value": value, "unit": parts[3]}
        elif len(parts) == 4 and parts[0] == "result":
            result = (int(parts[1]), int(parts[2]), parts[3] == "1")
    return metrics, result


def missing_metrics(metrics, wanted):
    return [m["name"] for m in wanted
            if m["name"] not in metrics or metrics[m["name"]]["unit"] != m["unit"]]


def check_quick(binary, workload, spec):
    wanted = spec["end_to_end"] + spec["per_layer"]
    runs = []
    for _ in range(2):
        proc = run_binary(binary, [f"--workload={workload}", "--seed=1", "--quick", "--trace"])
        sys.stdout.write(proc.stdout)
        metrics, result = parse(proc.stdout)
        missing = missing_metrics(metrics, wanted)
        if proc.returncode != 0 or result is None or missing:
            print(f"FAIL: exit {proc.returncode}, missing or mislabeled: {missing}")
            return 1
        attempted, failed, correct = result
        if not correct or failed != 0 or attempted == 0:
            print(f"FAIL: attempted {attempted}, failed {failed}, correct {correct}")
            return 1
        with open(os.path.join("bench_out", f"perf_{workload}.trace.json")) as f:
            if not json.load(f)["traceEvents"]:
                print("FAIL: the trace has no events")
                return 1
        runs.append(metrics)
    reads = [m["name"] for m in wanted if m["name"].startswith("core.reads.")]
    drifted = [n for n in reads if runs[0][n]["value"] != runs[1][n]["value"]]
    if drifted:
        print(f"FAIL: node reads differ between identical runs: {drifted}")
        return 1
    print(f"PASS: {len(wanted)} metrics, oracle clean, {len(reads)} read counts repeat")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-quick", action="store_true")
    parser.add_argument("--binary")
    args = parser.parse_args()
    spec = load_spec()
    if args.check_quick:
        return check_quick(args.binary, args.workload, spec)

    binary = build()
    argv = [f"--workload={args.workload}", f"--seed={args.seed}", f"--seconds={args.seconds:g}"]
    if args.trace:
        argv.append("--trace")
    proc = run_binary(binary, argv)
    sys.stderr.write(proc.stdout)
    metrics, result = parse(proc.stdout)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = missing_metrics(metrics, wanted)
    if proc.returncode not in (0, 3) or result is None or missing:
        print(f"perf_report failed: exit {proc.returncode}, missing metrics {missing}",
              file=sys.stderr)
        return 1
    attempted, failed, correct = result
    print(json.dumps({
        "correct": correct and proc.returncode == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        print(f"perf_report: {error}", file=sys.stderr)
        sys.exit(1)
