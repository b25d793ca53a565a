#!/usr/bin/env python3
"""Runs every perf_report workload and records one side of a BENCH_<pr>.json.

    python3 scripts/bench_trajectory.py --pr N --side parent --checkout <dir>
    python3 scripts/bench_trajectory.py --pr N --side change --against BENCH_N.json:parent

For each workload in BENCHMARK.json, runs `perf_report/run.py` from the
checkout twice, with --trace 0 (end-to-end metrics) and --trace 1
(per-layer metrics), both with seed SEED and SECONDS-second runs. The
host line that run.py copies to stderr is kept with the results, because
wall-clock numbers only mean something on the host that measured them.

The side is written under "sides" in BENCH_<pr>.json at the root of the
repository holding this script; other sides already in the file are kept,
so one file holds a parent run and a change run.

The run fails (exit 1) if any run's answers disagree with the oracle.
With --against FILE:SIDE, it also fails unless every deterministic count
equals the one in FILE's side SIDE exactly, on every workload both have.
A side recorded with another seed or duration is refused, since the
counts depend on the seeded query list. The counts are the paper's node
reads (core.reads.*), the router's shard executions per query,
replication and member divergences, and the wire bytes per request;
timings are never compared.
"""

import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Every side is run with this seed and run length, so any two sides compare.
SEED = 7
SECONDS = 10

# Deterministic per-layer counts: equal on every run of the same tree and
# query list, whatever the host's load.
EXACT_COUNTS = re.compile(
    r"^(core\.reads\..+|shard_router\.execs_per_.+|shard_router\.replication"
    r"|shard_router\.member_divergences|net\.bytes_per_request)$")


def run_workload(checkout, workload, trace):
    """Returns (result JSON, host line) of one run.py invocation."""
    cmd = [sys.executable, os.path.join(checkout, "perf_report", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", str(SECONDS),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    host = next((line for line in proc.stderr.splitlines() if line.startswith("host ")), None)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} --trace {trace}: run.py exited {proc.returncode}")
    return json.loads(lines[-1]), host


def run_side(checkout, workloads):
    side = {"seed": SEED, "seconds": SECONDS, "workloads": {}}
    for workload in workloads:
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, host = run_workload(checkout, workload, trace)
            print(f"{workload} --trace {trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
            entry[key] = {name: m["value"] for name, m in result["metrics"].items()}
            entry[f"{key}_run"] = {k: result[k] for k in ("correct", "attempted", "failed")}
            entry[f"{key}_run"]["host"] = host
        side["workloads"][workload] = entry
    return side


def load_reference(against):
    """Returns side SIDE of the BENCH file named by FILE:SIDE."""
    path, sep, label = against.rpartition(":")
    if not sep or not path or not label:
        raise KeyError(f"--against wants FILE:SIDE, got {against!r}")
    with open(path) as f:
        sides = json.load(f)["sides"]
    if label not in sides:
        raise KeyError(f"side {label!r} not in {sorted(sides)}")
    reference = sides[label]
    if (reference["seed"], reference["seconds"]) != (SEED, SECONDS):
        raise KeyError(f"side {label!r} ran seed {reference['seed']}, {reference['seconds']} s; "
                       f"its counts do not compare with seed {SEED}, {SECONDS} s")
    return reference


def count_mismatches(side, reference):
    """Lists every deterministic count that differs between two sides."""
    mismatches = []
    for workload, entry in side["workloads"].items():
        ref = reference["workloads"].get(workload)
        if ref is None:
            continue
        for name, value in entry["per_layer"].items():
            if not EXACT_COUNTS.match(name):
                continue
            if name not in ref["per_layer"]:
                mismatches.append(f"{workload} {name}: missing from the reference")
            elif ref["per_layer"][name] != value:
                mismatches.append(f"{workload} {name}: {ref['per_layer'][name]!r} -> {value!r}")
    return mismatches


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--side", default="change", help="label of this run, e.g. parent/change")
    parser.add_argument("--checkout", default=ROOT, help="source tree to build and run")
    parser.add_argument("--against", help="FILE:SIDE whose deterministic counts must match")
    args = parser.parse_args()

    checkout = os.path.abspath(args.checkout)
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]

    reference = load_reference(args.against) if args.against else None

    side = run_side(checkout, workloads)
    out = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    bench = {"pr": args.pr, "sides": {}}
    if os.path.exists(out):
        with open(out) as f:
            bench = json.load(f)
    bench["sides"][args.side] = side
    with open(out, "w") as f:
        json.dump(bench, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote side {args.side!r} to {out}", file=sys.stderr)

    failed = False
    for workload, entry in side["workloads"].items():
        for key in ("end_to_end_run", "per_layer_run"):
            if not entry[key]["correct"]:
                print(f"INCORRECT {workload} {key}: answers disagree with the oracle",
                      file=sys.stderr)
                failed = True
    if reference is not None:
        mismatches = count_mismatches(side, reference)
        for line in mismatches:
            print(f"MISMATCH {line}", file=sys.stderr)
        if mismatches:
            failed = True
        else:
            print("deterministic counts match the reference", file=sys.stderr)
    return 1 if failed else 0

if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, KeyError, RuntimeError, json.JSONDecodeError) as error:
        print(f"bench_trajectory: {error}", file=sys.stderr)
        sys.exit(1)
