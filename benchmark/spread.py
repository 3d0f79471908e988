#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 benchmark/spread.py --workloads sweep replan --seeds 1-10 \
        [--seconds 25] [--out results.jsonl]

For every workload and metric it prints the median of the per-run values
and the distance between their first and third quartiles (Python's
`statistics.quantiles(values, n=4)`) as a share of the median, next to the
metric's bound from BENCHMARK.json. A spread at or above a third of the
bound is marked, and makes the exit code 1. Runs go one after another,
through benchmark/run.py, from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    """'1-4,9' -> [1, 2, 3, 4, 9]"""
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        elif part:
            seeds.append(int(part))
    return seeds


def spread(values):
    """(median, (q3 - q1) / median) of a list of at least two values."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def parse_result(stdout):
    """The result object from the last line of a run's stdout."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected keys {sorted(result)}")
    return result


def run_one(workload, seed, seconds):
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return parse_result(proc.stdout)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out", help="append every result line here (JSON lines)")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads:
        per_metric = {}
        for seed in parse_seeds(args.seeds):
            result = run_one(workload, seed, seconds)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: INCORRECT ({result['failed']} failed)")
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, values in per_metric.items():
            if len(values) < 2:
                continue
            med, sp = spread(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and sp >= bound / 3:
                flag = "  <-- spread >= bound/3"
                ok = False
            print(f"  {workload:12s} {name:28s} median {med:<14.6g} spread {sp:.4f}"
                  + (f" (bound {bound})" if bound is not None else "") + flag)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
