#!/usr/bin/env python3
"""Run-to-run steadiness of the end-to-end metrics.

    python3 perfbench/steadiness.py --seeds 10 --seconds 15 \
        --workloads interactive,replan,mixed --out perfbench/steadiness.json

Runs each workload once per seed (1..N) through run.py with tracing off,
then reports for every end-to-end metric the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread: the
interquartile distance as a share of the median. The bounds in
BENCHMARK.json are set from this record (README.md, "Bounds").
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: run reported failures")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default="interactive,replan,mixed")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--out")
    args = parser.parse_args()
    record = {"machine": {"cpus": os.cpu_count(),
                          "processor": platform.processor() or platform.machine()},
              "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds)
                for seed in range(args.first_seed, args.first_seed + args.seeds)]
        metrics = {name: summarize([r[name] for r in runs]) for name in runs[0]}
        record["workloads"][workload] = metrics
        for name, s in metrics.items():
            print(f"{workload:12s} {name:16s} median={s['median']:.6g} "
                  f"q1={s['q1']:.6g} q3={s['q3']:.6g} spread={s['spread']:.4f} "
                  f"runs={' '.join(f'{v:.4g}' for v in s['values'])}",
                  flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
