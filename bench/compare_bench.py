#!/usr/bin/env python3
"""Compare a benchmark run against a committed baseline and flag regressions.

Usage:
  compare_bench.py BASELINE.json CURRENT.json [--threshold 0.15]

Understands two formats, auto-detected per file:
  * google-benchmark --benchmark_out JSON ({"benchmarks": [...]}): entries
    are keyed by "name" and compared on "real_time". When a run contains
    repetition aggregates, the "_median" entries are used and the raw
    repetitions ignored (medians resist machine-noise outliers).
  * the repo's own bench Report ({"cells": [...]}, see bench_util.h):
    entries are keyed by "row"/"col" and compared on "value".

An entry regresses when current > baseline * (1 + threshold); for
throughput-like cells (units containing "/s" or named *plans_per_sec*)
the comparison direction flips. Deterministic count cells — metrics named
*_ok or *_evals, e.g. the fleet bench's per-tenant cost columns
(tenant_cost/*/flip_evals, plans_ok) — are compared EXACTLY:
they are integer sums guaranteed bit-identical across runs and worker
counts, so any difference is a determinism break, not drift. Entries
present on only one side are reported but never fail the run (benchmarks
come and go). Exit status is 1 when any entry regresses beyond the
threshold, else 0.

Baselines are committed from the maintainers' reference machine, so on
other hardware (CI runners especially) the comparison measures drift, not
truth — the CI step that runs this is advisory for exactly that reason.
"""

import argparse
import json
import sys


EXACT_METRIC_SUFFIXES = ("_ok", "_evals")


def is_exact_metric(metric):
    """Deterministic count columns: compared for equality, not drift."""
    return metric.endswith(EXACT_METRIC_SUFFIXES)


def load_entries(path):
    """Returns ({name: (value, lower_is_better, exact)}, format_tag)."""
    with open(path) as f:
        data = json.load(f)
    entries = {}
    if "benchmarks" in data:
        rows = data["benchmarks"]
        medians = [b for b in rows if b.get("aggregate_name") == "median"]
        if medians:
            rows = medians
        for b in rows:
            if b.get("run_type") == "aggregate" and \
                    b.get("aggregate_name") != "median":
                continue
            name = b["name"]
            for suffix in ("_median",):
                if name.endswith(suffix):
                    name = name[: -len(suffix)]
            entries[name] = (float(b["real_time"]), True, False)
        return entries, "google-benchmark"
    if "cells" in data:
        for cell in data["cells"]:
            name = "%s/%s/%s" % (cell.get("section", "?"),
                                 cell.get("row", "?"),
                                 cell.get("metric", "?"))
            value = cell.get("mean")
            if value is None:
                continue
            metric = str(cell.get("metric", ""))
            lower_is_better = "per_sec" not in metric
            entries[name] = (float(value), lower_is_better,
                             is_exact_metric(metric))
        return entries, "imcf-report"
    raise ValueError("%s: neither google-benchmark nor imcf Report JSON"
                     % path)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="fractional slowdown that counts as a "
                             "regression (default 0.15)")
    args = parser.parse_args()

    base, base_fmt = load_entries(args.baseline)
    cur, cur_fmt = load_entries(args.current)
    if base_fmt != cur_fmt:
        print("error: format mismatch (%s vs %s)" % (base_fmt, cur_fmt))
        return 2

    regressions = []
    improvements = []
    width = max((len(n) for n in base), default=10)
    print("%-*s %14s %14s %9s" % (width, "benchmark", "baseline",
                                  "current", "ratio"))
    for name in sorted(base):
        if name not in cur:
            print("%-*s %14.6g %14s %9s" % (width, name, base[name][0],
                                            "(gone)", "-"))
            continue
        base_value, lower_is_better, exact = base[name]
        cur_value = cur[name][0]
        if base_value == 0:
            ratio = float("inf") if cur_value else 1.0
        else:
            ratio = cur_value / base_value
        if exact:
            # Deterministic columns: equal or broken, no drift allowance.
            worse = cur_value != base_value
            better = False
        else:
            worse = ratio > 1.0 + args.threshold if lower_is_better \
                else ratio < 1.0 - args.threshold
            better = ratio < 1.0 - args.threshold if lower_is_better \
                else ratio > 1.0 + args.threshold
        flag = ""
        if worse:
            flag = "  MISMATCH (exact)" if exact else "  REGRESSED"
            regressions.append(name)
        elif better:
            flag = "  improved"
            improvements.append(name)
        print("%-*s %14.6g %14.6g %8.2fx%s"
              % (width, name, base_value, cur_value, ratio, flag))
    for name in sorted(set(cur) - set(base)):
        print("%-*s %14s %14.6g %9s" % (width, name, "(new)",
                                        cur[name][0], "-"))

    print()
    print("%d compared, %d regressed (>%d%%), %d improved"
          % (len(set(base) & set(cur)), len(regressions),
             round(args.threshold * 100), len(improvements)))
    if regressions:
        print("regressions: " + ", ".join(regressions))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
