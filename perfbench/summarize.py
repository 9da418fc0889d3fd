"""Summarize finished runs across seeds.

    python3 perfbench/summarize.py [--trace 0|1] [WORKLOAD ...]

Reads perfbench/out/<workload>-seed<N>-trace<T>.json, as run.py leaves them,
and prints one JSON object: for each workload and metric, the values by
seed, their median, quartiles and spread (interquartile distance over the
median), plus every operation's samples pooled with their median and
highest percentile that has ten samples beyond it.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import sys

from run import OUT, summary

RUN_FILE = re.compile(r"(.+)-seed(-?\d+)-trace[01]\.json$")


def summarize(workload: str, trace: int) -> dict:
    runs = {}
    for path in glob.glob(os.path.join(OUT, f"{workload}-seed*-trace{trace}.json")):
        seed = int(RUN_FILE.match(os.path.basename(path)).group(2))
        with open(path, encoding="utf-8") as fh:
            runs[seed] = json.load(fh)
    out = {"seeds": sorted(runs), "metrics": {}}
    if not runs:
        return out
    for name in next(iter(runs.values()))["metrics"]:
        by_seed = {s: runs[s]["metrics"][name]["value"] for s in sorted(runs)}
        values = list(by_seed.values())
        median = statistics.median(values)
        entry = {"unit": runs[min(runs)]["metrics"][name]["unit"],
                 "by_seed": by_seed, "median": median}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
        out["metrics"][name] = entry
    if not trace:
        ops = [op for r in runs.values() for op in r["operations"]]
        timed = [op for op in ops if "wall_s" in op]
        out["operations"] = {
            "wall_s": summary([op["wall_s"] for op in timed]),
            "setup_s": summary([op["setup_s"] for op in ops if "setup_s" in op]),
            "peak_rss_mb": summary([op["peak_rss_mb"] for op in timed]),
        }
    out["attempted"] = sum(r["attempted"] for r in runs.values())
    out["failed"] = sum(r["failed"] for r in runs.values())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args(argv)
    names = args.workloads or sorted(
        {RUN_FILE.match(os.path.basename(p)).group(1)
         for p in glob.glob(os.path.join(OUT, f"*-trace{args.trace}.json"))})
    print(json.dumps({w: summarize(w, args.trace) for w in names}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
