"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run seed fixes the workload's pool of
inputs.  The run cycles through the pool in whole passes, one fresh process
per operation (see op.py), and starts another pass only while it can end
within S seconds; at least one pass always runs.  Children run with one
thread each (OMP, OpenBLAS, MKL and TOPICBLOCKS_THREADS set to 1).

With --trace 0 the last line of standard output is a JSON object holding
the end-to-end metrics:

* wall_s: median wall time of the timed pipeline over the run's operations;
* setup_s: median time from spawning an operation's process to the end of
  its input generation (process start, imports, sampling, corpus files);
* peak_rss_mb: median over operations of the process' peak resident memory;
* sigma_nats: mean description length of the pool's results from the first
  pass, which depends on the seed only.

With --trace 1 each pool input runs twice, untraced and then traced, and
the object holds the per-layer metrics of layers.py (medians over the
traced operations) and the tracing overhead.  Either way the full record,
with each metric's median, its highest percentile that has ten samples
beyond it, the sample counts, the failed fraction and the environment, is
written to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OP = os.path.join(HERE, "op.py")
OUT = os.path.join(HERE, "out")

RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "TOPICBLOCKS_THREADS")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("sigma_nats", "nats"))


def child_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("TOPICBLOCKS_ERROR_JSON", None)
    return env


def run_op(workload, spec, workdir, deadline, spans=None) -> dict:
    """Run one operation in a fresh process and return its record."""
    cmd = [sys.executable, OP, "--workload", workload, "--spec", json.dumps(spec),
           "--workdir", workdir]
    if spans:
        cmd += ["--spans", spans]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        return {"ok": False, "problems": ["timed out"], "spec": spec}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"ok": False, "spec": spec,
                "problems": [f"exit {proc.returncode}: {proc.stderr[-2000:]}"]}
    record["spec"] = spec
    if "setup_end" in record:
        record["setup_s"] = record.pop("setup_end") - spawned
    return record


def summary(values) -> dict:
    """Median, the highest percentile with ten samples beyond it, and n."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    if n > 10:
        out[f"p{100.0 * (n - 10) / n:.0f}"] = ordered[n - 11]
    return out


def environment() -> dict:
    from importlib import metadata

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "threads": {var: "1" for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "topicblocks", "__init__.py")):
        print(f"no topicblocks sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    pool = workloads.WORKLOADS[args.workload][0](args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT, "work", tag)
    os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
    deadline = started + RUN_LIMIT_S
    window_end = started + args.seconds

    ops, traced = [], []
    passes = 0
    while True:
        pass_start = time.monotonic()
        for spec in pool:
            k = len(ops)
            ops.append(run_op(args.workload, spec, os.path.join(work, str(k)), deadline))
            if args.trace:
                spans = os.path.join(OUT, "spans", f"{tag}-{len(traced)}.npz")
                record = run_op(args.workload, spec, os.path.join(work, f"{k}t"),
                                deadline, spans=spans)
                record["spans_file"] = spans
                traced.append(record)
        passes += 1
        now = time.monotonic()
        if now + (now - pass_start) > window_end:
            break

    everything = ops + traced
    failed = sum(not r.get("ok") for r in everything)
    for r in everything:
        for problem in r.get("problems", []):
            print(f"{args.workload} {r['spec']}: {problem}", file=sys.stderr)

    samples = {
        "wall_s": [r["wall_s"] for r in ops if "wall_s" in r],
        "setup_s": [r["setup_s"] for r in ops if "setup_s" in r],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ops if "wall_s" in r],
    }
    first_pass = ops[:len(pool)]
    if args.trace:
        metrics, detail = traced_metrics(ops, traced)
        if metrics is None:
            print("no traced operation completed", file=sys.stderr)
            return 1
    else:
        if not all(samples.values()) or not all(
                math.isfinite(r.get("sigma", math.nan)) for r in first_pass):
            print("no operation produced the end-to-end metrics", file=sys.stderr)
            return 1
        values = {name: statistics.median(vals) for name, vals in samples.items()}
        values["sigma_nats"] = statistics.fmean(r["sigma"] for r in first_pass)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        detail = {name: summary(vals) for name, vals in samples.items()}
        detail["sigma_nats"] = {"per_input": [r["sigma"] for r in first_pass]}

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "pool": pool, "passes": passes,
        "attempted": len(everything), "failed": failed,
        "failed_frac": failed / len(everything),
        "metrics": metrics, "detail": detail, "environment": environment(),
        "operations": everything, "elapsed_s": time.monotonic() - started,
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"detail": detail, "failed_frac": report["failed_frac"],
                      "passes": passes}))
    print(json.dumps({"correct": failed == 0, "attempted": len(everything),
                      "failed": failed, "metrics": metrics}))
    return 0


def traced_metrics(untraced, traced):
    """Per-layer metrics as medians over traced operations, plus overhead."""
    import layers
    from tracing import Spans

    per_op = [layers.layer_metrics(Spans.load(r["spans_file"]))
              for r in traced if r.get("ok")]
    plain = [r["wall_s"] for r in untraced if "wall_s" in r]
    if not per_op or not plain:
        return None, None
    values = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    # per operation, the module self-time shares add up to the root span
    share_sums = [sum(v for name, v in m.items() if name.endswith(".self_share"))
                  for m in per_op]
    plain = statistics.median(plain)
    with_trace = statistics.median(r["wall_s"] for r in traced if r.get("ok"))
    values["trace.overhead_s"] = with_trace - plain
    values["trace.overhead_ratio"] = (with_trace - plain) / plain
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in layers.metric_names()}
    detail = {"untraced_wall_s": plain, "traced_wall_s": with_trace,
              "traced_ops": len(per_op),
              "self_share_sums": share_sums,
              "missing_entry_points": sorted({m for r in traced
                                              for m in r.get("missing", [])})}
    return metrics, detail


if __name__ == "__main__":
    sys.exit(main())
