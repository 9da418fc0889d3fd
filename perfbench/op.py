"""One operation of a workload, in a fresh process.

    python3 perfbench/op.py --workload NAME --spec JSON --workdir DIR [--spans PATH]

Imports the package, generates the inputs (set-up), runs the timed pipeline
and checks its outputs, then prints one JSON line: the monotonic time at
which set-up ended, the pipeline's wall time, peak resident memory, sigma
and the problems the check found.  With --spans the layer entry points are
traced and the spans are written to PATH when the operation ends.

Each operation gets its own process because the package keeps module-global
caches (the log-partition table and LRU, the integer partition rows): in a
reused process later operations would skip work that every separate
invocation of the package pays.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--spec", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    import topicblocks

    if not os.path.abspath(topicblocks.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"topicblocks imported from {topicblocks.__file__}, not {SRC}")
    import workloads

    _, setup, run, check = workloads.WORKLOADS[args.workload]
    tracer = None
    span = _untraced
    if args.spans:
        import layers
        from tracing import Tracer

        tracer = Tracer()
        tracer.install("topicblocks", layers.ENTRY_POINTS)
        span = tracer.span

    record = {"ok": False, "problems": []}
    try:
        os.makedirs(args.workdir, exist_ok=True)
        spec = json.loads(args.spec)
        with span("setup"):
            inputs = setup(spec, args.workdir)
        record["setup_end"] = time.monotonic()
        cache = _cache_info() if tracer else None
        t0 = time.perf_counter()
        with span("pipeline"):
            outputs = run(inputs)
        record["wall_s"] = time.perf_counter() - t0
        if cache is not None:
            after = _cache_info()
            tracer.counters["log_partitions.cache_hits"] = after.hits - cache.hits
            tracer.counters["log_partitions.cache_misses"] = after.misses - cache.misses
        record["problems"], record["sigma"] = check(inputs, outputs)
        record["ok"] = not record["problems"]
    except Exception:  # reported as a failed operation, never a crashed run
        record["problems"].append(traceback.format_exc(limit=5))
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.save(args.spans)
        record["missing"] = tracer.missing
    print(json.dumps(record))
    return 0


def _untraced(name):
    return contextlib.nullcontext()


def _cache_info():
    from topicblocks import partition_counts

    cached = getattr(partition_counts, "_log_partitions_cached", None)
    return cached.cache_info() if hasattr(cached, "cache_info") else None


if __name__ == "__main__":
    sys.exit(main())
