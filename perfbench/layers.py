"""The traced layer entry points and the per-layer metrics derived from them.

The layers are the package's modules.  Each per-layer metric is named
``<module>.<function>.<stat>``; baseline.json records which end-to-end
metric on which workload each group of them should move.
"""
from __future__ import annotations

import numpy as np

from topicblocks.partition_counts import EXACT_LIMIT
from tracing import Spans

MODULES = ("cli", "corpus", "graph", "lda", "microcanonical", "partition_counts",
           "inference", "evaluation", "presets")

SETUP_ROOT = "setup"
PIPELINE_ROOT = "pipeline"


def _count_approx(counters, args, kwargs, result):
    # log_partitions(m, n, exact_limit=None) leaves the exact table when
    # m - n exceeds the limit
    m, n = args[0], args[1]
    limit = args[2] if len(args) > 2 else kwargs.get("exact_limit")
    limit = EXACT_LIMIT if limit is None else limit
    if m - n > limit:
        counters["log_partitions.approx"] = counters.get("log_partitions.approx", 0) + 1


def _count_sweep(counters, args, kwargs, result):
    for key in ("proposed", "accepted"):
        name = f"greedy_sweep.{key}"
        counters[name] = counters.get(name, 0) + result[key]


def _count_batch(counters, args, kwargs, result):
    counters["try_batch.accepted"] = counters.get("try_batch.accepted", 0) + bool(result[0])


ENTRY_POINTS = (
    ("cli.main", None),
    ("corpus.read_corpus_tsv", None),
    ("graph.from_counts", None),
    ("lda.sample_corpus", None),
    ("lda.sample_mixture_corpus", None),
    ("lda.LabeledCounts.from_dense", None),
    ("lda.lda_description_length", None),
    ("microcanonical.joint_logp", None),
    ("microcanonical.side_statistics", None),
    ("microcanonical.logp_degrees_given_mixtures", None),
    ("microcanonical.logp_hierarchy", None),
    ("partition_counts.log_partitions", _count_approx),
    ("inference.fit", None),
    ("inference.greedy_sweep", _count_sweep),
    ("inference.best_merge_pass", None),
    ("inference.split_pass", None),
    ("inference.MutableLabeledState.unit_move", None),
    ("inference.MutableLabeledState.relabel_half_edges", None),
    ("inference.MutableLabeledState.relabel_node", None),
    ("inference.MutableLabeledState.undo", None),
    ("inference.fit_doc_anchored", None),
    ("inference._try_batch", _count_batch),
    ("inference.score_doc_anchored", None),
    ("inference.refine_doc_clusters", None),
    ("inference.block_polish", None),
    ("inference.NonoverlappingAgglomerator.greedy_merge", None),
    ("inference.grow_hierarchy", None),
    ("evaluation.topic_mixtures", None),
    ("evaluation.simplex_mode_count", None),
    ("presets.score_four_models", None),
)

# (function, stats) measured inside the timed pipeline
PIPELINE_STATS = (
    ("inference.block_polish", ("total_s", "self_s", "accept_ratio")),
    ("inference.MutableLabeledState.relabel_node", ("calls", "mean_ms")),
    ("inference.MutableLabeledState.undo", ("calls", "total_s")),
    ("inference.fit_doc_anchored", ("total_s", "self_s")),
    ("inference.score_doc_anchored", ("calls", "mean_ms", "accept_ratio")),
    ("lda.LabeledCounts.from_dense", ("calls", "total_s")),
    ("inference.NonoverlappingAgglomerator.greedy_merge", ("calls", "total_s")),
    ("inference.refine_doc_clusters", ("self_s",)),
    ("inference.grow_hierarchy", ("calls", "total_s")),
    ("evaluation.simplex_mode_count", ("total_s",)),
    ("inference.best_merge_pass", ("calls", "total_s", "accept_ratio")),
    ("inference.MutableLabeledState.relabel_half_edges", ("calls", "mean_ms")),
    ("inference.greedy_sweep", ("total_s", "accept_ratio")),
    ("inference.MutableLabeledState.unit_move", ("calls", "mean_ms")),
    ("inference.split_pass", ("total_s",)),
    ("inference.fit", ("total_s",)),
    ("microcanonical.joint_logp", ("calls", "total_s", "self_s", "mean_ms")),
    ("microcanonical.side_statistics", ("total_s",)),
    ("microcanonical.logp_degrees_given_mixtures", ("calls", "total_s")),
    ("microcanonical.logp_hierarchy", ("calls", "total_s")),
    ("lda.lda_description_length", ("total_s",)),
    ("presets.score_four_models", ("total_s",)),
    ("partition_counts.log_partitions",
     ("calls", "total_s", "cache_hit_ratio", "approx_calls")),
    ("cli.main", ("total_s",)),
    ("corpus.read_corpus_tsv", ("total_s",)),
    ("graph.from_counts", ("total_s",)),
)

# (function, stats) measured during input generation
SETUP_STATS = (
    ("lda.sample_mixture_corpus", ("total_s",)),
    ("lda.sample_corpus", ("total_s",)),
)

UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "mean_ms": "ms",
         "accept_ratio": "ratio", "cache_hit_ratio": "ratio",
         "approx_calls": "count", "self_share": "ratio"}

TRACE_METRICS = (("trace.overhead_s", "s"), ("trace.overhead_ratio", "ratio"),
                 ("trace.spans", "count"))

def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for fn, stats in PIPELINE_STATS + SETUP_STATS:
        out += [(f"{fn}.{stat}", UNITS[stat]) for stat in stats]
    out += [(f"{module}.self_share", "ratio") for module in MODULES + (PIPELINE_ROOT,)]
    return out + list(TRACE_METRICS)


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def layer_metrics(spans: Spans) -> dict[str, float]:
    """Per-layer metrics of one traced operation (all but `TRACE_METRICS`)."""
    pipeline = spans.under(PIPELINE_ROOT)
    setup = spans.under(SETUP_ROOT)
    counters = spans.counters

    def calls(name, mask=pipeline, parent=None):
        return int(spans.select(name, mask, parent).sum())

    def accept_ratio(fn):
        if fn == "inference.block_polish":
            # every evaluated node move is undone; applied ones are not
            evaluated = calls("inference.MutableLabeledState.undo", parent=fn)
            moves = calls("inference.MutableLabeledState.relabel_node", parent=fn)
            return _ratio(moves - evaluated, evaluated)
        if fn == "inference.best_merge_pass":
            evaluated = calls("inference.MutableLabeledState.undo", parent=fn)
            merges = calls("inference.MutableLabeledState.relabel_half_edges", parent=fn)
            return _ratio(merges - evaluated, evaluated)
        if fn == "inference.greedy_sweep":
            return _ratio(counters.get("greedy_sweep.accepted", 0),
                          counters.get("greedy_sweep.proposed", 0))
        if fn == "inference.score_doc_anchored":
            return _ratio(counters.get("try_batch.accepted", 0),
                          calls(fn, parent="inference._try_batch"))
        raise KeyError(fn)

    out = {}
    for stats_list, mask in ((PIPELINE_STATS, pipeline), (SETUP_STATS, setup)):
        for fn, stats in stats_list:
            sel = spans.select(fn, mask)
            n = int(sel.sum())
            total = float(spans.duration[sel].sum())
            for stat in stats:
                if stat == "calls":
                    value = n
                elif stat == "total_s":
                    value = total
                elif stat == "self_s":
                    value = float(spans.self_time[sel].sum())
                elif stat == "mean_ms":
                    value = 1e3 * _ratio(total, n)
                elif stat == "accept_ratio":
                    value = accept_ratio(fn)
                elif stat == "cache_hit_ratio":
                    hits = counters.get("log_partitions.cache_hits", 0)
                    misses = counters.get("log_partitions.cache_misses", 0)
                    value = _ratio(hits, hits + misses)
                elif stat == "approx_calls":
                    value = int(counters.get("log_partitions.approx", 0))
                out[f"{fn}.{stat}"] = value

    root_time = float(spans.duration[spans.select(PIPELINE_ROOT)].sum())
    module_of = np.array([n.split(".")[0] for n in spans.names] or [""])
    span_module = module_of[spans.name] if len(spans.name) else module_of[:0]
    for module in MODULES + (PIPELINE_ROOT,):
        own = pipeline & (span_module == module)
        out[f"{module}.self_share"] = _ratio(spans.self_time[own].sum(), root_time)
    out["trace.spans"] = int(pipeline.sum())
    return out
