import sys
import types

import numpy as np
import pytest

import layers
from tracing import Spans, Tracer

LEAF = """
import time

def c():
    time.sleep(0.002)

def b():
    time.sleep(0.001)
    c()
    c()

class K:
    def m(self):
        b()

    @classmethod
    def make(cls):
        return cls()
"""

USER = """
from fakepkg.leaf import K, b

def a():
    b()
    K.make().m()
"""


@pytest.fixture
def fakepkg():
    names = ("fakepkg", "fakepkg.leaf", "fakepkg.user")
    pkg = types.ModuleType("fakepkg")
    pkg.__path__ = []
    sys.modules["fakepkg"] = pkg
    for name, source in (("fakepkg.leaf", LEAF), ("fakepkg.user", USER)):
        module = types.ModuleType(name)
        sys.modules[name] = module
        exec(source, module.__dict__)
    yield sys.modules["fakepkg.leaf"], sys.modules["fakepkg.user"]
    for name in names:
        sys.modules.pop(name, None)


def test_known_call_tree(fakepkg, tmp_path):
    leaf, user = fakepkg
    original_b = leaf.b
    tracer = Tracer()
    tracer.install("fakepkg", [(q, None) for q in
                               ("user.a", "leaf.b", "leaf.c", "leaf.K.m",
                                "leaf.K.make", "leaf.absent")])
    # user.b is a copy of leaf.b made at import; both bindings are wrapped
    assert user.b is leaf.b and user.b is not original_b
    with tracer.span("pipeline"):
        user.a()
    tracer.uninstall()
    assert leaf.b is original_b and user.b is original_b
    assert tracer.missing == ["leaf.absent"]

    path = str(tmp_path / "spans.npz")
    tracer.save(path)
    spans = Spans.load(path)
    names = [spans.names[i] for i in spans.name]
    parents = [names[p] if p >= 0 else None for p in spans.parent]
    assert list(zip(names, parents)) == [
        ("pipeline", None), ("user.a", "pipeline"),
        ("leaf.b", "user.a"), ("leaf.c", "leaf.b"), ("leaf.c", "leaf.b"),
        ("leaf.K.make", "user.a"), ("leaf.K.m", "user.a"),
        ("leaf.b", "leaf.K.m"), ("leaf.c", "leaf.b"), ("leaf.c", "leaf.b"),
    ]
    assert np.all(spans.self_time >= 0)
    assert spans.self_time.sum() == pytest.approx(spans.duration[0], abs=1e-9)
    c_spans = spans.select("leaf.c")
    assert c_spans.sum() == 4
    assert np.all(spans.self_time[c_spans] >= 0.002)
    assert spans.select("leaf.c", parent="leaf.b").sum() == 4
    assert spans.under("pipeline").all()


def test_layer_metrics_on_the_package(tmp_path):
    from topicblocks import lda, presets

    V, K = 50, 3
    hyper = lda.make_hyper(1.0, 1.0, np.full(K, 1.0 / K), np.full(V, 1.0 / V))
    tracer = Tracer()
    try:
        with tracer.span("setup"):
            tracer.install("topicblocks", layers.ENTRY_POINTS)
            sample = lda.sample_corpus(K, 20, V, 30, hyper, seed=1)
        with tracer.span("pipeline"):
            presets.score_four_models(sample)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    path = str(tmp_path / "spans.npz")
    tracer.save(path)
    metrics = layers.layer_metrics(Spans.load(path))
    expected = {name for name, _ in layers.metric_names()}
    assert expected - set(metrics) == {"trace.overhead_s", "trace.overhead_ratio"}
    assert metrics["lda.sample_corpus.total_s"] > 0
    assert metrics["microcanonical.joint_logp.calls"] == 2
    # log_partitions is reached through microcanonical's own binding
    assert metrics["partition_counts.log_partitions.calls"] > 0
    shares = [metrics[f"{m}.self_share"] for m in layers.MODULES + ("pipeline",)]
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)
