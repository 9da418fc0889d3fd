import contextlib
import io
import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from hypothesis.extra.numpy import arrays

from topicblocks import inference, presets
from topicblocks.cli import _load_corpus_dir
from topicblocks.cli import main as cli_main
from topicblocks.evaluation import adjusted_rand_index
from topicblocks.graph import (
    BipartiteMultigraph,
    LabeledGraph,
    from_counts,
    state_from_label_arrays,
)
from topicblocks.inference import (
    InferenceConfig,
    NonoverlappingAgglomerator,
    _gibbs_anneal_anchored,
    block_mh_sweep,
    block_polish,
    fit,
    fit_doc_anchored,
    fixed_label_score,
    grow_hierarchy,
    labels_to_state,
    mh_sweep,
    refine_doc_clusters,
    score_doc_anchored,
)
from topicblocks.lda import (
    LabeledCounts,
    make_hyper,
    noninformative_hyper,
    sample_corpus,
    sample_mixture_corpus,
)
from topicblocks import microcanonical
from topicblocks.microcanonical import (
    CountTables,
    Hierarchy,
    hierarchy_group_sides,
    joint_logp,
    logp_hierarchy,
    score_tables,
)
from topicblocks.partition_counts import log_partitions
from topicblocks.util import IntegrityError, log_factorial


class TestConfig:
    @pytest.mark.parametrize("field, value", [("mode", "gredy"),
                                              ("doc_clustering", "bogus")])
    def test_unknown_mode_rejected(self, field, value):
        with pytest.raises(ValueError, match=value):
            InferenceConfig(**{field: value})

    def test_negative_level_cap_rejected(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="max_levels must be at least 0, not -1"):
            InferenceConfig(max_levels=-1)
        corpus = str(tmp_path / "corpus")
        cli_main(["synth", "--K", "2", "--D", "6", "--V", "8", "--m", "5", "--out", corpus])
        capsys.readouterr()
        assert cli_main(["fit", "--corpus", corpus, "--max-levels", "-1",
                         "--out", str(tmp_path / "model")]) == 2
        assert "max_levels must be at least 0, not -1" in capsys.readouterr().err
        assert not (tmp_path / "model").exists()


TEMPERED_PER_DOC_GROUP = "tempers clustered fits only; per-doc-group fits are greedy"


class TestOverlapCap:
    def test_per_doc_group_start_above_the_cap_rejected(self, tmp_path, capsys):
        messages = {"greedy": "a per-doc-group fit spreads word half-edges over 3 groups, "
                              "more than the overlap cap 2",
                    "anneal": f"mode 'anneal' {TEMPERED_PER_DOC_GROUP}",
                    "mcmc": f"mode 'mcmc' {TEMPERED_PER_DOC_GROUP}"}
        for mode, message in messages.items():
            with pytest.raises(ValueError, match=re.escape(message)):
                InferenceConfig(mode=mode, doc_clustering="per-doc-group",
                                n_word_groups=3, overlap=2)
        corpus = str(tmp_path / "corpus")
        cli_main(["synth", "--K", "2", "--D", "6", "--V", "8", "--m", "5",
                  "--out", corpus])
        capsys.readouterr()
        for mode, message in messages.items():
            assert cli_main(["fit", "--corpus", corpus, "--mode", mode,
                             "--doc-clustering", "per-doc-group", "--K", "3",
                             "--overlap", "2", "--out", str(tmp_path / mode)]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not (tmp_path / mode).exists()

    def test_fit_with_overlap_one_is_nonoverlapping(self):
        graph = planted_biclique_graph()
        cfg = InferenceConfig(mode="greedy", doc_clustering="clustered",
                              overlap=1, seed=3, n_restarts=2, n_sweeps=30)
        result = fit(graph, cfg)
        st = result.state
        groups = {}
        for i, j, r, s in zip(st.i, st.j, st.r, st.s):
            groups.setdefault(int(i), set()).add(int(r))
            groups.setdefault(int(j), set()).add(int(s))
        assert all(len(g) == 1 for g in groups.values())
        oracle = joint_logp(st, result.hierarchy, max_overlap=1).sigma_nats
        assert result.sigma == pytest.approx(oracle, abs=1e-9)


def side_groups(state, side):
    return [g for g, s in enumerate(state.group_side) if s == side]


@hst.composite
def labeled_states(draw):
    """A small overlapping bipartite labeled state: every unit of a count
    matrix gets its own (document group, word group) pair."""
    n_docs, n_words = draw(hst.integers(1, 3)), draw(hst.integers(1, 3))
    n_dg, n_wg = draw(hst.integers(1, 3)), draw(hst.integers(1, 3))
    counts = draw(arrays(np.int64, (n_docs, n_words), elements=hst.integers(0, 2)))
    counts[0, 0] = max(counts[0, 0], 1)
    bundles = Counter()
    for d, w in zip(*np.nonzero(counts)):
        for _ in range(counts[d, w]):
            bundles[(int(d), int(w), draw(hst.integers(0, n_dg - 1)),
                     n_dg + draw(hst.integers(0, n_wg - 1)))] += 1
    d, w, rd, rw = np.array(sorted(bundles)).T
    return state_from_label_arrays(n_docs, n_words, d, w, rd, rw,
                                   [bundles[k] for k in sorted(bundles)],
                                   n_dg + n_wg, [0] * n_dg + [1] * n_wg)


def planted_biclique_graph(mult=3):
    d_idx, w_idx, cnt = [], [], []
    for d in range(4):
        for w in range(4):
            d_idx.append(d); w_idx.append(w); cnt.append(mult)
    for d in range(4, 8):
        for w in range(4, 8):
            d_idx.append(d); w_idx.append(w); cnt.append(mult)
    return BipartiteMultigraph(8, 8, d_idx, w_idx, cnt)


class TestGreedyFit:
    @given(labeled_states(), hst.sampled_from([0.0, 1.0, 10.0]), hst.booleans(),
           hst.integers(0, 2**32 - 1))
    def test_zero_temperature_rejects_uphill(self, state, temperature, every_group, seed):
        """An `mh_sweep` keeps the graph, labels half-edges only from the
        given label sets (each side's occupied groups by default), proposes
        one move per edge, and at zero temperature never raises sigma."""
        n_docs = int((state.side == 0).sum())
        graph = BipartiteMultigraph(n_docs, state.n_nodes - n_docs, state.i,
                                    state.j - n_docs, state.m).coalesced()
        if every_group:
            doc_labels, word_labels = side_groups(state, 0), side_groups(state, 1)
            out, stats = mh_sweep(state, np.random.default_rng(seed), temperature,
                                  doc_labels, word_labels)
        else:
            doc_labels, word_labels = set(state.r.tolist()), set(state.s.tolist())
            out, stats = mh_sweep(state, np.random.default_rng(seed), temperature)
        out.check_against(graph)
        assert set(out.r.tolist()) <= set(doc_labels)
        assert set(out.s.tolist()) <= set(word_labels)
        assert 0 <= stats["accepted"] <= stats["proposed"] == state.n_edges
        if temperature == 0.0:
            assert joint_logp(out).sigma_nats <= joint_logp(state).sigma_nats

    def test_side_violation_rejected(self):
        state = state_from_label_arrays(2, 2, [0, 1], [0, 1], [0, 1], [2, 3], [2, 1], 4,
                                        [0, 0, 1, 1])
        with pytest.raises(IntegrityError, match="side"):
            mh_sweep(state, np.random.default_rng(10), doc_labels=[0, 2])

    @given(labeled_states(), hst.sampled_from([0.0, 1.0, 10.0]), hst.integers(0, 2**32 - 1))
    def test_chain_carries_sigma(self, state, temperature, seed):
        """Each sweep reports the sigma of the state it ends at; a chain that
        passes it to the next sweep draws and moves exactly as one whose
        sweeps score their start states themselves."""
        labels = side_groups(state, 0), side_groups(state, 1)
        rescored, carried = state, state
        rng_rescored, rng_carried = (np.random.default_rng(seed) for _ in range(2))
        sigma = None
        for _ in range(3):
            rescored, _ = mh_sweep(rescored, rng_rescored, temperature, *labels)
            carried, stats = mh_sweep(carried, rng_carried, temperature, *labels, sigma=sigma)
            sigma = stats["sigma"]
            assert sigma == joint_logp(carried).sigma_nats
        for name in ("i", "j", "r", "s", "m"):
            assert np.array_equal(getattr(rescored, name), getattr(carried, name))
        assert rng_rescored.random() == rng_carried.random()

    def test_planted_bicliques_recovered(self):
        graph = planted_biclique_graph()
        cfg = InferenceConfig(mode="greedy", doc_clustering="clustered",
                              seed=3, n_restarts=3, n_sweeps=30)
        result = fit(graph, cfg)
        # dominant group per node
        groups = {}
        for i, j, r, s in zip(result.state.i, result.state.j,
                              result.state.r, result.state.s):
            groups.setdefault(int(i), []).append(int(r))
            groups.setdefault(int(j), []).append(int(s))
        doc_labels = [max(set(groups[d]), key=groups[d].count) for d in range(8)]
        word_labels = [max(set(groups[8 + w]), key=groups[8 + w].count)
                       for w in range(8)]
        truth = [0, 0, 0, 0, 1, 1, 1, 1]
        assert adjusted_rand_index(doc_labels, truth) == 1.0
        assert adjusted_rand_index(word_labels, truth) == 1.0

    def test_trace_nonincreasing(self):
        graph = planted_biclique_graph()
        cfg = InferenceConfig(mode="greedy", doc_clustering="clustered",
                              seed=5, n_restarts=2, n_sweeps=20)
        result = fit(graph, cfg)
        trace = result.sigma_trace
        assert all(a >= b - 1e-6 for a, b in zip(trace, trace[1:]))

    def test_fit_deterministic(self):
        graph = planted_biclique_graph()
        cfg = InferenceConfig(mode="greedy", doc_clustering="clustered",
                              seed=11, n_restarts=2, n_sweeps=15)
        a = fit(graph, cfg)
        b = fit(graph, cfg)
        assert a.sigma == b.sigma
        assert np.array_equal(a.state.r, b.state.r)

    def test_anneal_mode_runs(self):
        graph = planted_biclique_graph(mult=2)
        cfg = InferenceConfig(mode="anneal", doc_clustering="clustered",
                              seed=2, n_restarts=1, n_sweeps=10)
        result = fit(graph, cfg)
        assert np.isfinite(result.sigma)

    def test_stops_at_first_round_without_a_move(self):
        graph = planted_biclique_graph()
        cfg = InferenceConfig(mode="greedy", doc_clustering="clustered",
                              seed=0, n_restarts=2, n_sweeps=200)
        result = fit(graph, cfg)
        assert result.converged
        assert len(result.sigma_trace) <= 4

    def test_clustered_start_leaves_isolated_nodes_out(self):
        # document 2 and word 2 have no edges
        graph = BipartiteMultigraph(3, 3, [0, 0, 1], [0, 1, 1], [2, 1, 3])
        for mode in ("greedy", "anneal", "mcmc"):
            result = fit(graph, InferenceConfig(mode=mode, n_restarts=2, n_sweeps=10))
            st = result.state
            assert set(st.i.tolist()) == {0, 1} and set((st.j - 3).tolist()) == {0, 1}
            assert abs(joint_logp(st, result.hierarchy).sigma_nats - result.sigma) < 1e-9
        ag = NonoverlappingAgglomerator(dense_counts(graph), np.arange(3), np.arange(3))
        rng = np.random.default_rng(0)
        for _ in range(50):
            block_mh_sweep(ag, rng, temperature=10.0)
        assert ag.doc_assign[2] == -1 and ag.word_assign[2] == -1
        assert sum(t["n"] for side in (0, 1) for t in ag.tables[side].values()) == 4

    def test_empty_graph_trivial_model(self):
        for n_words in (2, 0):
            graph = BipartiteMultigraph(2, n_words, [], [], [])
            for mode, doc_clustering in itertools.product(
                    ("greedy", "anneal", "mcmc"), ("clustered", "per-doc-group")):
                common = dict(mode=mode, doc_clustering=doc_clustering, seed=0,
                              n_restarts=1, n_sweeps=2)
                if doc_clustering == "per-doc-group" and mode != "greedy":
                    with pytest.raises(ValueError, match=TEMPERED_PER_DOC_GROUP):
                        InferenceConfig(**common)
                    continue
                assert fit(graph, InferenceConfig(**common)).sigma == 0.0


@pytest.fixture(scope="module")
def synth_graphs(tmp_path_factory):
    """The corpora of `synth --K 2 --D 20 --V 30 --m 20 --alpha 0.05 --beta
    0.05 --p-w uniform`, by synth seed 21 and 22."""
    graphs = {}
    for seed in (21, 22):
        out = str(tmp_path_factory.mktemp(f"synth{seed}"))
        with contextlib.redirect_stdout(io.StringIO()):
            cli_main(["synth", "--K", "2", "--D", "20", "--V", "30", "--m", "20",
                      "--alpha", "0.05", "--beta", "0.05", "--p-w", "uniform",
                      "--seed", str(seed), "--out", out])
        graphs[seed] = from_counts(_load_corpus_dir(out))
    return graphs


def dense_counts(graph):
    counts = np.zeros((graph.n_docs, graph.n_words), dtype=np.int64)
    np.add.at(counts, (graph.doc_idx, graph.word_idx), graph.counts)
    return counts


def merged_agglomerator(graph):
    """The agglomerator after greedy merges of the node singletons."""
    ag = NonoverlappingAgglomerator(dense_counts(graph), np.arange(graph.n_docs),
                                    np.arange(graph.n_words))
    ag.greedy_merge()
    return ag


def polish_sweeps_to_converge(graph):
    """Node-move sweeps after the merges that move some node."""
    ag = merged_agglomerator(graph)
    n = 0
    while block_polish(ag, max_sweeps=1) < 0.0:
        n += 1
    return n


class TestBlockSearch:
    def test_greedy_fit_is_a_node_move_fixed_point(self, synth_graphs):
        graph = synth_graphs[21]
        result = fit(graph, InferenceConfig(mode="greedy", seed=0, n_restarts=2,
                                            n_sweeps=10, max_levels=5))
        st, D = result.state, graph.n_docs
        n_doc_groups = int((st.group_side == 0).sum())
        doc, word = np.full(D, -1), np.full(graph.n_words, -1)
        doc[st.i], word[st.j - D] = st.r, st.s - n_doc_groups
        ag = NonoverlappingAgglomerator(dense_counts(graph), doc, word)
        assert block_polish(ag, max_sweeps=10) == 0.0

    @pytest.mark.parametrize("mode", ["anneal", "mcmc"])
    def test_tempered_search_refuses_a_doc_start(self, synth_graphs, mode):
        """A coarse start may fill every document group id, which leaves a
        new-group proposal no id to take."""
        graph = synth_graphs[21]
        with pytest.raises(ValueError, match="node singletons only"):
            inference.block_search(graph, InferenceConfig(mode=mode), np.random.default_rng(0),
                                   doc_start=np.zeros(graph.n_docs, dtype=np.int64))

    def test_anneal_reaches_the_greedy_state(self, synth_graphs):
        for mode in ("anneal", "mcmc"):
            result = fit(synth_graphs[22], InferenceConfig(mode=mode, seed=0, n_restarts=2,
                                                           n_sweeps=10, max_levels=5))
            assert result.sigma <= 321.0351123879486 + 1e-9

    @staticmethod
    def uniform_base_graph(seed):
        K, D, V = 2, 30, 40
        labels = sample_corpus(K, D, V, 20, make_hyper(0.1, 0.1, np.full(K, 1 / K),
                                                       np.full(V, 1 / V)), seed=seed).labels
        return BipartiteMultigraph(D, V, labels.d, labels.w, labels.counts)

    @pytest.mark.parametrize("mode", ["greedy", "anneal"])
    def test_running_trace_does_not_drift(self, mode):
        """The trace's exact start plus the summed deltas of every later
        sweep ends within 1e-8 of `joint_logp` of the state the search
        returns.  On this corpus the tempered phase accepts moves and ends
        lower, so its state is kept."""
        graph = self.uniform_base_graph(2)
        greedy = inference.block_search(graph, InferenceConfig(n_sweeps=10))[1]
        state, trace, _, stats = inference.block_search(
            graph, InferenceConfig(mode=mode, n_sweeps=10), np.random.default_rng(0))
        assert trace[:len(greedy)] == greedy and stats.get("accepted", 1) > 0
        assert abs(trace[-1] - joint_logp(state).sigma_nats) < 1e-8

    @pytest.mark.parametrize("mode", ["anneal", "mcmc"])
    @pytest.mark.parametrize("n_sweeps, rng_seed", [(10, 0), (1, 1)])
    def test_trace_ends_on_the_kept_greedy_state(self, mode, n_sweeps, rng_seed):
        """When the tempered phase ends no lower, the greedy state is kept:
        the trace then ends on its sigma again, and `converged` is the
        greedy phase's.  Here the tempered phase ends 0.86 nats higher (at
        10 sweeps; the trace used to end there, at 602.1606, while the state
        returned scores 601.3010), or at one sweep equal, with its one
        polish sweep moving nothing where the greedy one moved nodes."""
        graph = self.uniform_base_graph(1)
        _, greedy, greedy_converged, _ = inference.block_search(
            graph, InferenceConfig(n_sweeps=n_sweeps))
        state, trace, converged, _ = inference.block_search(
            graph, InferenceConfig(mode=mode, n_sweeps=n_sweeps),
            np.random.default_rng(rng_seed))
        assert trace[:len(greedy)] == greedy and trace[-1] == greedy[-1]
        assert trace[-2] > trace[-1] + 0.8 if n_sweeps == 10 else trace[-2] == trace[-1]
        assert abs(trace[-1] - joint_logp(state).sigma_nats) < 1e-9
        assert converged == greedy_converged == (n_sweeps == 10)

    def test_trace_is_merges_then_one_entry_per_sweep(self, synth_graphs):
        graph = synth_graphs[21]
        cfg = InferenceConfig(mode="greedy", seed=0, n_restarts=1, n_sweeps=10)
        result = fit(graph, cfg)
        counts, ag = dense_counts(graph), merged_agglomerator(graph)
        expected = [materialized_sigma(counts, ag)]
        while len(expected) <= cfg.n_sweeps:
            moved = block_polish(ag, max_sweeps=1) < 0.0
            expected.append(materialized_sigma(counts, ag))
            if not moved:
                break
        trace = result.sigma_trace
        assert trace[0] == expected[0]
        assert len(trace) == len(expected) + 1
        assert np.allclose(trace[:-1], expected, rtol=0.0, atol=1e-8)
        assert trace[-1] == result.sigma
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
        assert result.acceptance == {}

    def test_not_converged_only_when_the_last_allowed_sweep_moved(self, synth_graphs):
        graph = synth_graphs[21]
        n_moving = polish_sweeps_to_converge(graph)
        assert n_moving >= 1
        for n_sweeps, converged in ((n_moving, False), (n_moving + 1, True), (200, True)):
            cfg = InferenceConfig(mode="greedy", seed=0, n_restarts=1, n_sweeps=n_sweeps)
            result = fit(graph, cfg)
            assert result.converged == converged
            assert len(result.sigma_trace) == n_moving + 2 + converged

    @pytest.mark.parametrize("mode", ["anneal", "mcmc"])
    def test_tempered_trace_and_counts(self, synth_graphs, mode):
        """A tempered search's trace is the greedy search's, then one entry
        per MH sweep and per final polish sweep, then, as the tempered phase
        ends no lower here, the kept greedy sigma; it counts one proposal per
        node with edges and sweep, and never ends above the greedy sigma."""
        graph = synth_graphs[21]
        greedy = fit(graph, InferenceConfig(mode="greedy", n_sweeps=10))
        result = fit(graph, InferenceConfig(mode=mode, seed=3, n_restarts=1, n_sweeps=10))
        n_greedy = len(greedy.sigma_trace) - 1
        assert result.sigma_trace[:n_greedy] == greedy.sigma_trace[:-1]
        assert result.sigma_trace[-2] == greedy.sigma_trace[-2]
        n_final = len(result.sigma_trace) - 2 - n_greedy - 10
        assert 1 <= n_final <= 10
        # a polish sweep without a move adds exactly 0.0
        assert result.sigma_trace[-3] == result.sigma_trace[-4]
        assert result.converged == greedy.converged
        n_nodes = len(np.unique(graph.doc_idx)) + len(np.unique(graph.word_idx))
        assert result.acceptance["proposed"] == 10 * n_nodes
        assert 0 <= result.acceptance["accepted"] <= result.acceptance["proposed"]
        assert result.sigma <= greedy.sigma + 1e-9
        assert abs(joint_logp(result.state, result.hierarchy).sigma_nats - result.sigma) < 1e-9


def fit_outcome(result):
    st = result.state
    return (result.sigma, result.sigma_trace, result.converged, result.seed,
            result.acceptance, [a.tolist() for a in result.hierarchy.assignments],
            [a.tolist() for a in (st.i, st.j, st.r, st.s, st.m, st.group_side)])


class TestRestarts:
    def test_greedy_clustered_fit_runs_one_restart(self, monkeypatch):
        graph = planted_biclique_graph()
        one = fit(graph, InferenceConfig(mode="greedy", seed=4, n_restarts=1, n_sweeps=10))
        calls = []
        real = inference._fit_one_restart

        def counted(*args):
            calls.append(args[2])
            return real(*args)
        monkeypatch.setattr(inference, "_fit_one_restart", counted)
        three = fit(graph, InferenceConfig(mode="greedy", seed=4, n_restarts=3, n_sweeps=10))
        assert calls == [0]
        assert fit_outcome(three) == fit_outcome(one)

    def test_worker_processes_match_the_serial_path(self, monkeypatch):
        configs = (InferenceConfig(mode="anneal", seed=3, n_restarts=2, n_sweeps=5),
                   InferenceConfig(mode="mcmc", seed=3, n_restarts=2, n_sweeps=5),
                   InferenceConfig(doc_clustering="per-doc-group", n_word_groups=2,
                                   seed=3, n_restarts=3, n_sweeps=20))
        graph = planted_biclique_graph(mult=2)
        for cfg in configs:
            monkeypatch.delenv("TOPICBLOCKS_THREADS", raising=False)
            serial = fit(graph, cfg)
            monkeypatch.setenv("TOPICBLOCKS_THREADS", "2")
            assert fit_outcome(fit(graph, cfg)) == fit_outcome(serial)


def dense_labels(result, graph, n_topics):
    """(D, V, K) word labels of a per-doc-group fit; the compacted word groups
    are the occupied topics in increasing order."""
    st, z = result.state, np.zeros((graph.n_docs, graph.n_words, n_topics), np.int64)
    word_groups = np.flatnonzero(st.group_side == 1)
    np.add.at(z, (st.i, st.j - graph.n_docs, np.searchsorted(word_groups, st.s)), st.m)
    return z


class TestPerDocGroupFit:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("corpus", [21, 22])
    def test_greedy_fit_is_the_anchored_fitter(self, synth_graphs, corpus, seed):
        graph = synth_graphs[corpus]
        cfg = InferenceConfig(doc_clustering="per-doc-group", n_word_groups=2,
                              n_restarts=3, n_sweeps=60, max_levels=0, seed=seed)
        result = fit(graph, cfg)
        z, sigma, trace = fit_doc_anchored(dense_counts(graph), 2, seed=seed, n_restarts=3)
        topics = np.flatnonzero(z.sum(axis=(0, 1)))
        assert np.array_equal(dense_labels(result, graph, len(topics)), z[:, :, topics])
        assert abs(result.sigma - sigma) < 1e-9
        assert result.sigma_trace[:-1] == trace
        assert result.acceptance == {}

    def test_repeated_pairs_fit_like_the_coalesced_graph(self, synth_graphs):
        graph = synth_graphs[22]
        rng = np.random.default_rng(0)
        part = rng.integers(0, graph.counts + 1)
        # each pair split into two entries, plus an empty one, in shuffled order
        d = np.concatenate([graph.doc_idx, graph.doc_idx, [0]])
        w = np.concatenate([graph.word_idx, graph.word_idx, [0]])
        c = np.concatenate([part, graph.counts - part, [0]])
        order = rng.permutation(len(c))
        split = BipartiteMultigraph(graph.n_docs, graph.n_words, d[order], w[order], c[order])
        cfg = InferenceConfig(doc_clustering="per-doc-group", n_word_groups=3,
                              n_restarts=2, n_sweeps=30, seed=4)
        assert fit_outcome(fit(split, cfg)) == fit_outcome(fit(graph, cfg))


    def test_descent_is_scored_under_the_overlap_cap(self, synth_graphs):
        """The cap shifts sigma by terms the descent's choices do not depend
        on here, so the labels agree, and the descent ends at the flat score
        that the fit reports under the same cap."""
        results = [fit(synth_graphs[22], InferenceConfig(
            doc_clustering="per-doc-group", n_word_groups=2, n_restarts=1, overlap=cap,
            max_levels=1)) for cap in (None, 2, 5)]
        for result in results:
            assert np.array_equal(result.state.s, results[0].state.s)
            assert np.array_equal(result.state.m, results[0].state.m)
            assert abs(result.sigma_trace[-1] - result.sigma_trace[-2]) < 1e-9
        assert results[1].sigma < results[2].sigma < results[0].sigma


class TestTemperedFits:
    @pytest.mark.parametrize("mode", ["greedy", "anneal", "mcmc"])
    def test_per_doc_group_fit_keeps_docs_pinned(self, mode):
        """Per-doc-group fits are greedy: anneal and mcmc refuse them."""
        cfg = dict(mode=mode, doc_clustering="per-doc-group", n_word_groups=2,
                   seed=1, n_restarts=1, n_sweeps=10)
        if mode != "greedy":
            with pytest.raises(ValueError, match=f"mode '{mode}' {TEMPERED_PER_DOC_GROUP}"):
                InferenceConfig(**cfg)
            return
        st = fit(planted_biclique_graph(mult=2), InferenceConfig(**cfg)).state
        doc_groups = np.flatnonzero(st.group_side == 0)
        # groups are compacted in id order, so document d keeps the d-th one
        assert np.array_equal(st.r, doc_groups[st.i])


class TestMHChain:
    def test_stationary_distribution_via_transition_matrix(self):
        """One-move transition kernel has the labeled-state posterior as its
        stationary distribution (detailed balance holds exactly)."""
        edges = [(0, 0), (1, 1)]
        pairs = [(0, 2), (0, 3), (1, 2), (1, 3)]
        states = list(itertools.product(range(4), repeat=2))

        def sigma_of(assign):
            rd = [pairs[i][0] for i in assign]
            rw = [pairs[i][1] for i in assign]
            st = state_from_label_arrays(
                2, 2, [e[0] for e in edges], [e[1] for e in edges],
                rd, rw, [1, 1], 4, np.array([0, 0, 1, 1]))
            return joint_logp(st).sigma_nats

        sig = {s: sigma_of(s) for s in states}
        logw = np.array([-sig[s] for s in states])
        target = np.exp(logw - logw.max())
        target /= target.sum()
        n = len(states)
        T = np.zeros((n, n))
        for a_i, s in enumerate(states):
            for edge_i in range(2):
                for tgt in range(4):
                    s2 = list(s)
                    s2[edge_i] = tgt
                    s2 = tuple(s2)
                    b_i = states.index(s2)
                    q = 0.5 * 0.25
                    if s2 == s:
                        T[a_i, a_i] += q
                        continue
                    ratio = math.exp(-(sig[s2] - sig[s]))
                    acc = 0.5 if ratio == 1.0 else min(1.0, ratio)
                    T[a_i, b_i] += q * acc
                    T[a_i, a_i] += q * (1 - acc)
        flow = target[:, None] * T
        assert np.abs(flow - flow.T).max() < 1e-15
        stationary = np.real(np.linalg.matrix_power(T, 4096)[0])
        assert np.abs(stationary - target).max() < 1e-10


class TestFixedLabelScore:
    def test_k1_doc_clustering_two_groups(self):
        labels = LabeledCounts(3, 2, 1, [0, 1, 2], [0, 1, 0], [0, 0, 0], [2, 1, 1])
        st = labels_to_state(labels, "doc-clustering")
        assert st.n_groups == 2
        score = fixed_label_score(labels, "doc-clustering")
        assert np.isfinite(score.sigma_nats)

    def test_per_doc_group_counts(self):
        h = noninformative_hyper(3, 10)
        s = sample_corpus(3, 5, 10, 12, h, seed=0)
        st = labels_to_state(s.labels, "per-doc-group")
        assert st.n_groups == 5 + 3

    def test_deterministic(self):
        h = noninformative_hyper(2, 8)
        s = sample_corpus(2, 6, 8, 10, h, seed=1)
        a = fixed_label_score(s, "per-doc-group").sigma_nats
        b = fixed_label_score(s, "per-doc-group").sigma_nats
        assert a == b

    def test_unknown_variant_rejected(self):
        h = noninformative_hyper(2, 8)
        s = sample_corpus(2, 4, 8, 6, h, seed=3)
        with pytest.raises(ValueError):
            fixed_label_score(s, "nested-variant")

    @pytest.mark.parametrize("variant", ["per-doc-group", "doc-clustering"])
    @pytest.mark.parametrize("column, value, message", [
        ("counts", 0, "bundle multiplicities must be positive"),
        ("d", -1, "a label's document lies outside 0..1"),
        ("d", 2, "a label's document lies outside 0..1"),
        ("r", -1, "a label's topic -1 lies outside 0..1"),
        ("r", 2, "a label's topic 2 lies outside 0..1"),
    ])
    def test_bad_labels_rejected(self, variant, column, value, message):
        """Both fixed-label paths refuse a zero multiplicity, a document
        outside 0..D-1 and a topic outside 0..K-1, naming the topic."""
        cols = dict(d=[0, 1, 1], w=[0, 2, 1], r=[0, 1, 1], counts=[1, 2, 1])
        cols[column][1] = value
        labels = LabeledCounts(2, 3, 2, cols["d"], cols["w"], cols["r"], cols["counts"])
        for score in (fixed_label_score, labels_to_state):
            with pytest.raises(IntegrityError) as err:
                score(labels, variant)
            assert str(err.value) == message


class TestAnchoredFitter:
    def test_trace_monotone_and_reaches_truth_quality(self):
        h = noninformative_hyper(2, 12)
        s = sample_corpus(2, 40, 12, 30, h, seed=4)
        dense = np.zeros((40, 12), dtype=np.int64)
        np.add.at(dense, (s.labels.d, s.labels.w), s.labels.counts)
        z, sigma, trace = fit_doc_anchored(dense, 2, seed=0, n_restarts=2,
                                           gibbs_sweeps=10)
        assert all(a >= b - 1e-9 for a, b in zip(trace, trace[1:]))
        assert abs(fixed_label_score(LabeledCounts.from_dense(z), "per-doc-group")
                   .sigma_nats - sigma) < 1e-9
        truth = fixed_label_score(s, "per-doc-group").sigma_nats
        assert sigma <= truth + 0.01 * abs(truth)

    def test_row_score_matches_the_dense_score(self):
        """The row score keeps unobserved words as nodes without edges; the
        dense score drops them.  Both agree bit for bit, capped or not."""
        for seed, unobserved in itertools.product(range(4), (0, 3, 6)):
            rng = np.random.default_rng(seed)
            K = 2 + seed % 3
            z = rng.integers(0, 3, size=(6, 9, K)) * (rng.random((6, 9, 1)) < 0.6)
            z[:, rng.permutation(9)[:unobserved]] = 0
            counts = z.sum(axis=2)
            d_idx, w_idx = np.nonzero(counts)
            bundles = BipartiteMultigraph(6, 9, d_idx, w_idx, counts[d_idx, w_idx])
            labels = LabeledCounts.from_dense(z)
            for cap in (None, K):
                dense = (fixed_label_score(labels, "per-doc-group") if cap is None else
                         joint_logp(labels_to_state(labels, "per-doc-group"), max_overlap=cap))
                rows = score_doc_anchored(z[d_idx, w_idx], bundles, max_overlap=cap)
                assert (rows.sigma_nats, rows.breakdown) == (dense.sigma_nats, dense.breakdown)

    def test_corpus_without_tokens(self):
        z, sigma, trace = fit_doc_anchored(np.zeros((2, 3), dtype=np.int64), 2)
        assert z.shape == (2, 3, 2) and not z.any()
        assert sigma == 0.0 and trace == [0.0]

    @pytest.mark.parametrize("kwargs, message", [
        (dict(n_topics=0), "n_topics must be at least 1, not 0"),
        (dict(n_topics=2, n_restarts=0), "n_restarts must be at least 1, not 0"),
    ])
    def test_out_of_range_arguments_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            fit_doc_anchored(np.ones((2, 3), dtype=np.int64), **kwargs)

    def test_label_totals_preserved(self):
        rng = np.random.default_rng(5)
        dense = rng.integers(0, 4, size=(10, 6))
        z, _, _ = fit_doc_anchored(dense, 3, seed=1, n_restarts=1, gibbs_sweeps=5)
        assert np.array_equal(z.sum(axis=2), dense)

    def test_batches_skip_only_repeated_rescores(self, monkeypatch):
        """A batch fraction that moves the bundles just rejected is rejected
        unscored: the fit, its trace and every accept decision are those of
        rescoring it, with fewer anchored scores."""
        sample = sample_mixture_corpus(np.asarray(presets.BIMODAL_ALPHA_VECTORS), 40, 30, 60,
                                       np.full(30, 0.01), seed=2)
        dense = np.zeros((40, 30), dtype=np.int64)
        np.add.at(dense, (sample.labels.d, sample.labels.w), sample.labels.counts)
        score, runs = inference.score_doc_anchored, []
        for try_batch in (inference._try_batch, try_batch_reference):
            scored, decisions = [], []

            def counting(*args, **kwargs):
                scored.append(1)
                return score(*args, **kwargs)

            def deciding(*args, **kwargs):
                decisions.append(try_batch(*args, **kwargs))
                return decisions[-1]

            monkeypatch.setattr(inference, "score_doc_anchored", counting)
            monkeypatch.setattr(inference, "_try_batch", deciding)
            z, sigma, trace = fit_doc_anchored(dense, 3, seed=1, n_restarts=2, gibbs_sweeps=4)
            runs.append((z, sigma, trace, decisions, len(scored)))
        (z, sigma, trace, decisions, n_scored), (z_ref, sigma_ref, trace_ref, decisions_ref,
                                                 n_ref) = runs
        assert np.array_equal(z, z_ref) and sigma == sigma_ref and trace == trace_ref
        assert decisions == decisions_ref
        assert n_scored < n_ref

    def test_small_bimodal_recovery_pinned(self):
        """The whole anchored path (Gibbs start, batch descent, agglomerative
        refinement, polish, hierarchy) reproduces recorded values."""
        r = presets.bimodal_recovery(n_docs=40, doc_length=60, fit_restarts=2,
                                     gibbs_sweeps=4)
        assert abs(r["sigma_anchored"] - 3094.0777896808154) < 1e-9
        assert abs(r["sigma_sbm"] - 1248.8709734826243) < 1e-9
        assert r["mode_count"] == 2


def try_batch_reference(rows, cand, sigma, bundles, max_overlap=None):
    """`inference._try_batch` scoring every fraction, also one that moves the
    bundles the fraction before it moved."""
    new_rows, margin, movable = cand
    order = np.argsort(-margin)
    fraction = 1.0
    while fraction >= 1 / 64:
        subset = np.zeros(len(rows), dtype=bool)
        subset[order[: max(1, int(len(order) * fraction))]] = True
        sel = np.flatnonzero(movable & subset)
        before = rows[sel].copy()
        rows[sel] = new_rows[sel]
        new_sigma = inference.score_doc_anchored(rows, bundles, max_overlap).sigma_nats
        if new_sigma < sigma - 1e-9:
            return True, new_sigma
        rows[sel] = before
        fraction /= 4
    return False, sigma


def _gibbs_reference(rows, bundles, rng, sweeps=25, pseudo_doc=1.0,
                     pseudo_word=0.02, t_start=2.0, t_end=0.4):
    """The blocked resampler as a per-bundle loop.  Block b holds each
    document's b-th bundle in the sweep's permutation, in permutation order;
    each bundle of a block draws from the totals recomputed from the rows at
    the block's start."""
    d_idx, w_idx, counts = bundles.doc_idx, bundles.word_idx, bundles.counts
    for temp in np.geomspace(t_start, t_end, sweeps):
        perm = rng.permutation(len(counts)).tolist()
        docs = [int(d_idx[t]) for t in perm]
        rank = [docs[:i].count(d) for i, d in enumerate(docs)]
        blocks = [[t for t, b in zip(perm, rank) if b == block]
                  for block in range(max(rank, default=-1) + 1)]
        for block in blocks:
            ndr = np.zeros((bundles.n_docs, rows.shape[1]))
            kwr = np.zeros((bundles.n_words, rows.shape[1]))
            np.add.at(ndr, d_idx, rows)
            np.add.at(kwr, w_idx, rows)
            nr = kwr.sum(axis=0)
            for t in block:
                cur = rows[t]
                p = ((ndr[d_idx[t]] - cur + pseudo_doc) * (kwr[w_idx[t]] - cur + pseudo_word)
                     / (nr - cur + bundles.n_words * pseudo_word))
                p = np.maximum(p, 1e-300) ** (1.0 / temp)
                rows[t] = rng.multinomial(counts[t], p / p.sum())
    return rows


# the two schedules of fit_doc_anchored: word-pure and random starts
GIBBS_SCHEDULES = (dict(t_start=1.0, t_end=0.3), dict(t_start=2.0, t_end=0.4))


@hst.composite
def gibbs_cases(draw):
    n_docs = draw(hst.integers(1, 8))
    n_words = draw(hst.integers(1, 8))
    counts = draw(arrays(np.int64, (n_docs, n_words), elements=hst.integers(0, 5)))
    n_topics = draw(hst.integers(1, 4))
    schedule = dict(draw(hst.sampled_from(GIBBS_SCHEDULES)),
                    sweeps=draw(hst.integers(1, 6)))
    return counts, n_topics, schedule, draw(hst.integers(0, 2**32 - 1))


def gibbs_start(counts, n_topics, seed):
    """The bundles of a count matrix and a uniform random start of their rows."""
    d_idx, w_idx = np.nonzero(counts)
    bundles = BipartiteMultigraph(*counts.shape, d_idx, w_idx, counts[d_idx, w_idx])
    rows = np.random.default_rng(seed).multinomial(bundles.counts,
                                                   np.full(n_topics, 1.0 / n_topics))
    return bundles, rows


def run_both_gibbs(counts, n_topics, schedule, seed):
    """(rows, rng state) after the engine's and after the reference
    resampler, from the same start and seed."""
    bundles, start = gibbs_start(counts, n_topics, seed)
    out = []
    for sweep in (_gibbs_anneal_anchored, _gibbs_reference):
        rows, rng = start.copy(), np.random.default_rng(seed + 1)
        sweep(rows, bundles, rng, **schedule)
        out.append((rows, rng.bit_generator.state))
    return out


class TestGibbsInitializer:
    @given(gibbs_cases())
    def test_matches_numpy_reference(self, case):
        (rows, state), (rows_ref, state_ref) = run_both_gibbs(*case)
        assert np.array_equal(rows, rows_ref)
        assert state == state_ref

    @given(gibbs_cases())
    def test_rows_keep_counts_and_totals_stay_exact(self, case):
        """Every row sums to its bundle's count, and the doc-topic and
        word-topic totals kept through the sweeps equal those of the final
        rows (the sweep updates the first two arrays `_topic_totals`
        returned; later calls total each block's change)."""
        counts, n_topics, schedule, seed = case
        bundles, rows = gibbs_start(counts, n_topics, seed)
        kept = []
        totals = inference._topic_totals
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(inference, "_topic_totals",
                       lambda *args: kept.append(totals(*args)) or kept[-1])
            _gibbs_anneal_anchored(rows, bundles, np.random.default_rng(seed), **schedule)
        assert np.array_equal(rows.sum(axis=1), bundles.counts)
        assert (rows >= 0).all()
        ndr, kwr = kept[:2]
        assert np.array_equal(ndr, totals(bundles.doc_idx, rows, bundles.n_docs))
        assert np.array_equal(kwr, totals(bundles.word_idx, rows, bundles.n_words))

    @given(hst.lists(hst.integers(0, 5), max_size=40), hst.integers(0, 2**32 - 1))
    def test_blocks_hold_each_document_once(self, docs, seed):
        doc_idx = np.asarray(docs, dtype=np.int64)
        perm = np.random.default_rng(seed).permutation(len(docs))
        blocks = inference._doc_rank_blocks(perm, doc_idx)
        assert len(blocks) == np.bincount(doc_idx).max(initial=0)
        assert sorted(t for block in blocks for t in block.tolist()) == list(range(len(docs)))
        position = np.argsort(perm)
        for b, block in enumerate(blocks):
            # each document's b-th bundle in the order, kept in that order
            assert len(np.unique(doc_idx[block])) == len(block)
            assert (np.diff(position[block]) > 0).all()
            for t in block:
                assert perm[doc_idx[perm] == doc_idx[t]][b] == t

    @pytest.mark.parametrize("schedule", GIBBS_SCHEDULES)
    def test_corpus_without_bundles(self, schedule):
        counts = np.zeros((3, 4), dtype=np.int64)
        (rows, state), (rows_ref, state_ref) = run_both_gibbs(
            counts, 2, dict(schedule, sweeps=3), seed=7)
        assert rows.shape == rows_ref.shape == (0, 2)
        assert state == state_ref


def assignment_sigma(counts, doc, word, max_overlap=None):
    """joint_logp of the nonoverlapping state of (doc, word) group arrays,
    -1 for no group, under the overlap cap."""
    d_idx, w_idx = np.nonzero(counts)
    gd, gw = doc.max(initial=-1) + 1, word.max(initial=-1) + 1
    gs = np.concatenate([np.zeros(gd, np.int64), np.ones(gw, np.int64)])
    st = state_from_label_arrays(*counts.shape, d_idx, w_idx, doc[d_idx],
                                 gd + word[w_idx], counts[d_idx, w_idx],
                                 gd + gw, gs)
    return joint_logp(st, max_overlap=max_overlap).sigma_nats


def materialized_sigma(counts, ag):
    """joint_logp of the nonoverlapping state an agglomerator describes,
    under the agglomerator's overlap cap."""
    return assignment_sigma(counts, *ag.materialize(), max_overlap=ag.max_overlap)


@hst.composite
def merge_cases(draw):
    """A small count matrix with arbitrary group assignments on both sides."""
    n_docs = draw(hst.integers(1, 8))
    n_words = draw(hst.integers(1, 8))
    counts = draw(arrays(np.int64, (n_docs, n_words), elements=hst.integers(0, 4)))
    doc_assign = draw(arrays(np.int64, n_docs, elements=hst.integers(0, 3)))
    word_assign = draw(arrays(np.int64, n_words, elements=hst.integers(0, 3)))
    return counts, doc_assign, word_assign


@hst.composite
def tied_merge_cases(draw):
    """Node singletons of a count matrix whose rows and columns repeat, so
    that many merge deltas tie exactly."""
    base = draw(arrays(np.int64, hst.tuples(hst.integers(1, 4), hst.integers(1, 4)),
                       elements=hst.integers(0, 3)))
    reps = [draw(hst.lists(hst.integers(1, 3), min_size=k, max_size=k)) for k in base.shape]
    counts = np.repeat(np.repeat(base, reps[0], axis=0), reps[1], axis=1)
    return counts, np.arange(counts.shape[0]), np.arange(counts.shape[1])


# one document over 15 words of two kinds: a merge can tie, bit for bit, with
# an earlier pair of the same row, which must keep the row's minimum
TIED_ROW = (np.array([[2, 2, 1, 2, 2, 1, 2, 2, 1, 1, 1, 1, 2, 1, 1]]),
            np.arange(1), np.arange(15))


def local_merge_delta(ag, side, a, b):
    """Delta of merging group b into group a, global terms excluded."""
    return float(ag._merge_deltas(side, np.array([a]), np.array([b]))[0])


def apply_merge(ag, side, a, b):
    assign = ag.doc_assign if side == 0 else ag.word_assign
    ag._apply_transfer(side, b, a, ag._merge_part(side, b), assign == b)


def _local_merge_delta_reference(ag, side, a, b):
    """Local merge delta with one log_factorial call per matrix cell."""
    ta, tb = ag.tables[side][a], ag.tables[side][b]
    n_ab = ta["n"] + tb["n"]
    e_ab = ta["e"] + tb["e"]
    delta = log_factorial(e_ab) - log_factorial(ta["e"]) - log_factorial(tb["e"])
    if side == 0:
        cols_a, cols_b = ag.e_mat[a, :], ag.e_mat[b, :]
    else:
        cols_a, cols_b = ag.e_mat[:, a], ag.e_mat[:, b]
    merged = cols_a + cols_b
    delta -= float(
        np.sum([log_factorial(int(v)) for v in merged[merged > 0]])
        - np.sum([log_factorial(int(v)) for v in cols_a[cols_a > 0]])
        - np.sum([log_factorial(int(v)) for v in cols_b[cols_b > 0]])
    )
    delta += log_partitions(e_ab, n_ab) - log_partitions(ta["e"], ta["n"]) \
        - log_partitions(tb["e"], tb["n"])
    freq = Counter(ta["freq"]) + Counter(tb["freq"])
    delta -= sum(log_factorial(c) for c in freq.values())
    delta += sum(log_factorial(c) for c in ta["freq"].values())
    delta += sum(log_factorial(c) for c in tb["freq"].values())
    return float(delta)


def _shifted_reference(freq, extra, sign):
    """Degree histogram `freq` plus sign * `extra`, keys in the order of `Counter` addition."""
    out = Counter(freq)
    for k, c in extra.items():
        out[k] += sign * c
        if not out[k]:
            del out[k]
    return out


_EMPTY_REFERENCE_GROUP = {"n": 0, "e": 0, "freq": Counter(), "terms": (0.0, 0.0, 0)}


class ReferenceAgglomerator(NonoverlappingAgglomerator):
    """The agglomerator as it was before the cached cell sums and the pair
    array: each table entry carries its own terms, a transfer's delta builds
    both new entries with `Counter` histograms and sums every cell row
    afresh, a node's move deltas are one such transfer delta per target,
    and `greedy_merge` keeps each side's pair deltas in a dict that it
    rebuilds and scans with `min` after every merge.  It shares only the
    tables' construction, the part and row helpers and the global terms."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for groups in self.tables.values():
            for g, t in groups.items():
                groups[g] = self._entry(t["n"], t["e"], Counter(t["freq"]))

    def _entry(self, n, e, freq):
        lf = self._log_fact
        return {"n": n, "e": e, "freq": freq,
                "terms": (lf[e], log_partitions(e, n), sum(lf[c] for c in freq.values()))}

    def _after_transfer(self, side, src, dst, part):
        n, e, freq, _ = part
        d = self.tables[side].get(dst, _EMPTY_REFERENCE_GROUP)
        s = self.tables[side][src]
        return (self._entry(d["n"] + n, d["e"] + e, _shifted_reference(d["freq"], freq, 1)),
                self._entry(s["n"] - n, s["e"] - e, _shifted_reference(s["freq"], freq, -1))
                if s["n"] > n else _EMPTY_REFERENCE_GROUP)

    def _cells(self, row):
        return self._log_fact[row[row > 0]].sum()

    def _transfer_delta(self, side, src, dst, part):
        after = self._after_transfer(side, src, dst, part)
        new = [t["terms"] for t in after]
        old = [self.tables[side].get(g, _EMPTY_REFERENCE_GROUP)["terms"] for g in (dst, src)]
        row_d, row_s = self._row(side, dst), self._row(side, src)
        cells_s = self._cells(row_s - part[3]) if after[1]["n"] else 0.0
        delta = new[0][0] + new[1][0] - old[0][0] - old[1][0]
        delta -= float(self._cells(row_d + part[3]) + cells_s
                       - self._cells(row_d) - self._cells(row_s))
        delta += new[0][1] + new[1][1] - old[0][1] - old[1][1]
        return float(delta - new[0][2] - new[1][2] + old[0][2] + old[1][2])

    def _move_deltas(self, side, node, dsts):
        part, groups = self._node_part(side, node), self.tables[side]
        src = int((self.doc_assign, self.word_assign)[side][node])
        out = []
        for dst in dsts.tolist():
            change = (dst not in groups) - (groups[src]["n"] == 1)
            global_part = self._global_terms(side, change) - self._global_terms(side) if change else 0.0
            out.append(self._transfer_delta(side, src, dst, part) + global_part)
        return np.array(out)

    def _apply_transfer(self, side, src, dst, part, nodes):
        groups = self.tables[side]
        groups[dst], groups[src] = self._after_transfer(side, src, dst, part)
        if not groups[src]["n"]:
            del groups[src]
        self._row(side, dst)[:] += part[3]
        self._row(side, src)[:] -= part[3]
        (self.doc_assign if side == 0 else self.word_assign)[nodes] = dst

    def _local_merge_delta(self, side, a, b):
        return self._transfer_delta(side, b, a, self._merge_part(side, b))

    def greedy_merge(self):
        caches = {side: {(a, b): self._local_merge_delta(side, a, b)
                         for a, b in itertools.combinations(sorted(self.tables[side]), 2)}
                  for side in (1, 0)}
        improved = True
        while improved:
            improved = False
            for side in (1, 0):
                cache = caches[side]
                if not cache:
                    continue
                global_part = self._global_terms(side, -1) - self._global_terms(side)
                (a, b), local = min(cache.items(), key=lambda kv: kv[1])
                if local + global_part < -1e-9:
                    apply_merge(self, side, a, b)
                    caches[side] = {pair: (self._local_merge_delta(side, *pair)
                                           if a in pair else val)
                                    for pair, val in cache.items() if b not in pair}
                    improved = True


def recording(cls):
    """`cls` that records, in `.applied`, each apply as (side, src, dst), and
    in `.moves` each node's move deltas as (side, node, targets, deltas)."""

    class Recording(cls):
        def __init__(self, *args, **kwargs):
            self.applied, self.moves = [], []
            super().__init__(*args, **kwargs)

        def _move_deltas(self, side, node, dsts):
            deltas = super()._move_deltas(side, node, dsts)
            self.moves.append((side, node, dsts.tolist(), deltas.tolist()))
            return deltas

        def _apply_transfer(self, side, src, dst, part, nodes):
            self.applied.append((side, src, dst))
            super()._apply_transfer(side, src, dst, part, nodes)

    return Recording


def assert_cached_terms_fresh(ag):
    """Every group id's cached terms equal a recomputation from its table
    entry and cell row, bit for bit: log e!, log p(e, n), the histogram sum
    in the entry's key order, and the cell sum unless it is marked stale
    (NaN); an unused id holds zeros."""
    lf = ag._log_fact
    for side in (0, 1):
        for g, cached in enumerate(ag._group_terms[side].tolist()):
            t = ag.tables[side].get(g)
            want = ((0.0, 0.0, 0.0, 0.0) if t is None else
                    (lf[t["e"]], log_partitions(t["e"], t["n"]),
                     sum(lf[c] for c in t["freq"].values()),
                     np.sum(lf[ag._row(side, g)[ag._row(side, g) > 0]])))
            assert tuple(cached[:3]) == want[:3]
            assert math.isnan(cached[3]) or cached[3] == want[3]


def fill_cell_cache(ag):
    """Compute every group id's cell sum, so a missed invalidation shows."""
    for side in (0, 1):
        ag._fresh_terms(side, np.arange(ag.e_mat.shape[side]))


class TestAgglomerator:
    @given(merge_cases())
    def test_local_deltas_match_reference(self, case):
        ag = NonoverlappingAgglomerator(*case)
        for side in (0, 1):
            pairs = list(itertools.combinations(sorted(ag.tables[side]), 2))
            if pairs:
                dsts, srcs = np.array(pairs).T
                assert ag._merge_deltas(side, dsts, srcs).tolist() == \
                    [_local_merge_delta_reference(ag, side, a, b) for a, b in pairs]

    @given(hst.one_of(merge_cases(), tied_merge_cases()), hst.sampled_from([None, 1, 2]))
    @example(TIED_ROW, None)
    def test_greedy_merge_matches_reference(self, case, cap):
        """The applied (side, a, b) merges and the final partition equal
        those of the dict-scan reference."""
        ag = recording(NonoverlappingAgglomerator)(*case, max_overlap=cap)
        ref = recording(ReferenceAgglomerator)(*case, max_overlap=cap)
        ag.greedy_merge()
        ref.greedy_merge()
        assert ag.applied == ref.applied
        for got, want in zip(ag.materialize(), ref.materialize()):
            assert np.array_equal(got, want)

    @given(hst.one_of(merge_cases(), tied_merge_cases()))
    @example(TIED_ROW)
    def test_pair_cache_keeps_first_row_minima(self, case):
        """After every merge, each live row's cached minimum is its first
        lowest cell, and the cache's best pair is the first lowest cell of
        the whole array in row-major order."""
        ag = NonoverlappingAgglomerator(*case)
        merged = inference._PairCache.merged

        def checked(cache, *args):
            merged(cache, *args)
            for p in np.flatnonzero(cache.live).tolist():
                row = cache.vals[p]
                assert cache.row_min[p] == row.min()
                if np.isfinite(row.min()):
                    assert cache.row_arg[p] == np.argmin(row)
            if cache.live.sum() > 1:
                i, j = np.unravel_index(np.argmin(cache.vals), cache.vals.shape)
                assert cache.best() == (cache.ids[i], cache.ids[j], cache.vals[i, j])

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(inference._PairCache, "merged", checked)
            ag.greedy_merge()

    @given(merge_cases(), hst.integers(1, 3), hst.sampled_from([None, 2]))
    def test_polish_move_deltas_match_reference(self, case, max_sweeps, cap):
        """Every node's move deltas that `block_polish` scores are within
        1e-9 of the reference's, which builds both groups afresh for each
        target, and it applies the same moves."""
        ag = recording(NonoverlappingAgglomerator)(*case, max_overlap=cap)
        ref = recording(ReferenceAgglomerator)(*case, max_overlap=cap)
        total, ref_total = block_polish(ag, max_sweeps), block_polish(ref, max_sweeps)
        assert abs(total - ref_total) < 1e-9
        assert [m[:3] for m in ag.moves] == [m[:3] for m in ref.moves]
        for (*_, got), (*_, want) in zip(ag.moves, ref.moves):
            assert np.allclose(got, want, rtol=0.0, atol=1e-9)
        assert ag.applied == ref.applied

    @given(hst.dictionaries(hst.integers(1, 12), hst.integers(1, 6), max_size=8),
           hst.dictionaries(hst.integers(1, 12), hst.integers(1, 6), max_size=8))
    def test_histogram_sums_match_reference(self, freq, extra):
        """The histogram term of a merge sums the reference histogram's
        counts in its key order, without building it."""
        ag = NonoverlappingAgglomerator(np.ones((1, 20)), np.arange(1), np.arange(20))
        lf = ag._log_fact
        assert ag._hist_sum(freq, extra) == \
            sum(lf[c] for c in _shifted_reference(freq, extra, 1).values())

    @given(arrays(np.int64, hst.tuples(hst.integers(0, 40), hst.integers(1, 40)),
                  elements=hst.integers(0, 30)))
    def test_row_cells_match_cells(self, rows):
        ag = NonoverlappingAgglomerator(np.full((2, 2), 20), np.arange(2), np.arange(2))
        lf = ag._log_fact
        assert ag._row_cells(rows).tolist() == [np.sum(lf[row[row > 0]]) for row in rows]

    @given(merge_cases(), hst.sampled_from([None, 1, 2]))
    def test_sigma_matches_joint(self, case, cap):
        """The change of the joint over greedy_merge is the sum of the
        applied merges' deltas, each scored just before its apply."""
        counts = case[0]
        ag = NonoverlappingAgglomerator(*case, max_overlap=cap)
        before, deltas = materialized_sigma(counts, ag), []
        apply = ag._apply_transfer

        def scored(side, src, dst, part, nodes):
            deltas.append(local_merge_delta(ag, side, dst, src)
                          + ag._global_terms(side, -1) - ag._global_terms(side))
            apply(side, src, dst, part, nodes)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ag, "_apply_transfer", scored)
            ag.greedy_merge()
        assert sum(deltas) <= 0.0
        assert abs((materialized_sigma(counts, ag) - before) - sum(deltas)) < 1e-8

    @given(merge_cases(), hst.sampled_from([None, 1, 2]), hst.data())
    def test_merge_delta_prediction(self, case, cap, data):
        counts, doc_assign, word_assign = case
        ag = NonoverlappingAgglomerator(counts, doc_assign, word_assign, max_overlap=cap)
        pairs = [(side, a, b) for side in (0, 1)
                 for a, b in itertools.combinations(sorted(ag.tables[side]), 2)]
        if not pairs:
            return
        side, a, b = data.draw(hst.sampled_from(pairs))
        before = materialized_sigma(counts, ag)
        predicted = (local_merge_delta(ag, side, a, b)
                     + ag._global_terms(side, -1) - ag._global_terms(side))
        apply_merge(ag, side, a, b)
        assert abs((materialized_sigma(counts, ag) - before) - predicted) < 1e-8

    def test_recovers_planted_bicliques_from_singletons(self):
        counts = np.zeros((8, 8), dtype=np.int64)
        counts[:4, :4] = 3
        counts[4:, 4:] = 3
        ag = NonoverlappingAgglomerator(counts, np.arange(8), np.arange(8))
        ag.greedy_merge()
        da, wa = ag.materialize()
        assert adjusted_rand_index(da, [0] * 4 + [1] * 4) == 1.0
        assert adjusted_rand_index(wa, [0] * 4 + [1] * 4) == 1.0

    def test_greedy_merge_never_increases(self):
        rng = np.random.default_rng(2)
        counts = rng.integers(0, 3, size=(15, 10))
        ag = NonoverlappingAgglomerator(counts, np.arange(15), np.arange(10))
        before = materialized_sigma(counts, ag)
        ag.greedy_merge()
        assert materialized_sigma(counts, ag) <= before + 1e-9


def grow_hierarchy_reference(state, max_levels, max_overlap=None):
    """`grow_hierarchy` as a dense pair scan: every same-side pair of the
    growing level is rescored by `logp_hierarchy` of the whole stack, from
    the base edge matrix, on a copy of the level's assignment."""
    if max_levels < 1:
        return Hierarchy(), joint_logp(state, max_overlap=max_overlap)
    tables = CountTables(state)
    tables.drop_empty_groups()
    e_base, group_side = tables.dense_e(), tables.group_side

    def edge_term(assignments):
        return -logp_hierarchy(e_base, assignments, group_side)

    hierarchy = Hierarchy()
    best_term = edge_term([])
    base_side = np.zeros(tables.n_groups) if group_side is None else group_side
    while hierarchy.depth < max_levels:
        # the sides of the groups that the new level assigns
        below = hierarchy_group_sides(base_side, hierarchy.assignments)[-1]
        trial = hierarchy.assignments + [np.arange(len(below), dtype=np.int64)]
        trial_term = edge_term(trial)
        improved = True
        while improved:
            improved = False
            assignment = trial[-1]
            coarse, first = np.unique(assignment, return_index=True)
            side = below[first]
            cand_best = None
            for ai in range(len(coarse)):
                for bi in range(ai + 1, len(coarse)):
                    if side[ai] != side[bi]:
                        continue  # a merge across sides is no hierarchy
                    merged = assignment.copy()
                    merged[merged == coarse[bi]] = coarse[ai]
                    _, merged = np.unique(merged, return_inverse=True)
                    term = edge_term(trial[:-1] + [merged])
                    if term < trial_term - 1e-9 and (
                        cand_best is None or term < cand_best[0]
                    ):
                        cand_best = (term, merged)
            if cand_best is not None:
                trial_term = cand_best[0]
                trial = trial[:-1] + [cand_best[1]]
                improved = True
        if trial_term < best_term - 1e-9:
            hierarchy = Hierarchy(trial)
            best_term = trial_term
        else:
            break
    return hierarchy, score_tables(tables, hierarchy, max_overlap, state=state)


@hst.composite
def sided_block_states(draw, max_groups=40):
    """A per-doc-group state of a sparse Dirichlet corpus on its true labels,
    or a clustered state of its counts with random document and word groups;
    at most `max_groups` groups."""
    K = draw(hst.integers(2, 5))
    D, V = draw(hst.integers(2, max_groups - K)), draw(hst.integers(3, 40))
    h = make_hyper(0.1, 0.1, np.full(K, 1 / K), np.full(V, 1 / V))
    labels = sample_corpus(K, D, V, draw(hst.integers(3, 40)), h,
                           seed=draw(hst.integers(0, 2**16))).labels
    if draw(hst.booleans()):
        return labels_to_state(labels, "per-doc-group")
    counts = np.zeros((D, V), dtype=np.int64)
    np.add.at(counts, (labels.d, labels.w), labels.counts)
    seen = np.flatnonzero(counts.sum(axis=0))  # words without tokens have no node
    counts = counts[:, seen]
    Gd = draw(hst.integers(1, D))
    Gw = draw(hst.integers(1, max(1, min(len(seen), max_groups - Gd))))
    rng = np.random.default_rng(draw(hst.integers(0, 2**16)))
    doc_group, word_group = rng.integers(Gd, size=D), rng.integers(Gw, size=len(seen))
    return inference._block_state(counts, np.unique(doc_group, return_inverse=True)[1],
                                  np.unique(word_group, return_inverse=True)[1])


class TestHierarchyGrowth:
    def test_identity_level_never_kept_without_gain(self):
        st = state_from_label_arrays(2, 2, [0, 1], [0, 1], [0, 1], [2, 3],
                                     [1, 1], 4, [0, 0, 1, 1])
        hierarchy, score = grow_hierarchy(st, max_levels=3)
        flat = joint_logp(st).sigma_nats
        assert score.sigma_nats <= flat + 1e-9

    def test_no_level_allowed_builds_no_edge_matrix(self, monkeypatch):
        st = labels_to_state(sample_corpus(2, 6, 8, 10, noninformative_hyper(2, 8),
                                           seed=1).labels, "per-doc-group")
        flat = joint_logp(st, max_overlap=2).sigma_nats

        def refuse(self):
            raise AssertionError("grow_hierarchy built the (B, B) edge matrix")
        monkeypatch.setattr(CountTables, "dense_e", refuse)
        for max_levels in (1, 0, -1):
            hierarchy, score = grow_hierarchy(st, max_levels, max_overlap=2)
            assert hierarchy.assignments == []
            assert score.sigma_nats == flat

    # (state, levels, sigma) recorded before level growing skipped cross-side
    # pairs, whose merges `hierarchy_group_sides` refuses
    PINNED = [
        ("per-doc-group", 4, 1,
         [[0, 1, 1, 2, 2, 2, 0, 0, 2, 2, 2, 2, 0, 0, 0, 1, 1, 0, 0, 1, 2, 1, 2, 2, 3, 4, 4, 5],
          [0, 0, 0, 1, 1, 1]], 668.188172555241),
        ("per-doc-group", 6, 3,
         [[0, 0, 1, 1, 2, 3, 3, 3, 1, 0, 2, 1, 1, 2, 1, 0, 1, 1, 3, 2, 1, 1, 2, 0, 0, 0, 2, 0,
           2, 0, 4, 5, 6, 7, 6, 7], [0, 0, 1, 1, 2, 3, 3, 2], [0, 0, 1, 1]], 1066.7245118209566),
        ("clustered", 10, 6,
         [[0, 1, 0, 0, 0, 1, 1, 0, 1, 0, 2, 3, 2, 2, 2, 3, 3, 2, 3, 2], [0, 0, 1, 1]],
         3237.621080371063),
    ]

    @staticmethod
    def pinned_state(kind, K, seed):
        """A state of a sparse Dirichlet corpus: per-doc-group on the true
        labels, or clustered by each node's most frequent true topic."""
        D, V = {4: (24, 30), 6: (30, 40), 10: (60, 80)}[K]
        h = make_hyper(0.05, 0.05, np.full(K, 1 / K), np.full(V, 1 / V))
        labels = sample_corpus(K, D, V, 40, h, seed=seed).labels
        if kind == "per-doc-group":
            return labels_to_state(labels, kind)
        lab = labels.over_realized_words()
        _, da = np.unique(lab.doc_topic_counts().argmax(axis=1), return_inverse=True)
        _, wa = np.unique(lab.word_topic_counts().argmax(axis=1), return_inverse=True)
        counts = np.zeros((lab.n_docs, lab.n_words), dtype=np.int64)
        np.add.at(counts, (lab.d, lab.w), lab.counts)
        d, w = np.nonzero(counts)
        Gd, Gw = da.max() + 1, wa.max() + 1
        return state_from_label_arrays(lab.n_docs, lab.n_words, d, w, da[d], Gd + wa[w],
                                       counts[d, w], Gd + Gw, [0] * Gd + [1] * Gw)

    @pytest.mark.parametrize("kind, K, seed, levels, sigma", PINNED,
                             ids=[f"{kind}-K{K}" for kind, K, *_ in PINNED])
    def test_levels_and_sigma_pinned(self, kind, K, seed, levels, sigma):
        hierarchy, score = grow_hierarchy(self.pinned_state(kind, K, seed), 5)
        assert [a.tolist() for a in hierarchy.assignments] == levels
        assert score.sigma_nats == sigma

    @settings(max_examples=25)
    @given(sided_block_states(), hst.integers(2, 5))
    def test_matches_the_dense_pair_scan(self, state, max_levels):
        """Scoring each level's pairs from its own terms chooses the levels
        that rescoring the whole stack for every pair chooses, and the same
        sigma, bit for bit."""
        hierarchy, score = grow_hierarchy(state, max_levels)
        ref_hierarchy, ref_score = grow_hierarchy_reference(state, max_levels)
        assert ([a.tolist() for a in hierarchy.assignments]
                == [a.tolist() for a in ref_hierarchy.assignments])
        assert score.sigma_nats == ref_score.sigma_nats

    @settings(max_examples=15)
    @given(hst.integers(3, 25), hst.integers(4, 16), hst.integers(1, 3), hst.integers(20, 300),
           hst.integers(0, 2**16))
    def test_unsided_matches_the_dense_pair_scan(self, n_nodes, n_groups, n_blocks, n_bundles,
                                                 seed):
        """An unsided state, whose groups share edges among themselves, also
        grows the levels of the dense scan: its groups are drawn in `n_blocks`
        planted blocks, nine edges in ten within one."""
        rng = np.random.default_rng(seed)
        i, j = np.sort(rng.integers(n_nodes, size=(2, n_bundles)), axis=0)
        p = rng.integers(n_blocks, size=n_bundles)
        q = np.where(rng.random(n_bundles) < 0.9, p, rng.integers(n_blocks, size=n_bundles))
        block = np.arange(n_groups) % n_blocks
        r, s = (np.array([rng.choice(np.flatnonzero(block == x)) for x in blk]) for blk in (p, q))
        r, s = np.where(i == j, np.minimum(r, s), r), np.where(i == j, np.maximum(r, s), s)
        state = LabeledGraph(n_nodes, i, j, r, s, rng.integers(1, 4, size=n_bundles), n_groups)
        hierarchy, score = grow_hierarchy(state, 3)
        ref_hierarchy, ref_score = grow_hierarchy_reference(state, 3)
        assert ([a.tolist() for a in hierarchy.assignments]
                == [a.tolist() for a in ref_hierarchy.assignments])
        assert score.sigma_nats == ref_score.sigma_nats

    def test_scores_the_stack_once(self, monkeypatch):
        """Growing levels calls `logp_hierarchy` once, for the returned
        score, however many pairs and levels it tries."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return logp_hierarchy(*args, **kwargs)
        monkeypatch.setattr(microcanonical, "logp_hierarchy", counted)
        monkeypatch.setattr(inference, "logp_hierarchy", counted, raising=False)
        hierarchy, _ = grow_hierarchy(self.pinned_state("per-doc-group", 6, 3), 5)
        assert len(hierarchy.assignments) == 3 and len(calls) == 1

    def test_respects_depth_cap(self):
        graph = planted_biclique_graph()
        cfg = InferenceConfig(mode="greedy", doc_clustering="clustered",
                              seed=3, n_restarts=1, n_sweeps=10, max_levels=1)
        result = fit(graph, cfg)
        assert result.hierarchy.depth == 1


def _kmeans_broadcast(mat, n_clusters, rng):
    """`inference._kmeans` with the distances of all centers in one (n, k, V)
    broadcast."""
    n = mat.shape[0]
    if n_clusters >= n:
        return np.arange(n, dtype=np.int64)
    centers = mat[rng.choice(n, size=n_clusters, replace=False)]
    assign = np.zeros(n, dtype=np.int64)
    for _ in range(60):
        new = ((mat[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
        if np.array_equal(new, assign):
            break
        assign = new
        for c in range(n_clusters):
            if np.any(assign == c):
                centers[c] = mat[assign == c].mean(axis=0)
    return np.unique(assign, return_inverse=True)[1].astype(np.int64)


class TestRefineDocClusters:
    @given(hst.integers(1, 30), hst.integers(1, 40), hst.integers(1, 9),
           hst.integers(0, 2**32 - 1))
    def test_kmeans_matches_the_broadcast_distances(self, n, V, k, seed):
        rng = np.random.default_rng(seed)
        mat = rng.random((n, V)) * (rng.random((n, V)) < 0.5)
        mat /= np.maximum(mat.sum(axis=1, keepdims=True), 1e-300)
        ours, ref = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        assert np.array_equal(inference._kmeans(mat, k, ours), _kmeans_broadcast(mat, k, ref))
        assert ours.bit_generator.state == ref.bit_generator.state

    def test_preserves_topic_mixtures_and_improves(self):
        h = noninformative_hyper(2, 10)
        s = sample_corpus(2, 30, 10, 25, h, seed=6)
        dense = np.zeros((30, 10), dtype=np.int64)
        np.add.at(dense, (s.labels.d, s.labels.w), s.labels.counts)
        z, sigma_anchored, _ = fit_doc_anchored(dense, 2, seed=0, n_restarts=1,
                                                gibbs_sweeps=5)
        score, meta = refine_doc_clusters(z, seed=0)
        assert score.sigma_nats <= sigma_anchored + 1e-9

    @staticmethod
    def mixture_labels(D, V, seed, doc_length=80):
        """(D, V, 3) true labels of a two-component mixture corpus."""
        s = sample_mixture_corpus(np.asarray(presets.BIMODAL_ALPHA_VECTORS), D, V, doc_length,
                                  np.full(V, 0.01), seed=seed)
        return s.labels.to_dense()

    def test_one_search_per_call(self, monkeypatch):
        calls = Counter()
        for name in ("_kmeans", "block_search"):
            def counted(*args, _inner=getattr(inference, name), _name=name, **kwargs):
                calls[_name] += 1
                return _inner(*args, **kwargs)
            monkeypatch.setattr(inference, name, counted)
        refine_doc_clusters(self.mixture_labels(40, 30, 3), seed=3)
        assert calls == {"_kmeans": 1, "block_search": 1}

    def test_returns_the_scored_state(self):
        """Growing levels on the returned flat state again reproduces sigma,
        and the tag's group counts are the state's."""
        score, state = refine_doc_clusters(self.mixture_labels(40, 30, 3), seed=3)
        hierarchy, rescored = grow_hierarchy(state, inference.GROW_LEVELS)
        assert abs(rescored.sigma_nats - score.sigma_nats) < 1e-9
        Gd, Gw = map(int, re.match(r"clustered\[(\d+)x(\d+)\]", score.parametrization).groups())
        assert (Gd, Gw) == tuple(np.bincount(state.group_side, minlength=2))
        assert score.parametrization.endswith("+levels") == bool(hierarchy.assignments)

    def test_no_kept_level_is_not_tagged(self):
        """A refine that keeps no level is tagged without `+levels`."""
        s = sample_mixture_corpus(np.asarray(presets.BIMODAL_ALPHA_VECTORS), 6, 8, 5,
                                  np.full(8, 0.01), seed=1)
        score, state = refine_doc_clusters(s.labels.to_dense(), seed=0)
        hierarchy, _ = grow_hierarchy(state, inference.GROW_LEVELS)
        assert hierarchy.assignments == []
        assert score.parametrization == "clustered[1x1]"

    @settings(max_examples=30)
    @given(hst.integers(1, 40), hst.integers(1, 30), hst.integers(1, 60),
           hst.integers(0, 2**16))
    def test_sigma_is_the_oracle_and_no_worse_than_the_start(self, D, V, m, seed):
        """The refined sigma is `joint_logp` of the returned state under its
        grown hierarchy, and no higher than the k-means start (documents
        singletons when D < DOC_START_GROUPS) with word singletons."""
        z = self.mixture_labels(D, V, seed, m)
        score, state = refine_doc_clusters(z, seed=seed)
        hierarchy, _ = grow_hierarchy(state, inference.GROW_LEVELS)
        assert abs(joint_logp(state, hierarchy).sigma_nats - score.sigma_nats) < 1e-9
        counts = z.sum(axis=2)
        profiles = counts / np.maximum(counts.sum(axis=1), 1)[:, None]
        start = inference._kmeans(profiles, inference.DOC_START_GROUPS,
                                  np.random.default_rng(seed))
        ag = NonoverlappingAgglomerator(counts, start, np.arange(V))
        assert score.sigma_nats <= materialized_sigma(counts, ag) + 1e-9


def _block_polish_reference(counts, doc_assign, word_assign, max_sweeps: int = 4):
    """Node-move polish over assignment arrays: each node in turn takes the
    candidate group, among its side's groups occupied when the side's pass
    began, whose `joint_logp` is lowest, if that lowers sigma by more than
    1e-9.  Returns the (doc, word) arrays, -1 for nodes without edges, and
    the summed change of sigma."""
    assign = [np.where(counts.sum(axis=1) > 0, doc_assign, -1),
              np.where(counts.sum(axis=0) > 0, word_assign, -1)]
    sigma, total = assignment_sigma(counts, *assign), 0.0
    for _ in range(max_sweeps):
        moved = False
        for side in (0, 1):
            groups = sorted(set(assign[side][assign[side] >= 0].tolist()))
            for node, g_from in enumerate(assign[side].tolist()):
                best = None
                for g_to in groups if g_from >= 0 else ():
                    if g_to == g_from:
                        continue
                    assign[side][node] = g_to
                    moved_sigma = assignment_sigma(counts, *assign)
                    delta = moved_sigma - sigma
                    if delta < -1e-9 and (best is None or delta < best[0]):
                        best = (delta, g_to, moved_sigma)
                    assign[side][node] = g_from
                if best is not None:
                    assign[side][node], sigma = best[1], best[2]
                    total += best[0]
                    moved = True
        if not moved:
            break
    return assign[0], assign[1], total


def canonical(labels):
    """Labels renumbered by first appearance (-1 kept): equal iff the two
    partitions agree up to relabelling."""
    first = {}
    return [-1 if g < 0 else first.setdefault(g, len(first)) for g in labels]


def assert_tables_fresh(counts, ag):
    """The agglomerator's tables equal those built from its assignments."""
    fresh = NonoverlappingAgglomerator(counts, ag.doc_assign, ag.word_assign)
    for side in (0, 1):
        got, want = ag.tables[side], fresh.tables[side]
        assert {g: (t["n"], t["e"], dict(t["freq"])) for g, t in got.items()} == \
            {g: (t["n"], t["e"], dict(t["freq"])) for g, t in want.items()}
        for g in got:
            assert ag._group_terms[side][g, :3] == \
                pytest.approx(fresh._group_terms[side][g, :3], abs=1e-9)
    assert np.array_equal(ag.e_mat[:fresh.Gd, :fresh.Gw], fresh.e_mat)
    assert ag.e_mat.sum() == fresh.e_mat.sum()


# a singleton group on each side and unused document ids: a move can empty
# its source and open its target, each or both
SMALL_STATE = (np.array([[2, 1, 0, 3], [0, 4, 1, 1], [1, 0, 2, 0]]),
               np.array([0, 0, 3]), np.array([0, 2, 2, 1]))
MOVE_KINDS = {(False, False), (False, True), (True, False), (True, True)}


class TestNodeMoves:
    @given(merge_cases(), hst.sampled_from([None, 1, 2]), hst.integers(0, 2**32 - 1))
    @example(SMALL_STATE, None, 0)
    def test_move_deltas_match_joint(self, case, cap, seed):
        """Along a random sequence of merges and node moves, a random node's
        `_move_deltas` over every other id of its side (occupied, emptied or
        never used) is the change of the joint under the overlap cap.  After
        every apply each cached group term equals a recomputation from the
        group's table entry bit for bit, every cell sum not marked stale
        does too, and the tables equal a fresh build.  The small state's
        visits try all four (source empties, target opens) kinds."""
        counts = case[0]
        ag = NonoverlappingAgglomerator(*case, max_overlap=cap)
        rng = np.random.default_rng(seed)
        kinds = set()
        for _ in range(6):
            fill_cell_cache(ag)
            nodes = [(side, v) for side, assign in enumerate((ag.doc_assign, ag.word_assign))
                     for v in np.flatnonzero(assign >= 0).tolist()]
            if not nodes:
                return
            side, node = nodes[int(rng.integers(len(nodes)))]
            assign = (ag.doc_assign, ag.word_assign)[side]
            src = int(assign[node])
            dsts = np.array([g for g in range(ag.e_mat.shape[side]) if g != src], dtype=np.int64)
            before = materialized_sigma(counts, ag)
            for dst, delta in zip(dsts.tolist(), ag._move_deltas(side, node, dsts).tolist()):
                kinds.add((ag.tables[side][src]["n"] == 1, dst not in ag.tables[side]))
                assign[node] = dst
                assert abs((materialized_sigma(counts, ag) - before) - delta) < 1e-8
                assign[node] = src
            groups = sorted(ag.tables[side])
            if rng.random() < 0.5 and len(groups) > 1:
                apply_merge(ag, side, *rng.choice(groups, size=2, replace=False).tolist())
            elif len(dsts):
                dst = int(dsts[rng.integers(len(dsts))])
                ag._apply_transfer(side, src, dst, ag._node_part(side, node), node)
            assert_cached_terms_fresh(ag)
            assert_tables_fresh(counts, ag)
        assert case is not SMALL_STATE or kinds == MOVE_KINDS


class TestBlockPolish:
    def test_polish_never_increases_and_stays_exact(self):
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 3, size=(5, 5))
        ag = NonoverlappingAgglomerator(counts, rng.integers(0, 3, size=5),
                                        rng.integers(0, 3, size=5))
        before = materialized_sigma(counts, ag)
        total = block_polish(ag, max_sweeps=2)
        assert total <= 0.0
        assert abs((materialized_sigma(counts, ag) - before) - total) < 1e-8

    @given(merge_cases(), hst.integers(1, 3))
    def test_matches_oracle_reference(self, case, max_sweeps):
        """Polish on the group tables ends in the partition an oracle-scored
        polish over assignment arrays reaches, with the same sigma."""
        counts, doc_assign, word_assign = case
        ag = NonoverlappingAgglomerator(counts, doc_assign, word_assign)
        before = materialized_sigma(counts, ag)
        total = block_polish(ag, max_sweeps=max_sweeps)
        ref_doc, ref_word, ref_total = _block_polish_reference(counts, doc_assign, word_assign,
                                                               max_sweeps=max_sweeps)
        assert canonical(ag.doc_assign) == canonical(ref_doc)
        assert canonical(ag.word_assign) == canonical(ref_word)
        sigma = materialized_sigma(counts, ag)
        assert abs(sigma - assignment_sigma(counts, ref_doc, ref_word)) < 1e-8
        assert abs(total - ref_total) < 1e-8
        assert abs((sigma - before) - total) < 1e-8


class TestBlockMHSweep:
    @given(merge_cases(), hst.sampled_from([0.0, 0.5, 3.0]), hst.sampled_from([None, 1, 2]),
           hst.integers(0, 2**32 - 1))
    def test_sweep_delta_matches_joint(self, case, temperature, cap, seed):
        """From the merged singletons, one sweep's returned delta is the
        change of the joint under the cap, the tables stay fresh, and at zero
        temperature sigma never rises."""
        counts = case[0]
        ag = NonoverlappingAgglomerator(counts, np.arange(counts.shape[0]),
                                        np.arange(counts.shape[1]), max_overlap=cap)
        ag.greedy_merge()
        before = materialized_sigma(counts, ag)
        delta, proposed, accepted = block_mh_sweep(ag, np.random.default_rng(seed), temperature)
        after = materialized_sigma(counts, ag)
        assert abs((after - before) - delta) < 1e-8
        assert_tables_fresh(counts, ag)
        assert proposed == int((counts.sum(axis=1) > 0).sum() + (counts.sum(axis=0) > 0).sum())
        assert 0 <= accepted <= proposed
        if temperature == 0.0:
            assert delta <= 0.0 and after <= before + 1e-8

    @pytest.mark.parametrize("temperature", [3.0, 10.0])
    def test_chain_samples_the_tempered_posterior(self, temperature):
        """Over the 10 nonoverlapping partitions of a 2 x 3 count matrix,
        sweeps from the singletons visit each in proportion to
        exp(-sigma / T)."""
        counts = np.array([[1, 1, 0], [0, 1, 1]])
        doc_parts = ([0, 0], [0, 1])
        word_parts = ([0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1], [0, 1, 2])
        sigma = {(tuple(da), tuple(wa)): materialized_sigma(
                     counts, NonoverlappingAgglomerator(counts, np.array(da), np.array(wa)))
                 for da in doc_parts for wa in word_parts}
        weights = {key: math.exp(-(s - min(sigma.values())) / temperature)
                   for key, s in sigma.items()}
        target = {key: w / sum(weights.values()) for key, w in weights.items()}
        ag = NonoverlappingAgglomerator(counts, np.arange(2), np.arange(3))
        rng = np.random.default_rng(12)
        visits = Counter()
        for i in range(12000):
            block_mh_sweep(ag, rng, temperature)
            if i >= 200:
                visits[(tuple(canonical(ag.doc_assign)), tuple(canonical(ag.word_assign)))] += 1
        assert set(visits) <= set(target)
        n = sum(visits.values())
        tv = 0.5 * sum(abs(visits[key] / n - p) for key, p in target.items())
        assert tv <= 0.05
