"""Search over labeled states: greedy descent, simulated annealing, and
Metropolis-Hastings sampling.

Nonoverlapping states are searched at block level by the agglomerator, which
scores merges and node moves in closed form on its group tables, many
candidates per numpy pass.  Every
clustered fit runs on it: greedy merges of the node singletons, then
node-move sweeps until a sweep moves no node; a tempered clustered fit
continues from there with node-move Metropolis-Hastings sweeps, polishes
again and keeps the better of that state and the greedy one.
`refine_doc_clusters` runs the same greedy search with the documents started
in k-means groups of their word-usage profiles instead of as singletons.

Per-doc-group fits (every document pinned to its own group, so mixtures
read directly as topic proportions) are greedy: one vectorized batch
optimizer on sparse label rows proposes whole-bundle reassignments from count
tables and accepts a batch only when the exactly rescored description length
drops, so their traces stay monotone at corpus scale.  Anneal and mcmc
modes temper clustered fits only.

Overlapping states are sampled by `mh_sweep`, a Metropolis-Hastings chain of
unit relabelings that scores every proposal with the oracle `joint_logp`.
No fit runs it.
"""
from __future__ import annotations

import functools
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .graph import BipartiteMultigraph, LabeledGraph, state_from_label_arrays
from .lda import LabeledCounts, LdaSample
from .microcanonical import (
    CountTables,
    Hierarchy,
    compress_groups,
    joint_logp,
    logp_geometric,
    logp_level_partition,
    score_tables,
    top_level_density,
)
from .partition_counts import log_partitions
from .scores import ModelScore
from .util import (
    IntegrityError,
    log_binom,
    log_factorial_table,
    log_num_compositions,
    log_num_compositions_large,
)

# search settings, one value each; the docstrings of their readers say what each sets
TEMPERATURE_START, TEMPERATURE_END = 1.0, 1e-3
PSEUDO_DOC, PSEUDO_WORD = 1.0, 0.02
ANCHORED_ROUNDS = 60
DOC_START_GROUPS, GROW_LEVELS = 32, 3


@dataclass
class InferenceConfig:
    mode: str = "greedy"               # greedy | anneal | mcmc
    doc_clustering: str = "clustered"  # per-doc-group | clustered
    overlap: int | None = None         # max groups per node mixture; None = unbounded
    n_word_groups: int | None = None   # word-side group cap (per-doc-group mode)
    seed: int = 0
    n_sweeps: int = 200
    n_restarts: int = 10
    max_levels: int = 1

    def __post_init__(self):
        if self.mode not in ("greedy", "anneal", "mcmc"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.doc_clustering not in ("per-doc-group", "clustered"):
            raise ValueError(f"unknown doc_clustering mode {self.doc_clustering!r}")
        if self.n_sweeps <= 0 or self.n_restarts <= 0:
            raise ValueError("sweep and restart counts must be positive")
        if self.max_levels < 0:
            raise ValueError(f"max_levels must be at least 0, not {self.max_levels}")
        if self.overlap is not None and self.overlap < 1:
            raise ValueError("the overlap cap must be at least 1")
        K = self.n_word_groups
        if K is not None and K < 1:
            raise ValueError(f"the word-group count must be at least 1, not {K}")
        if self.doc_clustering == "per-doc-group" and self.mode != "greedy":
            raise ValueError(f"mode {self.mode!r} tempers clustered fits only; "
                             f"per-doc-group fits are greedy")
        if self.doc_clustering == "per-doc-group" and (self.overlap or math.inf) < (K or 2):
            raise ValueError(f"a per-doc-group fit spreads word half-edges over {K or 2} "
                             f"groups, more than the overlap cap {self.overlap}")


@dataclass
class FitResult:
    state: LabeledGraph
    hierarchy: Hierarchy
    score: ModelScore
    sigma_trace: list[float] = field(default_factory=list)
    acceptance: dict = field(default_factory=dict)
    wall_time: float = 0.0
    converged: bool = True
    seed: int = 0

    @property
    def sigma(self) -> float:
        return self.score.sigma_nats


# --- tempering and block search ----------------------------------------------


def temperatures(config: InferenceConfig) -> np.ndarray:
    """A tempered clustered fit's `min(n_sweeps, 20)` sweep temperatures:
    geometric from TEMPERATURE_START to TEMPERATURE_END (anneal) or
    TEMPERATURE_START throughout (mcmc)."""
    n = min(config.n_sweeps, 20)
    if config.mode == "mcmc":
        return np.full(n, TEMPERATURE_START)
    return np.geomspace(TEMPERATURE_START, TEMPERATURE_END, num=n)


def _block_state(counts, doc_group, word_group) -> LabeledGraph:
    """Nonoverlapping labeled graph of the count matrix under compacted group
    assignments (-1 for no group); document groups come first."""
    d_idx, w_idx = np.nonzero(counts)
    Gd, Gw = int(doc_group.max(initial=-1)) + 1, int(word_group.max(initial=-1)) + 1
    return state_from_label_arrays(*counts.shape, d_idx, w_idx, doc_group[d_idx],
                                   Gd + word_group[w_idx], counts[d_idx, w_idx],
                                   Gd + Gw, [0] * Gd + [1] * Gw)


def block_search(graph, config: InferenceConfig, rng=None, doc_start=None):
    """A clustered fit's search on the agglomerator's group tables alone.

    Greedy merges of the word singletons and the document singletons (or
    the document groups `doc_start`), then node-move sweeps until a sweep
    moves no node, at most `config.n_sweeps`; a greedy search draws no random
    number.  Anneal and mcmc searches continue with one `block_mh_sweep` per
    temperature of `temperatures(config)`, drawn from `rng`, polish again the
    same way, and keep that state only if its sigma is below the greedy one.
    They refuse a `doc_start`, whose groups may fill every group id and leave
    a new-group proposal none to take.  Returns the compacted flat state, the
    trace (the exact sigma after the merges, the running sigma after each
    polish or MH sweep, the greedy sigma again if that state is kept),
    whether the kept phase's last polish ended on a sweep without a move,
    and the node-move proposal and acceptance counts (empty when greedy)."""
    if doc_start is not None and config.mode != "greedy":
        raise ValueError(f"a {config.mode} search starts from node singletons only")
    counts = np.zeros((graph.n_docs, graph.n_words), dtype=np.int64)
    np.add.at(counts, (graph.doc_idx, graph.word_idx), graph.counts)
    doc_start = np.arange(graph.n_docs) if doc_start is None else doc_start
    agg = NonoverlappingAgglomerator(counts, doc_start, np.arange(graph.n_words),
                                     max_overlap=config.overlap)
    agg.greedy_merge()
    trace = [joint_logp(_block_state(counts, *agg.materialize()),
                        max_overlap=config.overlap).sigma_nats]
    stats, best = Counter(), None
    for temps in [()] if config.mode == "greedy" else [(), temperatures(config)]:
        for temp in temps:
            delta, proposed, accepted = block_mh_sweep(agg, rng, float(temp))
            trace.append(trace[-1] + delta)
            stats.update(proposed=proposed, accepted=accepted)
        converged = False
        for _ in range(config.n_sweeps):
            # every applied move gains more than 1e-9 nats, so 0.0 means no move
            gain = block_polish(agg, max_sweeps=1)
            trace.append(trace[-1] + gain)
            if gain == 0.0:
                converged = True
                break
        if best is None or trace[-1] < best[0] - 1e-9:
            best = trace[-1], agg.materialize(), converged
        else:  # the greedy state is kept: the trace ends on it
            trace.append(best[0])
    return _block_state(counts, *best[1]), trace, best[2], dict(stats)


# --- sweeps ------------------------------------------------------------------


def mh_sweep(state: LabeledGraph, rng, temperature=1.0, doc_labels=None, word_labels=None,
             sigma=None):
    """E Metropolis-Hastings unit proposals on a bipartite labeled state at
    the given temperature, from its `sigma` when known; returns the new state
    and a dict of the proposal and acceptance counts and the new state's sigma.

    A unit is picked proportionally to bundle label mass and sent to a uniform
    (document label, word label) pair, each side's occupied groups by default;
    the count-ratio correction makes the chain target exp(-sigma).  Every
    proposal is scored by `joint_logp`, so a ratio of exactly one (a symmetric
    move) is accepted with probability one half; at zero temperature only
    strict improvements pass.  No fit runs it; acceptance criterion 9 checks
    its samples against an enumerated posterior.
    """
    n_docs = int(np.count_nonzero(state.side == 0))
    doc_labels = sorted(set(state.r.tolist())) if doc_labels is None else doc_labels
    word_labels = sorted(set(state.s.tolist())) if word_labels is None else word_labels
    for side, labels in ((0, doc_labels), (1, word_labels)):
        if any(not 0 <= g < state.n_groups or state.group_side[g] != side for g in labels):
            raise IntegrityError("target labels must respect node sides")
    bundles: dict[tuple, Counter] = {}  # (doc, word) -> Counter{(doc label, word label): m}
    for d, j, rd, rw, m in zip(*(a.tolist() for a in (state.i, state.j, state.r, state.s, state.m))):
        bundles.setdefault((d, j - n_docs), Counter())[(rd, rw)] += m

    def shift(cnt, pair, target):
        cnt[pair] -= 1
        if not cnt[pair]:
            del cnt[pair]
        cnt[target] += 1

    E, accepted = state.n_edges, 0
    sigma = joint_logp(state).sigma_nats if sigma is None else sigma
    keys = sorted(bundles)
    totals = np.array([sum(bundles[k].values()) for k in keys], dtype=float)
    cum = np.cumsum(totals / totals.sum())
    for _ in range(E):
        cnt = bundles[keys[int(np.searchsorted(cum, rng.random(), side="right"))]]
        pairs = sorted(cnt)
        mass = np.array([cnt[p] for p in pairs], dtype=float)
        pair = pairs[int(rng.choice(len(pairs), p=mass / mass.sum()))]
        new_pair = (doc_labels[int(rng.integers(len(doc_labels)))],
                    word_labels[int(rng.integers(len(word_labels)))])
        if new_pair == pair:
            continue
        old_c, new_c = cnt[pair], cnt[new_pair]
        shift(cnt, pair, new_pair)
        rows = [(*key, *p, m) for key, c in sorted(bundles.items()) for p, m in sorted(c.items())]
        proposal = state_from_label_arrays(n_docs, state.n_nodes - n_docs,
                                           *np.array(rows, dtype=np.int64).reshape(-1, 5).T,
                                           state.n_groups, state.group_side)
        new_sigma = joint_logp(proposal).sigma_nats
        delta = new_sigma - sigma
        if temperature <= 0:
            ok = delta < 0
        else:
            ratio = math.exp(min(700.0, -delta / temperature)) * (new_c + 1.0) / old_c
            ok = (rng.random() < 0.5) if ratio == 1.0 else (rng.random() < min(1.0, ratio))
        if ok:
            accepted += 1
            state, sigma = proposal, new_sigma
        else:
            shift(cnt, new_pair, pair)
    return state, {"proposed": E, "accepted": accepted, "sigma": sigma}


# --- hierarchy search --------------------------------------------------------


def grow_hierarchy(state: LabeledGraph, max_levels: int,
                   max_overlap=None) -> tuple[Hierarchy, ModelScore]:
    """Greedy level growing: add an identity level on top, apply its best
    same-side merge (`_best_level_merge`, from that level's matrix and sizes
    alone) while that lowers the description length by more than 1e-9, and
    keep the level if its total change, the identity level's cost included,
    is below -1e-9; repeat until no level helps or the depth cap is reached.
    The joint is scored once, at the end.  With `max_levels` of one or less
    it is the flat joint, and no (B, B) edge matrix is built."""
    if max_levels <= 1:
        return Hierarchy(), joint_logp(state, max_overlap=max_overlap)
    tables = CountTables(state)
    tables.drop_empty_groups()
    e, side = tables.dense_e(), tables.group_side
    side = np.zeros(len(e), dtype=np.int64) if side is None else side
    hierarchy = Hierarchy()
    while hierarchy.depth < max_levels:
        # an identity level costs its partition prior; its matrix prior is log 1
        cost = -logp_level_partition(np.arange(len(e)), side)
        coarse, sizes, parent = e.copy(), np.ones(len(e), dtype=np.int64), np.arange(len(e))
        delta, a, b = _best_level_merge(coarse, sizes, side, tables.E)
        while delta < -1e-9:
            cost += delta
            coarse[a] += coarse[b]
            coarse[:, a] += coarse[:, b]
            coarse[b], coarse[:, b], sizes[a], sizes[b] = 0, 0, sizes[a] + sizes[b], 0
            parent[parent == b] = a
            delta, a, b = _best_level_merge(coarse, sizes, side, tables.E)
        if not cost < -1e-9:
            break
        hierarchy.assignments.append(np.unique(parent, return_inverse=True)[1])
        e, side = coarse[np.ix_(sizes > 0, sizes > 0)], side[sizes > 0]
    return hierarchy, score_tables(tables, hierarchy, max_overlap, state=state)


def _best_level_merge(e, sizes, side, E) -> tuple[float, int, int]:
    """(delta, a, b): the lowest description-length change of merging group
    b into a < b of one side (the first pair on ties; inf when none), given a
    growing level's coarse matrix `e` (diagonal doubled), sizes (0: merged
    away) and the sides of the groups below.  A merge changes the terms of
    the coarse pairs at a or b, log n_a! + log n_b! against log (n_a + n_b)!,
    the side's binomial and the top geometric prior."""
    comp = log_num_compositions
    B, diag = np.count_nonzero(sizes), np.diagonal(e)
    best = (math.inf, -1, -1)
    for s in (0, 1):
        g, n_prev = np.flatnonzero((side == s) & (sizes > 0)), np.count_nonzero(side == s)
        if len(g) < 2:
            continue
        geometric = (logp_geometric(E, B, top_level_density(E, B))
                     - logp_geometric(E, B - 1, top_level_density(E, B - 1)))
        # a pair without edges scores log 1: in a sided state, only the other side counts
        cols = np.flatnonzero(e[g].any(axis=0))
        rows, n, nx = e[np.ix_(g, cols)], sizes[g], sizes[cols]
        # a column that is a scored group (unsided states only) moves to the diagonal
        alone = (comp(rows, n[:, None] * nx).sum(axis=1) - comp(diag[g], n * n)
                 + comp(diag[g] // 2, n * (n + 1) // 2))
        ia, ib = np.triu_indices(len(g), 1)
        a, b, na, nb = g[ia], g[ib], n[ia], n[ib]
        m, eab = na + nb, e[a, b]
        merged = (comp(rows[ia] + rows[ib], m[:, None] * nx).sum(axis=1)
                  - comp(diag[a] + eab, m * na) - comp(eab + diag[b], m * nb)
                  + comp(diag[a] // 2 + diag[b] // 2 + eab, m * (m + 1) // 2))
        binom = log_binom(n_prev - 1, len(g) - 2) - log_binom(n_prev - 1, len(g) - 1)
        delta = (merged - alone[ia] - alone[ib] + comp(eab, na * nb) - log_binom(m, na)
                 + binom + geometric)
        k = int(np.argmin(delta))
        best = min(best, (float(delta[k]), int(a[k]), int(b[k])))
    return best


# --- full fits ---------------------------------------------------------------


def _fit_one_restart(graph, config: InferenceConfig, ridx: int, seq) -> FitResult:
    rng = np.random.default_rng(seq)
    if config.doc_clustering == "clustered":
        final, trace, converged, stats = block_search(graph, config, rng)
    else:
        bundles, K = graph.coalesced(), config.n_word_groups or 2
        rows, _, trace, converged = _anchored_restart(
            bundles, K, ridx, rng, config.n_sweeps, max_overlap=config.overlap)
        stats = {}
        final = compress_groups(_anchored_state(rows, bundles))
    hierarchy, score = grow_hierarchy(final, config.max_levels,
                                      max_overlap=config.overlap)
    trace.append(score.sigma_nats)
    return FitResult(
        state=final, hierarchy=hierarchy, score=score, sigma_trace=trace,
        acceptance=dict(stats), converged=converged, seed=ridx,
    )


def fit(graph, config: InferenceConfig) -> FitResult:
    """Best-of-restarts posterior maximization.

    A clustered restart is `block_search`: merges, at most `n_sweeps`
    node-move sweeps and, in anneal and mcmc fits, node-move
    Metropolis-Hastings sweeps on the group tables followed by a second
    polish.  A greedy clustered search draws no random number, so that fit
    ends after one restart, whatever `n_restarts` says.  A per-doc-group
    restart is a greedy `_anchored_restart` with `n_word_groups` (default
    2) and at most `n_sweeps` descent rounds, scored under the overlap cap;
    `InferenceConfig` refuses it in anneal and mcmc mode.  Group counts are
    fitted; `grow_hierarchy` then adds at most `max_levels` - 1 levels.

    `sigma_trace` holds the restart's search trace (see `block_search` and
    `_anchored_restart`); its last entry is the score with the grown
    hierarchy.  `converged` is False when the last phase used all `n_sweeps`
    sweeps or rounds and its last one still moved.  `acceptance` sums the
    node-move MH proposals and their acceptances (empty in greedy fits).

    Restarts use independent seed streams and reduce by minimum description
    length (ties to the lowest restart index); TOPICBLOCKS_THREADS > 1 runs
    them in worker processes with identical results.
    """
    t0 = time.time()
    deterministic = (config.mode, config.doc_clustering) == ("greedy", "clustered")
    n_restarts = 1 if deterministic else config.n_restarts
    seeds = np.random.SeedSequence(config.seed).spawn(n_restarts)
    n_workers = int(os.environ.get("TOPICBLOCKS_THREADS", "1") or "1")
    if n_workers > 1 and n_restarts > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(
                _fit_one_restart,
                [graph] * n_restarts,
                [config] * n_restarts,
                range(n_restarts),
                seeds,
            ))
    else:
        results = [_fit_one_restart(graph, config, ridx, seq)
                   for ridx, seq in enumerate(seeds)]
    best = min(results, key=lambda r: (r.sigma, r.seed))
    best.wall_time = time.time() - t0
    return best


# --- fixed-label scoring ------------------------------------------------------


def _checked_labels(labels: LabeledCounts, variant: str) -> LabeledCounts:
    """The labels over their realized words, checked for a fixed-label score."""
    if variant not in ("per-doc-group", "doc-clustering"):
        raise ValueError(f"unknown variant {variant!r}")
    D, K = labels.n_docs, labels.n_topics
    labels = labels.over_realized_words()  # words in 0..n_words-1
    if np.any(labels.counts < 1):
        raise IntegrityError("bundle multiplicities must be positive")
    if len(labels.d) and not 0 <= labels.d.min() <= labels.d.max() < D:
        raise IntegrityError(f"a label's document lies outside 0..{D - 1}")
    if len(labels.r) and not 0 <= labels.r.min() <= labels.r.max() < K:
        topic = labels.r[(labels.r < 0) | (labels.r >= K)][0]
        raise IntegrityError(f"a label's topic {topic} lies outside 0..{K - 1}")
    return labels


def labels_to_state(labels: LabeledCounts, variant: str) -> LabeledGraph:
    """Labeled graph from true token labels: the reference state, whose
    `joint_logp` the tests hold `fixed_label_score` to bit for bit.

    "per-doc-group": document d keeps its own group and the word half-edge
    carries the topic, giving D + K groups.  "doc-clustering": both
    half-edges carry the topic (document side j, word side K + j), giving 2K
    groups.  Words never observed are dropped from the node set.
    """
    labels = _checked_labels(labels, variant)
    D, K = labels.n_docs, labels.n_topics
    # G document groups, and the group of each document half-edge
    G, r_doc = (D, labels.d) if variant == "per-doc-group" else (K, labels.r)
    return state_from_label_arrays(D, labels.n_words, labels.d, labels.w, r_doc, G + labels.r,
                                   labels.counts, G + K, [0] * G + [1] * K, check=False)


def fixed_label_score(sample: LdaSample | LabeledCounts, variant: str) -> ModelScore:
    """Description length of the labeled graph built from true labels, with a
    single-level edge-count prior (no nested hierarchy): scored from the
    count tables the labels keep for the LDA scores too, without the state."""
    labels = _checked_labels(sample.labels if isinstance(sample, LdaSample) else sample, variant)
    tables = CountTables.from_topic_counts(labels.doc_topic_counts(), labels.word_topic_counts(),
                                           labels.log_count_factorials(), variant == "per-doc-group")
    return score_tables(tables, model_id="hsbm", parametrization=variant)


# --- document-anchored batch fitter -------------------------------------------


def _topic_totals(idx: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """(n, K) float totals of the rows per index, one bincount per column
    summed in row order (exact for integer totals below 2**53).  Float also
    without rows: `bincount` of an empty index returns integers."""
    return np.stack([np.bincount(idx, weights=rows[:, r], minlength=n)
                     for r in range(rows.shape[1])], axis=1).astype(np.float64, copy=False)


def _anchored_state(rows: np.ndarray, bundles: BipartiteMultigraph) -> LabeledGraph:
    """Per-doc-group labeled graph of the coalesced `bundles`' label rows, D +
    K groups; an unobserved word is a node without edges, which scores nothing."""
    b, r = np.nonzero(rows)
    D, K = bundles.n_docs, rows.shape[1]
    return state_from_label_arrays(D, bundles.n_words, bundles.doc_idx[b], bundles.word_idx[b],
                                   bundles.doc_idx[b], D + r, rows[b, r], D + K,
                                   [0] * D + [1] * K)


def score_doc_anchored(rows: np.ndarray, bundles: BipartiteMultigraph,
                       max_overlap=None) -> ModelScore:
    """Exact description length of the label rows, per-doc-group, under the
    overlap cap `max_overlap`: that of `_anchored_state`, from the rows'
    topic totals.  The bundles' (d, w, r) order is that of
    `LabeledCounts.from_dense`, so this equals scoring the dense labels with
    `labels_to_state` bit for bit (by `fixed_label_score` when uncapped)."""
    m = rows[rows > 0]  # the state's multiplicities, in its bundle order
    tables = CountTables.from_topic_counts(
        _topic_totals(bundles.doc_idx, rows, bundles.n_docs).astype(np.int64),
        _topic_totals(bundles.word_idx, rows, bundles.n_words).astype(np.int64),
        float(log_factorial_table(int(m.max(initial=0)))[m].sum()), doc_groups=True)
    return score_tables(tables, max_overlap=max_overlap, model_id="hsbm",
                        parametrization="per-doc-group")


def _doc_rank_blocks(perm: np.ndarray, doc_idx: np.ndarray) -> list[np.ndarray]:
    """Split the bundle order `perm` into blocks: block b holds each
    document's b-th bundle in that order, kept in that order, so no block
    holds two bundles of one document."""
    docs = doc_idx[perm]
    # rank within the document: place in a stable sort by document, less its first place
    order = np.argsort(docs, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(docs)) - np.searchsorted(docs[order], docs[order])
    return np.split(perm[np.argsort(rank, kind="stable")], np.cumsum(np.bincount(rank)))[:-1]


def _gibbs_anneal_anchored(rows, bundles, rng, sweeps=25, t_start=2.0, t_end=0.4):
    """Tempered bundle resampling: each bundle's units are redrawn from the
    count-ratio conditional raised to 1/T along a cooling schedule.  Pure
    initialization heuristic; the exact objective drives the later descent.

    Blocked, as AD-LDA splits a sweep across processors (Newman et al., JMLR
    10, 2009).  Each sweep draws one permutation of the bundles and splits it
    by `_doc_rank_blocks`, so a sweep has as many blocks as the largest
    document has bundles.  The bundles of a block draw their rows, in block
    order, with one `rng.multinomial` call from the conditional
    (ndr - own + PSEUDO_DOC) * (kwr - own + PSEUDO_WORD) / (nr - own +
    V * PSEUDO_WORD), floored at 1e-300 and raised to 1/T, where `own` is
    its current row and the totals are those at the block's start.  The
    doc-topic totals are therefore exact for every draw; the word-topic and
    topic totals miss the changes of the other bundles in the same block.
    The totals are floats holding exact integers; `rows` is updated in
    place and returned."""
    d_idx, w_idx, counts = bundles.doc_idx, bundles.word_idx, bundles.counts
    ndr = _topic_totals(d_idx, rows, bundles.n_docs)
    kwr = _topic_totals(w_idx, rows, bundles.n_words)
    nr = rows.sum(axis=0).astype(np.float64)
    norm = bundles.n_words * PSEUDO_WORD
    for temp in np.geomspace(t_start, t_end, sweeps):
        for block in _doc_rank_blocks(rng.permutation(len(counts)), d_idx):
            d, w, cur = d_idx[block], w_idx[block], rows[block]
            p = np.maximum((ndr[d] - cur + PSEUDO_DOC) * (kwr[w] - cur + PSEUDO_WORD)
                           / (nr - cur + norm), 1e-300) ** (1.0 / temp)
            new = rng.multinomial(counts[block], p / p.sum(axis=1, keepdims=True))
            change = new - cur
            ndr[d] += change
            kwr += _topic_totals(w, change, bundles.n_words)
            nr += change.sum(axis=0)
            rows[block] = new
    return rows


def _anchored_restart(bundles: BipartiteMultigraph, K: int, ridx: int, rng,
                      max_rounds: int, gibbs_sweeps: int = 25, max_overlap=None):
    """One restart of the anchored fitter on the coalesced `bundles`.

    It draws a random split (word-pure on even restarts) and runs
    `gibbs_sweeps` blocked, tempered resampling sweeps (half as many, at
    least 6, and cooler on even restarts; see `_gibbs_anneal_anchored`) to
    escape the symmetric start.  It then descends greedily, drawing nothing
    more, at most `max_rounds` rounds until a round accepts no batch (see
    `_anchored_round`); every sigma is scored under the overlap cap
    `max_overlap`.

    Returns (rows, sigma, trace, converged).  The trace is the start's
    sigma, then the sigma after each accepted batch, so it is
    nonincreasing.  `converged` is False if the descent used all
    `max_rounds` rounds and its last one still moved."""
    counts = bundles.counts
    rows = np.zeros((len(counts), K), dtype=np.int64)
    if ridx % 2 == 0:
        # word-pure start: whole columns owned by one topic
        owner = rng.integers(K, size=bundles.n_words)
        rows[np.arange(len(counts)), owner[bundles.word_idx]] = counts
        anneal = dict(sweeps=max(6, gibbs_sweeps // 2), t_start=1.0, t_end=0.3)
    else:
        rows[:] = rng.multinomial(counts, np.full(K, 1.0 / K))
        anneal = dict(sweeps=gibbs_sweeps, t_start=2.0, t_end=0.4)
    if gibbs_sweeps:
        _gibbs_anneal_anchored(rows, bundles, rng, **anneal)
    sigma = score_doc_anchored(rows, bundles, max_overlap).sigma_nats
    trace, converged = [sigma], False
    for _ in range(max_rounds):
        sigma, moved = _anchored_round(rows, bundles, sigma, trace, max_overlap)
        if not moved:
            converged = True
            break
    return rows, sigma, trace, converged


def _anchored_round(rows, bundles, sigma, trace, max_overlap):
    """One round of the anchored descent: whole-word, proportional,
    whole-bundle and single-unit shifts toward the label with the best
    count-ratio gain, each proposed once and passed to `_try_batch`.
    Appends the sigma of each accepted batch to `trace`; returns (sigma,
    whether a batch was accepted)."""
    moved = False
    for kind in ("word", "prop", "bundle", "unit"):
        cand = _anchored_proposal(rows, bundles, kind)
        if cand is None:
            continue
        accepted, sigma = _try_batch(rows, cand, sigma, bundles, max_overlap)
        if accepted:
            trace.append(sigma)
            moved = True
    return sigma, moved


def fit_doc_anchored(counts: np.ndarray, n_topics: int, seed: int = 0,
                     n_restarts: int = 3, gibbs_sweeps: int = 25):
    """Fit token labels with documents pinned to their own groups and a
    capped number of word groups: the best (ties to the lowest index) of
    `n_restarts` runs of `_anchored_restart` with independent seed streams,
    each a blocked Gibbs start of `gibbs_sweeps` sweeps and a greedy batch
    descent of at most ANCHORED_ROUNDS rounds.  Returns the (D, V, K)
    labels, their description length and the winning, nonincreasing trace."""
    if n_topics < 1:
        raise ValueError(f"n_topics must be at least 1, not {n_topics}")
    if n_restarts < 1:
        raise ValueError(f"n_restarts must be at least 1, not {n_restarts}")
    counts = np.asarray(counts, dtype=np.int64)
    d_idx, w_idx = np.nonzero(counts)
    bundles = BipartiteMultigraph(*counts.shape, d_idx, w_idx, counts[d_idx, w_idx])
    seeds = np.random.SeedSequence(seed).spawn(n_restarts)
    runs = (_anchored_restart(bundles, n_topics, ridx, np.random.default_rng(seq),
                              ANCHORED_ROUNDS, gibbs_sweeps) for ridx, seq in enumerate(seeds))
    rows, sigma, trace, *_ = min(runs, key=lambda run: run[1])
    z = np.zeros(counts.shape + (n_topics,), dtype=np.int64)
    z[d_idx, w_idx] = rows
    return z, sigma, trace


def _kmeans(mat, n_clusters, rng):
    n = mat.shape[0]
    if n_clusters >= n:
        return np.arange(n, dtype=np.int64)
    centers = mat[rng.choice(n, size=n_clusters, replace=False)]
    assign = np.zeros(n, dtype=np.int64)
    for _ in range(60):  # Lloyd iterations at most
        # one center at a time: an (n, V) temporary, not (n, k, V)
        dist = np.stack([((mat - c) ** 2).sum(axis=1) for c in centers], axis=1)
        new = dist.argmin(axis=1)
        if np.array_equal(new, assign):
            break
        assign = new
        for c in range(n_clusters):
            if np.any(assign == c):
                centers[c] = mat[assign == c].mean(axis=0)
    _, assign = np.unique(assign, return_inverse=True)
    return assign.astype(np.int64)


def block_polish(agg: NonoverlappingAgglomerator, max_sweeps: int = 4) -> float:
    """Greedy node-move sweeps on a nonoverlapping state: each node, sides 0
    then 1 in index order, moves to the same-side group with the lowest exact
    delta (the lowest id of equal ones) if that is below -1e-9 nats; one
    `_move_deltas` call scores all of a node's targets.  A side's targets are
    the groups occupied at the start of its pass, so a node may move into a
    group emptied earlier in the pass.  Stops after `max_sweeps` sweeps or a
    sweep without a move; returns the sum of the applied deltas."""
    total = 0.0
    for _ in range(max_sweeps):
        moved = False
        for side, assign in ((0, agg.doc_assign), (1, agg.word_assign)):
            groups = np.array(sorted(agg.tables[side]), dtype=np.int64)
            for node in np.flatnonzero(assign >= 0).tolist():
                src = int(assign[node])
                dsts = groups[groups != src]
                if not len(dsts):
                    continue
                deltas = agg._move_deltas(side, node, dsts)
                best = int(np.argmin(deltas))
                if deltas[best] < -1e-9:
                    agg._apply_transfer(side, src, int(dsts[best]), agg._node_part(side, node), node)
                    total += float(deltas[best])
                    moved = True
        if not moved:
            break
    return total


NEW_GROUP_P = 0.05  # epsilon: the chance that a node-move proposal opens a new group


def block_mh_sweep(agg: NonoverlappingAgglomerator, rng, temperature: float):
    """One node-move Metropolis-Hastings sweep on a nonoverlapping state: one
    proposal per node with edges, each picking such a node uniformly over
    both sides.  With probability eps = `NEW_GROUP_P` it proposes the lowest
    unused group id (no move if the node is alone in its group; a search from
    node singletons always has one otherwise), else a uniform other occupied
    group of the side (no move if none).  A move of exact delta D passes with
    probability min(1, exp(-D/T) q_rev/q_fwd); with B groups on the side,
    q_rev/q_fwd is 1 between existing groups, eps (B-1)/(1-eps) when the
    source empties and (1-eps)/(B eps) for a new target, so the chain targets
    exp(-sigma/T) over partitions.  At T <= 0 only D < 0 passes.  Returns
    (sum of the accepted deltas, proposals, acceptances)."""
    nodes = [(side, int(v)) for side, assign in ((0, agg.doc_assign), (1, agg.word_assign))
             for v in np.flatnonzero(assign >= 0)]
    eps, total, accepted = NEW_GROUP_P, 0.0, 0
    for _ in nodes:
        side, node = nodes[int(rng.integers(len(nodes)))]
        groups = agg.tables[side]
        src = int((agg.doc_assign, agg.word_assign)[side][node])
        alone, B = groups[src]["n"] == 1, len(groups)
        if rng.random() < eps:
            if alone:
                continue
            dst = min(set(range(agg.e_mat.shape[side])) - groups.keys())
            ratio = (1 - eps) / (B * eps)
        else:
            others = [g for g in groups if g != src]
            if not others:
                continue
            dst = others[int(rng.integers(len(others)))]
            ratio = eps * (B - 1) / (1 - eps) if alone else 1.0
        delta = float(agg._move_deltas(side, node, np.array([dst]))[0])
        if (delta < 0 if temperature <= 0 else
                rng.random() < math.exp(min(700.0, -delta / temperature)) * ratio):
            agg._apply_transfer(side, src, dst, agg._node_part(side, node), node)
            total += delta
            accepted += 1
    return total, len(nodes), accepted


def _shifted(freq: dict, extra: dict, sign: int) -> dict:
    """Degree histogram `freq` plus sign * `extra`, without zero counts: the
    keys of `freq` in their order, then the keys only `extra` has."""
    out = dict(freq)
    for k, c in extra.items():
        c = out.get(k, 0) + sign * c
        if c:
            out[k] = c
        else:
            del out[k]
    return out


_EMPTY_GROUP = {"n": 0, "e": 0, "freq": {}}


class _PairCache:
    """One side's local merge deltas, kept in place: `vals[i, j]` (i < j) is
    the delta of merging group `ids[j]` into group `ids[i]`, +inf below the
    diagonal and in the row and column of a merged-away group, and
    `row_arg[i]` is the first column of row i holding the row's minimum
    `row_min[i]`."""

    def __init__(self, agg, side):
        self.ids = np.array(sorted(agg.tables[side]), dtype=np.int64)
        self.live = np.ones(len(self.ids), dtype=bool)
        self.pos = {g: i for i, g in enumerate(self.ids.tolist())}
        n = len(self.ids)
        self.vals = np.full((n, n), np.inf)
        # as many pairs per pass as a rescore after a merge, or more while
        # their merged rows hold no more cells than this array
        step = max(n, n * n // max(agg.e_mat.shape[1 - side], 1), 1)
        i, j = np.triu_indices(n, 1)
        for lo in range(0, len(i), step):
            rows, cols = i[lo:lo + step], j[lo:lo + step]
            self.vals[rows, cols] = agg._merge_deltas(side, self.ids[rows], self.ids[cols])
        self.row_arg = self.vals.argmin(axis=1) if n else np.zeros(0, dtype=np.int64)
        self.row_min = self.vals[np.arange(n), self.row_arg]

    def best(self):
        """(a, b, delta) of the lowest delta, the first such pair in
        row-major (a, b) order."""
        i = int(np.argmin(self.row_min))
        return int(self.ids[i]), int(self.ids[self.row_arg[i]]), self.row_min[i]

    def merged(self, agg, side, a, b):
        """After b merged into a: drop b's pairs, rescore a's on the current
        tables, and refresh the row minima that those cells can change."""
        i, j, vals, row_arg, row_min, live = (self.pos[a], self.pos[b], self.vals,
                                              self.row_arg, self.row_min, self.live)
        live[j] = live[i] = False
        vals[j] = vals[:, j] = row_min[j] = np.inf
        # a row whose minimum sat at column a or b is rescanned below
        stale = np.flatnonzero(((row_arg == i) | (row_arg == j)) & live)
        others = np.flatnonzero(live)
        live[i] = True
        k = int(others.searchsorted(i))
        # (p, a) merges a into p before a's place; (a, p) merges p into a after it
        dsts, srcs = self.ids[others], np.full(len(others), a)
        srcs[k:] = dsts[k:]
        dsts[k:] = a
        deltas = agg._merge_deltas(side, dsts, srcs)
        before, col = others[:k], deltas[:k]
        vals[before, i], vals[i, others[k:]] = col, deltas[k:]
        # any other row before a's place only gained a cell at column a
        arg, low = row_arg[before], row_min[before]
        lower = (col < low) | ((col == low) & (i < arg))
        lower &= (arg != i) & (arg != j)
        row_arg[before[lower]], row_min[before[lower]] = i, col[lower]
        stale = np.append(stale, i)
        row_arg[stale] = arg = vals[stale].argmin(axis=1)
        row_min[stale] = vals[stale, arg]


class NonoverlappingAgglomerator:
    """Exact greedy merges and node moves for nonoverlapping bipartite states.

    Works on group-level tables (the aggregated edge matrix, each group's
    size, degree total and degree histogram) and each side's cached group
    terms.  `_merge_deltas` scores many (a, b) merges in one pass over the
    merged rows; `_move_deltas` scores one node's move to many targets from
    the node's own edges, in O(targets x groups it has edges to), as
    Peixoto's merge-and-move heuristic does (PRE 89, 012804, 2014).  A
    merge (b into a) and a node move (v from a to b) both move a part of one
    group into another, so one apply serves both; global terms enter only
    when a move changes a side's group count.  Each delta equals the change
    of `joint_logp` between the materialized states, under the overlap cap
    `max_overlap` when one is given.  Degree-0 nodes belong to no group and
    are marked -1.  Log-factorials are lookups in
    `util.log_factorial_table`, equal to `log_factorial` of the same count,
    and an empty group's terms are exact zeros, so merge deltas are
    bit-identical to scoring the merged group cell by cell.

    `_group_terms[side][g]` holds group g's own terms, log e_g!, log p(e_g,
    n_g) and the sum of log n_k! over its degree histogram, and its cell sum,
    the sum of log e_gs! over its edge-matrix row; an unused id holds exact
    zeros.  A cell sum is NaN while stale and recomputed when a merge delta
    needs it: an apply computes its two groups' own terms from their new
    table entries and marks stale their cell sums and those of the other
    side's groups whose edge counts to them changed.  A merge delta builds
    no histogram: the degree-histogram sum runs over the merged counts in
    the key order the apply will store.
    """

    def __init__(self, counts: np.ndarray, doc_assign, word_assign, max_overlap=None):
        self.counts = np.asarray(counts, dtype=np.int64)
        self.max_overlap = max_overlap
        self.doc_assign = np.asarray(doc_assign, dtype=np.int64).copy()
        self.word_assign = np.asarray(word_assign, dtype=np.int64).copy()
        self.degrees = (self.counts.sum(axis=1), self.counts.sum(axis=0))
        for assign, degrees in zip((self.doc_assign, self.word_assign), self.degrees):
            assign[degrees == 0] = -1  # degree-0 nodes cannot belong to a group
        self.Gd = int(self.doc_assign.max(initial=-1)) + 1
        self.Gw = int(self.word_assign.max(initial=-1)) + 1
        self.E = int(self.counts.sum())
        self._log_fact = log_factorial_table(self.E + sum(self.counts.shape))  # n_eff + Q <= E + N
        # histogram counts are node counts; scalar lookups in a list are cheaper
        self._hist_lf = self._log_fact[:sum(self.counts.shape) + 1].tolist()
        self.e_mat = np.zeros((self.Gd, self.Gw), dtype=np.int64)
        d_idx, w_idx = np.nonzero(self.counts)
        np.add.at(self.e_mat, (self.doc_assign[d_idx], self.word_assign[w_idx]),
                  self.counts[d_idx, w_idx])
        self.tables, self._group_terms = {}, {}
        for side, assign in ((0, self.doc_assign), (1, self.word_assign)):
            members = {}
            for g, k in zip(assign.tolist(), self.degrees[side].tolist()):
                if g >= 0:
                    members.setdefault(g, []).append(k)
            self.tables[side] = {g: {"n": len(ks), "e": sum(ks), "freq": dict(Counter(ks))}
                                 for g, ks in members.items()}
            terms = self._group_terms[side] = np.zeros((self.e_mat.shape[side], 4))
            terms[:, 3] = np.nan
            for g, t in self.tables[side].items():
                terms[g, :3] = self._terms(t["n"], t["e"], self._hist_sum(t["freq"], {}))

    # With singleton mixtures, a group's own terms are log e_r!, log p(e_r,
    # n_r) and -sum_k log n_k! (the degree-assignment n_r! cancels against
    # the partition prior's mixture factorial); its edge-matrix cells add
    # -sum_s log e_rs!; the rest depends only on (N, B).

    def _terms(self, n, e, hist) -> tuple:
        return self._log_fact[e], log_partitions(e, n), hist

    def _hist_sum(self, freq, extra):
        """Sum of log c! over the counts of `_shifted(freq, extra, 1)`, added
        in its key order, without building it."""
        lf, out = self._hist_lf, 0.0
        for k, c in freq.items():
            out += lf[c + extra.get(k, 0)]
        for k, c in extra.items():
            if k not in freq:
                out += lf[c]
        return out

    def _side_terms(self, side, B) -> float:
        """The side's terms that depend only on (N, B) at B groups: its size
        histogram prior (over mixture sizes up to Q = min(cap, B)), size
        assignment and mixture-frequency histogram prior."""
        n_eff = sum(e["n"] for e in self.tables[side].values())
        Q = B if self.max_overlap is None else min(self.max_overlap, B)
        lf = self._log_fact
        out = 0.0
        if n_eff:
            out = float(lf[n_eff + Q - 1] - lf[n_eff] - lf[Q - 1])      # -log P(n)
            # all mixtures have size one: P(q | n) = 1
            out += log_num_compositions_large(float(np.log(B)), n_eff)  # -log P(n_b | n_q)
            out += float(lf[n_eff])                                     # -log P(b | n_b): / n_q!
        return out

    def _edge_prior(self, B_all) -> float:
        """log P(e) of the edge-count prior at B_all groups in all."""
        return logp_geometric(self.E, B_all, top_level_density(self.E, B_all))

    def _global_terms(self, side, change=0) -> float:
        """Terms that depend only on (N, B), once `side` gains `change`
        groups: `_side_terms` and the edge-count prior."""
        B_all = len(self.tables[0]) + len(self.tables[1]) + change
        return self._side_terms(side, len(self.tables[side]) + change) - self._edge_prior(B_all)

    # -- moves: a part (n, e, freq, row) is a node count, a degree total, a
    # degree histogram, and the edge counts toward the other side's groups --

    def _row(self, side, g):
        return self.e_mat[g, :] if side == 0 else self.e_mat[:, g]

    def _row_cells(self, rows) -> np.ndarray:
        """Sum of log e_rs! over the positive cells of each row of the 2-D
        block `rows`, bit for bit as `np.sum` of one row's positive cells:
        rows with the same number of positive cells have those cells' log
        e_rs! summed together along axis 1, which numpy does per row exactly
        as it sums a 1-D array of that length."""
        pos = rows > 0
        width = pos.sum(axis=1)
        order = np.argsort(width, kind="stable")
        # the positive cells' log e_rs!, row after row in order of width
        values = self._log_fact[rows[order][pos[order]]]
        out = np.empty(len(rows))
        done = start = 0  # rows and values summed so far
        for w, n in enumerate(np.bincount(width).tolist()):
            if n:
                out[order[done:done + n]] = values[start:start + n * w].reshape(n, w).sum(axis=1)
                done, start = done + n, start + n * w
        return out

    def _fresh_terms(self, side, gs) -> np.ndarray:
        """`_group_terms` rows of the side's groups `gs` (an int array), the
        stale cell sums recomputed first in one `_row_cells` pass."""
        terms = self._group_terms[side]
        out = terms[gs]
        stale = np.isnan(out[:, 3])
        if stale.any():
            stale = np.flatnonzero(np.bincount(gs[stale]))
            terms[stale, 3] = self._row_cells(self.e_mat[stale, :] if side == 0
                                              else self.e_mat[:, stale].T)
            out = terms[gs]
        return out

    def _node_part(self, side, node):
        k = int(self.degrees[side][node])
        edges = self.counts[node, :] if side == 0 else self.counts[:, node]
        other = self.word_assign if side == 0 else self.doc_assign
        nbrs = np.flatnonzero(edges)
        row = np.bincount(other[nbrs], weights=edges[nbrs], minlength=self.e_mat.shape[1 - side])
        return 1, k, {k: 1}, row.astype(np.int64)

    def _move_deltas(self, side, node, dsts) -> np.ndarray:
        """Full change of sigma when the side's `node` moves from its group to
        each group of the int array `dsts` (its own group not among them),
        global terms included where the source empties or a target was
        empty.  The source's half is scored once.  Each group changes by one
        node: its own terms log e!, log p(e, n), one count of its degree
        histogram, and its cells toward the groups the node has edges to."""
        _, k, _, row = self._node_part(side, node)
        groups, lf, hist_lf = self.tables[side], self._log_fact, self._hist_lf
        gs = np.concatenate([[(self.doc_assign, self.word_assign)[side][node]], dsts])
        own, sizes = [], []
        for step, g, (lf_e, logp) in zip([-1] + [1] * len(dsts), gs.tolist(),
                                         self._group_terms[side][gs, :2].tolist()):
            t = groups.get(g, _EMPTY_GROUP)
            e, c = t["e"] + step * k, t["freq"].get(k, 0)
            own.append(lf[e] - lf_e + log_partitions(e, t["n"] + step) - logp
                       - hist_lf[c + step] + hist_lf[c])
            sizes.append(t["n"])
        cols = np.flatnonzero(row)
        cells = self.e_mat[gs[:, None], cols] if side == 0 else self.e_mat[cols, gs[:, None]]
        moved = cells + row[cols]
        moved[0] -= 2 * row[cols]  # the source's cells lose the node's edges
        delta = np.array(own) - (lf[moved] - lf[cells]).sum(axis=1)
        delta = delta[1:] + delta[0]
        change = [(n == 0) - (sizes[0] == 1) for n in sizes[1:]]
        if any(change):
            base = self._global_terms(side)
            extra = {b: self._global_terms(side, b) - base for b in set(change) if b}
            delta += [extra[b] if b else 0.0 for b in change]
        return delta

    def _apply_transfer(self, side, src, dst, part, nodes):
        """Move `part`, the side's `nodes` (an index or a mask), from src to
        dst.  The two groups' own terms are computed from their new table
        entries, and their cell sums and those of the other side's groups
        whose edge counts to them changed are marked stale."""
        n, e, freq, row = part
        groups, terms = self.tables[side], self._group_terms[side]
        d, s = groups.get(dst, _EMPTY_GROUP), groups[src]
        groups[dst] = {"n": d["n"] + n, "e": d["e"] + e, "freq": _shifted(d["freq"], freq, 1)}
        if s["n"] > n:
            groups[src] = {"n": s["n"] - n, "e": s["e"] - e, "freq": _shifted(s["freq"], freq, -1)}
        else:
            del groups[src]
        for g in (dst, src):
            t = groups.get(g, _EMPTY_GROUP)
            terms[g] = (*self._terms(t["n"], t["e"], self._hist_sum(t["freq"], {})),
                        np.nan if t["n"] else 0.0)
        self._group_terms[1 - side][row != 0, 3] = np.nan  # their rows toward dst and src changed
        self._row(side, dst)[:] += row
        self._row(side, src)[:] -= row
        (self.doc_assign if side == 0 else self.word_assign)[nodes] = dst

    # -- merging -------------------------------------------------------------

    def _merge_part(self, side, b):
        t = self.tables[side][b]
        return t["n"], t["e"], t["freq"], self._row(side, b).copy()

    def _merge_deltas(self, side, dsts, srcs) -> np.ndarray:
        """Local merge delta (global terms excluded) of each group of the
        int array `srcs` into the group of `dsts` at the same place: each
        term summed as merged - old dst - old src, with the merged rows'
        cell sums from one `_row_cells` pass.  It equals scoring the three
        groups cell by cell with `log_factorial`, bit for bit."""
        groups, k = self.tables[side], len(dsts)
        old = self._fresh_terms(side, np.concatenate([dsts, srcs]))
        old_d, old_s = old[:k].T, old[k:].T
        e, lp, hist = np.array([
            (x["e"] + y["e"], log_partitions(x["e"] + y["e"], x["n"] + y["n"]),
             self._hist_sum(x["freq"], y["freq"]))
            for x, y in zip(map(groups.__getitem__, dsts.tolist()),
                            map(groups.__getitem__, srcs.tolist()))]).reshape(-1, 3).T
        rows = (self.e_mat[dsts, :] + self.e_mat[srcs, :] if side == 0
                else (self.e_mat[:, dsts] + self.e_mat[:, srcs]).T)
        delta = self._log_fact[e.astype(np.int64)] - old_d[0] - old_s[0]
        delta -= self._row_cells(rows) - old_d[3] - old_s[3]
        delta += lp - old_d[1] - old_s[1]
        return delta - hist + old_d[2] + old_s[2]

    def greedy_merge(self) -> None:
        """Alternate sides, word side first, applying the best merge that
        lowers the description length by more than 1e-9 nats until none
        remains.

        Each side keeps its pairs' local deltas (global terms excluded) in a
        `_PairCache`: a dense upper-triangular array with per-row minima.
        The best pair is the first of the lowest cached delta in row-major
        (a, b) order.  After b merges into a, only the pairs touching a are
        rescored, b's row and column go to +inf, and only the row minima
        those cells can change are refreshed.  Cached pairs are not rescored
        after merges on the other side, although their deltas depend on its
        groups; a search that needs the change of sigma scores the state.  The
        global terms are computed once per (side, B) and per B_all: merges
        leave each side's node count unchanged."""
        side_terms, edge_prior = functools.cache(self._side_terms), functools.cache(self._edge_prior)
        caches = {side: _PairCache(self, side) for side in (1, 0)}
        improved = True
        while improved:
            improved = False
            for side in (1, 0):
                B = len(self.tables[side])
                if B < 2:
                    continue
                B_all = len(self.tables[0]) + len(self.tables[1])
                # _global_terms(side, -1) - _global_terms(side)
                global_part = ((side_terms(side, B - 1) - edge_prior(B_all - 1))
                               - (side_terms(side, B) - edge_prior(B_all)))
                a, b, local = caches[side].best()
                if local + global_part < -1e-9:
                    assign = self.doc_assign if side == 0 else self.word_assign
                    self._apply_transfer(side, b, a, self._merge_part(side, b), assign == b)
                    caches[side].merged(self, side, a, b)
                    improved = True

    def materialize(self):
        """Compacted (doc_assign, word_assign) arrays of the current state."""
        doc = self.doc_assign.copy()
        word = self.word_assign.copy()
        _, doc[doc >= 0] = np.unique(doc[doc >= 0], return_inverse=True)
        _, word[word >= 0] = np.unique(word[word >= 0], return_inverse=True)
        return doc, word


def refine_doc_clusters(labels_dense: np.ndarray, seed: int = 0):
    """One greedy `block_search` of the counts z.sum(axis=2), documents
    started in one `_kmeans` draw (`np.random.default_rng(seed)`) of
    DOC_START_GROUPS groups over their word-usage profiles (singletons when
    fewer), then up to GROW_LEVELS levels grown by `grow_hierarchy`.

    Returns (score, state): the score of the flat state `state` under its
    grown levels, tagged `clustered[GdxGw]`, plus `+levels` if one is kept.
    """
    counts = np.asarray(labels_dense).sum(axis=2)
    d_idx, w_idx = np.nonzero(counts)
    graph = BipartiteMultigraph(*counts.shape, d_idx, w_idx, counts[d_idx, w_idx])
    profiles = counts / np.maximum(counts.sum(axis=1), 1)[:, None]
    start = _kmeans(profiles, DOC_START_GROUPS, np.random.default_rng(seed))
    state, *_ = block_search(graph, InferenceConfig(), doc_start=start)
    hierarchy, score = grow_hierarchy(state, GROW_LEVELS)
    Gd = int(np.count_nonzero(state.group_side == 0))
    tag = f"clustered[{Gd}x{state.n_groups - Gd}]" + ("+levels" if hierarchy.depth else "")
    return ModelScore(score.sigma_nats, score.breakdown, "hsbm", tag), state


def _largest_remainder_round(n, p):
    """Integer splits of n (per row) proportional to p, exact row sums."""
    raw = n[:, None] * p
    out = np.floor(raw).astype(np.int64)
    short = n - out.sum(axis=1)
    order = np.argsort(-(raw - out), axis=1)
    for j in range(p.shape[1]):
        out[np.arange(len(n)), order[:, j]] += (short > j)
    return out


def _anchored_proposal(rows, bundles, mode):
    """Candidate label moves ranked by a count-ratio heuristic: the per-unit
    gain of placing mass under topic r given current tables.

    "bundle" sends a bundle's whole mass to the best topic, "word" sends
    every bundle of a word to the word's best topic, "prop" splits it
    proportionally to the exponentiated gains (shared words stay shared), and
    "unit" shifts a single unit from the weakest occupied topic to the best.
    Returns (new_rows, margin, movable): every bundle's proposed row, its
    ranking margin and whether the row moves; None when none does.
    """
    d_idx, w_idx, n_dw = bundles.doc_idx, bundles.word_idx, bundles.counts
    V = bundles.n_words
    ndr = _topic_totals(d_idx, rows, bundles.n_docs)   # (D, K)
    kwr = _topic_totals(w_idx, rows, V)                # (V, K)
    nr = kwr.sum(axis=0)                               # (K,)
    gain = (
        np.log(ndr + 0.5)[d_idx]
        + np.log(kwr + 0.5)[w_idx]
        - np.log(nr + 0.5)[None, :]
    )
    target = gain.argmax(axis=1)
    idx = np.arange(len(d_idx))
    if mode == "word":
        # coordinated move of a word's entire column to one topic
        n_w = kwr.sum(axis=1)
        col_gain = _topic_totals(w_idx, n_dw[:, None] * np.log(ndr + 0.5)[d_idx], V)
        col_gain -= n_w[:, None] * np.log(nr + 0.5)[None, :]
        target = col_gain.argmax(axis=1)[w_idx]
        word_margin = col_gain.max(axis=1) - (
            (col_gain * kwr).sum(axis=1) / np.maximum(n_w, 1)
        )
        margin = word_margin[w_idx] / np.maximum(n_w, 1)[w_idx]
    elif mode == "bundle":
        margin = gain[idx, target] - (gain * rows).sum(axis=1) / np.maximum(n_dw, 1)
    if mode in ("word", "bundle"):
        new_rows = np.zeros_like(rows)
        new_rows[idx, target] = n_dw
    elif mode == "prop":
        p = np.exp(gain - gain.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        new_rows = _largest_remainder_round(n_dw, p)
        margin = np.abs(new_rows - rows).sum(axis=1).astype(float)
    else:
        donor = np.where(rows > 0, gain, np.inf).argmin(axis=1)
        margin = gain[idx, target] - gain[idx, donor]
        new_rows = rows.copy()
        new_rows[idx, donor] -= 1
        new_rows[idx, target] += 1
    movable = np.any(new_rows != rows, axis=1)
    return (new_rows, margin, movable) if movable.any() else None


def _try_batch(rows, cand, sigma, bundles, max_overlap=None):
    """Try the proposal on the full bundle set, then on the highest-margin
    quarter, sixteenth and sixty-fourth of it.  A batch passes if it lowers
    sigma, scored under the overlap cap `max_overlap`, by more than 1e-9.
    Returns (accepted, sigma) with the rows at the accepted state, or
    unchanged.  The fractions are nested, so one that moves as many bundles
    as the one just rejected moves the same ones: it is rejected unscored."""
    new_rows, margin, movable = cand
    order = np.argsort(-margin)
    rejected = -1
    for fraction in (1, 1 / 4, 1 / 16, 1 / 64):
        take = order[: max(1, int(len(order) * fraction))]
        sel = np.sort(take[movable[take]])
        if len(sel) != rejected:
            before = rows[sel].copy()
            rows[sel] = new_rows[sel]
            new_sigma = score_doc_anchored(rows, bundles, max_overlap).sigma_nats
            if new_sigma < sigma - 1e-9:
                return True, new_sigma
            rows[sel] = before
            rejected = len(sel)
    return False, sigma
