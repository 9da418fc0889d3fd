"""Search over labeled states: greedy descent, simulated annealing, and
Metropolis-Hastings sampling.

Nonoverlapping states are searched at block level by the agglomerator, whose
merges and node moves share one closed-form group-table delta.  Every
clustered fit runs on it: greedy merges of the node singletons, then
node-move sweeps until a sweep moves no node; a tempered clustered fit
continues from there with node-move Metropolis-Hastings sweeps, polishes
again and keeps the better of that state and the greedy one.
`refine_doc_clusters` coarsens anchored fits by its merges and polishes the
best candidate by its node moves.

Per-doc-group fits (every document pinned to its own group, so mixtures
read directly as topic proportions) get one vectorized batch optimizer on
sparse label rows that proposes whole-bundle reassignments from count tables
and accepts a batch only when the exactly rescored description length drops,
so greedy traces stay monotone at corpus scale.  A tempered per-doc-group
fit continues with rounds of the same proposals that also accept an uphill
batch with probability exp(-delta / T), descends again and keeps the better
of that state and the greedy one.

Overlapping states are sampled by `mh_sweep`, a Metropolis-Hastings chain of
unit relabelings that scores every proposal with the oracle `joint_logp`.
No fit runs it.
"""
from __future__ import annotations

import itertools
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
    logp_hierarchy,
    top_level_density,
)
from .partition_counts import log_partitions
from .scores import ModelScore
from .util import IntegrityError, log_factorial_table, log_num_compositions_large


@dataclass
class InferenceConfig:
    mode: str = "greedy"               # greedy | anneal | mcmc
    doc_clustering: str = "clustered"  # per-doc-group | clustered
    overlap: int | None = None         # max groups per node mixture; None = unbounded
    n_word_groups: int | None = None   # word-side group cap (per-doc-group mode)
    seed: int = 0
    n_sweeps: int = 200
    n_restarts: int = 10
    temperature_start: float = 1.0
    temperature_end: float = 1e-3
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
        if self.doc_clustering == "per-doc-group" and (self.overlap or math.inf) < (K or 2):
            raise ValueError(f"a per-doc-group fit spreads word half-edges over {K or 2} "
                             f"groups, more than the overlap cap {self.overlap}")
        if self.temperature_end > self.temperature_start:
            raise ValueError("temperature schedule must be nonincreasing")


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
    """A tempered fit's `min(n_sweeps, 20)` sweep or round temperatures:
    geometric from `temperature_start` to `temperature_end` (anneal) or
    constant (mcmc)."""
    n = min(config.n_sweeps, 20)
    if config.mode == "mcmc":
        return np.full(n, config.temperature_start)
    return np.geomspace(max(config.temperature_start, 1e-6),
                        max(config.temperature_end, 1e-6), num=n)


def _block_state(counts, doc_group, word_group) -> LabeledGraph:
    """Nonoverlapping labeled graph of the count matrix under compacted group
    assignments (-1 for no group); document groups come first."""
    d_idx, w_idx = np.nonzero(counts)
    Gd, Gw = int(doc_group.max(initial=-1)) + 1, int(word_group.max(initial=-1)) + 1
    return state_from_label_arrays(*counts.shape, d_idx, w_idx, doc_group[d_idx],
                                   Gd + word_group[w_idx], counts[d_idx, w_idx],
                                   Gd + Gw, [0] * Gd + [1] * Gw)


def block_search(graph, config: InferenceConfig, rng=None):
    """A clustered fit's search on the agglomerator's group tables alone.

    Greedy merges of the node singletons, then node-move sweeps until a sweep
    moves no node, at most `config.n_sweeps`; a greedy search draws no random
    number.  Anneal and mcmc searches continue with one `block_mh_sweep` per
    temperature of `temperatures(config)`, drawn from `rng`, polish again the
    same way, and keep that state only if its sigma is below the greedy one.
    Returns the compacted flat state, the trace (the exact sigma after the
    merges, then the running sigma after each polish or MH sweep), whether
    the last polish ended on a sweep without a move, and the node-move
    proposal and acceptance counts (empty when greedy)."""
    counts = np.zeros((graph.n_docs, graph.n_words), dtype=np.int64)
    np.add.at(counts, (graph.doc_idx, graph.word_idx), graph.counts)
    agg = NonoverlappingAgglomerator(counts, np.arange(graph.n_docs),
                                     np.arange(graph.n_words), max_overlap=config.overlap)
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
            best = trace[-1], agg.materialize()
    return _block_state(counts, *best[1]), trace, converged, dict(stats)


# --- sweeps ------------------------------------------------------------------


def mh_sweep(state: LabeledGraph, rng, temperature=1.0, doc_labels=None, word_labels=None):
    """E Metropolis-Hastings unit proposals on a bipartite labeled state at
    the given temperature; returns the new state and the proposal and
    acceptance counts.

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
    sigma = joint_logp(state).sigma_nats
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
    return state, {"proposed": E, "accepted": accepted}


# --- hierarchy search --------------------------------------------------------


def grow_hierarchy(state: LabeledGraph, max_levels: int,
                   max_overlap=None) -> tuple[Hierarchy, ModelScore]:
    """Greedy level growing: add an identity level on top, agglomerate its
    groups while the joint improves, keep the level only if it pays for
    itself.  Repeats until no level helps or the depth cap is reached.

    Only the edge-matrix stack changes during the search, so candidates are
    rescored through that term alone; the full joint is assembled once at the
    end.  With `max_levels` below one the flat joint is returned before any
    (B, B) edge matrix is built.
    """
    if max_levels < 1:
        return Hierarchy(), joint_logp(state, max_overlap=max_overlap)
    state = compress_groups(state)
    tables = CountTables(state)
    e_base = tables.dense_e()
    E = tables.E

    def edge_term(assignments):
        return -logp_hierarchy(e_base, assignments, state.group_side, E=E)

    hierarchy = Hierarchy()
    best_term = edge_term([])
    while hierarchy.depth < max_levels:
        prev_n = (
            state.n_groups if not hierarchy.assignments
            else int(np.max(hierarchy.assignments[-1])) + 1
        )
        trial = hierarchy.assignments + [np.arange(prev_n, dtype=np.int64)]
        trial_term = edge_term(trial)
        improved = True
        while improved:
            improved = False
            assignment = trial[-1]
            coarse = np.unique(assignment)
            cand_best = None
            for ai in range(len(coarse)):
                for bi in range(ai + 1, len(coarse)):
                    merged = assignment.copy()
                    merged[merged == coarse[bi]] = coarse[ai]
                    _, merged = np.unique(merged, return_inverse=True)
                    try:
                        term = edge_term(trial[:-1] + [merged])
                    except IntegrityError:
                        continue
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
    return hierarchy, joint_logp(state, hierarchy, max_overlap=max_overlap)


# --- full fits ---------------------------------------------------------------


def _fit_one_restart(graph, config: InferenceConfig, ridx: int, seq) -> FitResult:
    rng = np.random.default_rng(seq)
    if config.doc_clustering == "clustered":
        final, trace, converged, stats = block_search(graph, config, rng)
    else:
        bundles, K, D = graph.coalesced(), config.n_word_groups or 2, graph.n_docs
        temps = () if config.mode == "greedy" else temperatures(config)
        rows, _, trace, converged, stats = _anchored_restart(
            bundles, K, ridx, rng, config.n_sweeps, max_overlap=config.overlap, temps=temps)
        b, r = np.nonzero(rows)
        final = compress_groups(state_from_label_arrays(
            D, graph.n_words, bundles.doc_idx[b], bundles.word_idx[b], bundles.doc_idx[b],
            D + r, rows[b, r], D + K, [0] * D + [1] * K))
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
    restart is an `_anchored_restart` with `n_word_groups` (default 2) and
    at most `n_sweeps` descent rounds per descent, scored under the overlap
    cap; in anneal and mcmc fits it continues with one tempered round per
    temperature of `temperatures(config)` and a second descent.  Group
    counts and hierarchy depth are fitted.

    `sigma_trace` holds the restart's search trace (see `block_search` and
    `_anchored_restart`); its last entry is the score with the grown
    hierarchy.  `converged` is False when the last phase used all `n_sweeps`
    sweeps or rounds and its last one still moved.  `acceptance` sums the
    node-move MH proposals or tempered batch proposals and their acceptances
    (empty in greedy fits).

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


def labels_to_state(labels: LabeledCounts, variant: str) -> LabeledGraph:
    """Labeled graph from true token labels.

    "per-doc-group": document d keeps its own group and the word half-edge
    carries the topic, giving D + K groups.  "doc-clustering": both
    half-edges carry the topic (document side j, word side K + j), giving 2K
    groups.  Words never observed are dropped from the node set.
    """
    D, K = labels.n_docs, labels.n_topics
    labels = labels.over_realized_words()
    if variant == "per-doc-group":
        group_side = np.concatenate([np.zeros(D, np.int64), np.ones(K, np.int64)])
        return state_from_label_arrays(
            D, labels.n_words, labels.d, labels.w, labels.d, D + labels.r, labels.counts,
            D + K, group_side,
        )
    if variant == "doc-clustering":
        group_side = np.concatenate([np.zeros(K, np.int64), np.ones(K, np.int64)])
        return state_from_label_arrays(
            D, labels.n_words, labels.d, labels.w, labels.r, K + labels.r, labels.counts,
            2 * K, group_side,
        )
    raise ValueError(f"unknown variant {variant!r}")


def fixed_label_score(sample: LdaSample | LabeledCounts, variant: str,
                      n_topics: int | None = None) -> ModelScore:
    """Description length of the labeled graph built from true labels, with a
    single-level edge-count prior (no nested hierarchy)."""
    labels = sample.labels if isinstance(sample, LdaSample) else sample
    if n_topics is not None and labels.n_topics != n_topics:
        raise ValueError(
            f"labels carry {labels.n_topics} topics but {n_topics} were requested"
        )
    state = labels_to_state(labels, variant)
    return joint_logp(state, model_id="hsbm", parametrization=variant)


# --- document-anchored batch fitter -------------------------------------------


def _topic_totals(idx: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """(n, K) float totals of the rows per index, one bincount per column
    summed in row order (exact for integer totals below 2**53).  Float also
    without rows: `bincount` of an empty index returns integers."""
    return np.stack([np.bincount(idx, weights=rows[:, r], minlength=n)
                     for r in range(rows.shape[1])], axis=1).astype(np.float64, copy=False)


def score_doc_anchored(rows: np.ndarray, bundles: BipartiteMultigraph,
                       max_overlap=None) -> ModelScore:
    """Exact description length of the label rows, per-doc-group, under the
    overlap cap `max_overlap`; without a cap it is bit-identical to scoring
    the dense tensor by `fixed_label_score`, as its `LabeledCounts.from_dense`
    arrays, in the same (d, w, r) order, are built here."""
    b, r = np.nonzero(rows)
    labels = LabeledCounts(bundles.n_docs, bundles.n_words, rows.shape[1],
                           bundles.doc_idx[b], bundles.word_idx[b], r, rows[b, r])
    return joint_logp(labels_to_state(labels, "per-doc-group"), max_overlap=max_overlap,
                      model_id="hsbm", parametrization="per-doc-group")


def _gibbs_anneal_anchored(rows, bundles, rng, sweeps=25,
                           pseudo_doc=1.0, pseudo_word=0.02,
                           t_start=2.0, t_end=0.4):
    """Tempered bundle resampling: each bundle's units are redrawn from the
    count-ratio conditional raised to 1/T along a cooling schedule.  Pure
    initialization heuristic; the exact objective drives the later descent.

    Sequential and scalar: the rows are held as lists, and the doc-topic,
    word-topic and topic totals as lists of floats (exact integers), so a
    bundle costs K scalar updates and one `rng.multinomial` call; `rows` is
    written once at the end.  Each conditional is computed in a fixed order: counts minus
    the bundle's row, (ndr + pseudo_doc) * (kwr + pseudo_word) / (nr + V *
    pseudo_word), max(x, 1e-300) ** (1/T), a left-to-right sum, then the
    division.  So the labels and the rng stream equal those of a numpy loop
    over (D, V, K) slices doing the same steps, up to rounding in the last
    bit: numpy's array power may be a SIMD routine that differs from the C
    library's `pow` by 1 ulp, and above 7 topics numpy sums pairwise.  Such
    a difference changes a draw only if a uniform lands within an ulp of a
    cumulative probability."""
    d_idx, w_idx = bundles.doc_idx, bundles.word_idx
    labels = rows.tolist()
    ndr = _topic_totals(d_idx, rows, bundles.n_docs).tolist()
    kwr = _topic_totals(w_idx, rows, bundles.n_words).tolist()
    nr = rows.sum(axis=0).astype(np.float64).tolist()
    docs, words, sizes = d_idx.tolist(), w_idx.tolist(), bundles.counts.tolist()
    norm = bundles.n_words * pseudo_word
    topics = range(rows.shape[1])
    order = np.arange(len(labels))
    for temp in np.geomspace(t_start, t_end, sweeps):
        rng.shuffle(order)
        inv = float(1.0 / temp)
        for t in order.tolist():
            cur, nd, kw = labels[t], ndr[docs[t]], kwr[words[t]]
            p, total = [], 0.0
            for r in topics:
                c = cur[r]
                nd[r] -= c
                kw[r] -= c
                nr[r] -= c
                x = max((nd[r] + pseudo_doc) * (kw[r] + pseudo_word)
                        / (nr[r] + norm), 1e-300) ** inv
                p.append(x)
                total += x
            new = rng.multinomial(sizes[t], [x / total for x in p]).tolist()
            labels[t] = new
            for r in topics:
                c = new[r]
                nd[r] += c
                kw[r] += c
                nr[r] += c
    rows[:] = np.asarray(labels, dtype=rows.dtype).reshape(rows.shape)
    return rows


def _anchored_restart(bundles: BipartiteMultigraph, K: int, ridx: int, rng,
                      max_rounds: int, gibbs_sweeps: int = 25, max_overlap=None,
                      temps=()):
    """One restart of the anchored fitter on the coalesced `bundles`.

    It draws a random split (word-pure on even restarts) and runs tempered
    bundle resampling to escape the symmetric start.  It then descends
    greedily, at most `max_rounds` rounds until a round accepts no batch (see
    `_anchored_round`); every sigma is scored under the overlap cap
    `max_overlap`.  With temperatures `temps` (anneal and mcmc fits), it
    continues with one tempered round per temperature, drawn from `rng`,
    descends again the same way, and keeps that state only if its sigma is
    more than 1e-9 below the first descent's; otherwise the first descent's
    rows come back.  Without `temps` it draws nothing after the resampling.

    Returns (rows, sigma, trace, converged, acceptance).  The trace is the
    start's sigma, then the sigma after each accepted batch, tempered or
    not, so it is nonincreasing without `temps`.  `converged` is False if
    the last descent used all `max_rounds` rounds and its last one still
    moved.  `acceptance` counts the tempered batch proposals and their
    acceptances (empty without `temps`)."""
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
    trace, best = [sigma], None
    stats = Counter(proposed=0, accepted=0) if len(temps) else Counter()
    for phase in [()] if len(temps) == 0 else [(), temps]:
        for temp in phase:
            sigma, _ = _anchored_round(rows, bundles, sigma, trace, max_overlap,
                                       float(temp), rng, stats)
        converged = False
        for _ in range(max_rounds):
            sigma, moved = _anchored_round(rows, bundles, sigma, trace, max_overlap)
            if not moved:
                converged = True
                break
        if best is None or sigma < best[1] - 1e-9:
            best = rows.copy(), sigma
    return best[0], best[1], trace, converged, dict(stats)


def _anchored_round(rows, bundles, sigma, trace, max_overlap, temperature=0.0,
                    rng=None, stats=None):
    """One round of the anchored search: whole-word, proportional,
    whole-bundle and single-unit shifts toward the label with the best
    count-ratio gain, each proposed once and passed to `_try_batch` at
    `temperature`.  Appends the sigma of each accepted batch to `trace` and
    counts proposals and acceptances in `stats` when given; returns (sigma,
    whether a batch was accepted)."""
    moved = False
    for kind in ("word", "prop", "bundle", "unit"):
        cand = _anchored_proposal(rows, bundles, kind)
        if cand is None:
            continue
        accepted, sigma = _try_batch(rows, cand, sigma, bundles, max_overlap, temperature, rng)
        if stats is not None:
            stats.update(proposed=1, accepted=int(accepted))
        if accepted:
            trace.append(sigma)
            moved = True
    return sigma, moved


def fit_doc_anchored(counts: np.ndarray, n_topics: int, seed: int = 0,
                     n_restarts: int = 3, max_rounds: int = 60,
                     gibbs_sweeps: int = 25):
    """Fit token labels with documents pinned to their own groups and a
    capped number of word groups: the best (ties to the lowest index) of
    `n_restarts` greedy runs of `_anchored_restart` with independent seed
    streams.  Returns the (D, V, K) labels, their description length and the
    winning descent's trace, which is nonincreasing."""
    if n_topics < 1:
        raise ValueError(f"n_topics must be at least 1, not {n_topics}")
    if n_restarts < 1:
        raise ValueError(f"n_restarts must be at least 1, not {n_restarts}")
    counts = np.asarray(counts, dtype=np.int64)
    d_idx, w_idx = np.nonzero(counts)
    bundles = BipartiteMultigraph(*counts.shape, d_idx, w_idx, counts[d_idx, w_idx])
    seeds = np.random.SeedSequence(seed).spawn(n_restarts)
    runs = (_anchored_restart(bundles, n_topics, ridx, np.random.default_rng(seq),
                              max_rounds, gibbs_sweeps) for ridx, seq in enumerate(seeds))
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
        dist = ((mat[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
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
    delta (the first of equal ones) if that is below -1e-9 nats.  A side's
    targets are the groups occupied at the start of its pass, so a node may
    move into a group emptied earlier in the pass.  Stops after `max_sweeps`
    sweeps or a sweep without a move; returns the sum of the applied deltas."""
    total = 0.0
    for _ in range(max_sweeps):
        moved = False
        for side, assign in ((0, agg.doc_assign), (1, agg.word_assign)):
            groups = sorted(agg.tables[side])
            for node in np.flatnonzero(assign >= 0).tolist():
                src = int(assign[node])
                part = agg._node_part(side, node)
                best = min(((agg._move_delta(side, src, dst, part), dst)
                            for dst in groups if dst != src), default=(0.0, src))
                if best[0] < -1e-9:
                    agg._apply_transfer(side, src, best[1], part, node)
                    total += best[0]
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
        part = agg._node_part(side, node)
        delta = agg._move_delta(side, src, dst, part)
        if (delta < 0 if temperature <= 0 else
                rng.random() < math.exp(min(700.0, -delta / temperature)) * ratio):
            agg._apply_transfer(side, src, dst, part, node)
            total += delta
            accepted += 1
    return total, len(nodes), accepted


def _shifted(freq: Counter, extra: dict, sign: int) -> Counter:
    """Degree histogram `freq` plus sign * `extra`, keys in the order of `Counter` addition."""
    out = Counter(freq)
    for k, c in extra.items():
        out[k] += sign * c
        if not out[k]:
            del out[k]
    return out


_EMPTY_GROUP = {"n": 0, "e": 0, "freq": Counter(), "terms": (0.0, 0.0, 0)}


class NonoverlappingAgglomerator:
    """Exact greedy merges and node moves for nonoverlapping bipartite states.

    Works on group-level tables (the aggregated edge matrix, each group's
    size, degree total, degree histogram, and cached own terms), so a
    candidate costs O(groups + distinct degrees).  A merge (b into a) and a
    node move (v from a to b) both move a part of one group into another, so
    one delta and one apply serve both; global terms enter only when a move
    changes a side's group count.  Each delta equals the change of
    `joint_logp` between the materialized states, under the overlap cap
    `max_overlap` when one is given.  Degree-0 nodes belong to
    no group and are marked -1.  Log-factorials are lookups in
    `util.log_factorial_table`, equal to `log_factorial` of the same count,
    and an empty group's terms are exact zeros, so merge deltas are
    bit-identical to scoring the merged group cell by cell.
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
        self.e_mat = np.zeros((self.Gd, self.Gw), dtype=np.int64)
        d_idx, w_idx = np.nonzero(self.counts)
        np.add.at(self.e_mat, (self.doc_assign[d_idx], self.word_assign[w_idx]),
                  self.counts[d_idx, w_idx])
        self.tables = {}
        for side, assign in ((0, self.doc_assign), (1, self.word_assign)):
            members = {}
            for g, k in zip(assign.tolist(), self.degrees[side].tolist()):
                if g >= 0:
                    members.setdefault(g, []).append(k)
            self.tables[side] = {g: self._entry(len(ks), sum(ks), Counter(ks))
                                 for g, ks in members.items()}

    # With singleton mixtures, a group's own terms are log e_r!, log p(e_r,
    # n_r) and -sum_k log n_k! (the degree-assignment n_r! cancels against
    # the partition prior's mixture factorial); its edge-matrix cells add
    # -sum_s log e_rs!; the rest depends only on (N, B).

    def _entry(self, n, e, freq) -> dict:
        lf = self._log_fact
        return {"n": n, "e": e, "freq": freq,
                "terms": (lf[e], log_partitions(e, n), sum(lf[c] for c in freq.values()))}

    def _global_terms(self, side, change=0) -> float:
        """Terms that depend only on (N, B), once `side` gains `change`
        groups: the side's size histogram prior (over mixture sizes up to
        Q = min(cap, B)), size assignment and mixture-frequency histogram
        prior, and the edge-count prior."""
        n_eff = sum(e["n"] for e in self.tables[side].values())
        B = len(self.tables[side]) + change
        B_all = len(self.tables[0]) + len(self.tables[1]) + change
        Q = B if self.max_overlap is None else min(self.max_overlap, B)
        lf = self._log_fact
        out = 0.0
        if n_eff:
            out = float(lf[n_eff + Q - 1] - lf[n_eff] - lf[Q - 1])      # -log P(n)
            # all mixtures have size one: P(q | n) = 1
            out += log_num_compositions_large(float(np.log(B)), n_eff)  # -log P(n_b | n_q)
            out += float(lf[n_eff])                                     # -log P(b | n_b): / n_q!
        return out - logp_geometric(self.E, B_all, top_level_density(self.E, B_all))

    # -- moves: a part (n, e, freq, row) is a node count, a degree total, a
    # degree histogram, and the edge counts toward the other side's groups --

    def _row(self, side, g):
        return self.e_mat[g, :] if side == 0 else self.e_mat[:, g]

    def _cells(self, row):
        """Sum of log e_rs! over the row's cells."""
        return self._log_fact[row[row > 0]].sum()

    def _node_part(self, side, node):
        k = int(self.degrees[side][node])
        edges = self.counts[node, :] if side == 0 else self.counts[:, node]
        other = self.word_assign if side == 0 else self.doc_assign
        nbrs = np.flatnonzero(edges)
        row = np.bincount(other[nbrs], weights=edges[nbrs], minlength=self.e_mat.shape[1 - side])
        return 1, k, {k: 1}, row.astype(np.int64)

    def _after_transfer(self, side, src, dst, part):
        """Table entries of groups dst and src once `part` moves from src to dst."""
        n, e, freq, _ = part
        d, s = self.tables[side].get(dst, _EMPTY_GROUP), self.tables[side][src]
        return (self._entry(d["n"] + n, d["e"] + e, _shifted(d["freq"], freq, 1)),
                self._entry(s["n"] - n, s["e"] - e, _shifted(s["freq"], freq, -1))
                if s["n"] > n else _EMPTY_GROUP)

    def _transfer_delta(self, side, src, dst, part) -> float:
        """Change of the terms of groups src and dst when `part` moves from
        src to dst, global terms excluded.  Each term is summed as new dst +
        new src - old dst - old src, so for a merge, whose new src is empty,
        the sums equal those of scoring the merged group alone."""
        after = self._after_transfer(side, src, dst, part)
        new = [t["terms"] for t in after]
        old = [self.tables[side].get(g, _EMPTY_GROUP)["terms"] for g in (dst, src)]
        row_d, row_s = self._row(side, dst), self._row(side, src)
        cells_s = self._cells(row_s - part[3]) if after[1]["n"] else 0.0
        delta = new[0][0] + new[1][0] - old[0][0] - old[1][0]
        delta -= float(self._cells(row_d + part[3]) + cells_s
                       - self._cells(row_d) - self._cells(row_s))
        delta += new[0][1] + new[1][1] - old[0][1] - old[1][1]
        return float(delta - new[0][2] - new[1][2] + old[0][2] + old[1][2])

    def _move_delta(self, side, src, dst, part) -> float:
        """Full change when `part` moves from src to dst, with the global
        terms when src empties or dst was empty."""
        change = (dst not in self.tables[side]) - (self.tables[side][src]["n"] == part[0])
        global_part = self._global_terms(side, change) - self._global_terms(side) if change else 0.0
        return self._transfer_delta(side, src, dst, part) + global_part

    def _apply_transfer(self, side, src, dst, part, nodes):
        """Move `part`, the side's `nodes` (an index or a mask), from src to dst."""
        groups = self.tables[side]
        groups[dst], groups[src] = self._after_transfer(side, src, dst, part)
        if not groups[src]["n"]:
            del groups[src]
        self._row(side, dst)[:] += part[3]
        self._row(side, src)[:] -= part[3]
        (self.doc_assign if side == 0 else self.word_assign)[nodes] = dst

    # -- merging -------------------------------------------------------------

    def _merge_part(self, side, b):
        t = self.tables[side][b]
        return t["n"], t["e"], t["freq"], self._row(side, b).copy()

    def _local_merge_delta(self, side, a, b) -> float:
        """Merge delta of b into a without the global group-count terms
        shared by all pairs of this side."""
        return self._transfer_delta(side, b, a, self._merge_part(side, b))

    def _apply_merge(self, side, a, b):
        assign = self.doc_assign if side == 0 else self.word_assign
        self._apply_transfer(side, b, a, self._merge_part(side, b), assign == b)

    def greedy_merge(self) -> float:
        """Alternate sides, word side first, applying the best merge that
        lowers the description length by more than 1e-9 nats until none
        remains; returns the sum of the applied deltas.  Local pair deltas
        are cached and refreshed only for pairs touching the last merge."""
        total = 0.0
        caches = {side: {(a, b): self._local_merge_delta(side, a, b)
                         for a, b in itertools.combinations(sorted(self.tables[side]), 2)}
                  for side in (1, 0)}
        improved = True
        while improved:
            improved = False
            for side in (1, 0):
                cache = caches[side]
                if not cache:  # fewer than two groups
                    continue
                global_part = self._global_terms(side, -1) - self._global_terms(side)
                (a, b), local = min(cache.items(), key=lambda kv: kv[1])
                if local + global_part < -1e-9:
                    # cached pairs of this side predate merges on the other
                    # side, so the applied delta is recomputed for the total
                    total += self._local_merge_delta(side, a, b) + global_part
                    self._apply_merge(side, a, b)
                    caches[side] = {
                        pair: (self._local_merge_delta(side, *pair)
                               if a in pair else val)
                        for pair, val in cache.items()
                        if b not in pair
                    }
                    improved = True
        return total

    def materialize(self):
        """Compacted (doc_assign, word_assign) arrays of the current state."""
        doc = self.doc_assign.copy()
        word = self.word_assign.copy()
        _, doc[doc >= 0] = np.unique(doc[doc >= 0], return_inverse=True)
        _, word[word >= 0] = np.unique(word[word >= 0], return_inverse=True)
        return doc, word


def refine_doc_clusters(labels_dense: np.ndarray, seed: int = 0,
                        doc_grid=(1, 2, 3, 4, 6, 8),
                        kmeans_restarts: int = 2, grow_levels: int = 3,
                        polish_sweeps: int = 2):
    """Coarsen an anchored fit into clustered candidates and keep the best.

    Document groups are seeded by k-means over the fitted topic mixtures and
    over raw word-usage profiles; given each document seed, word groups (and
    further document merges) come from exact greedy agglomeration starting at
    word singletons; a repeated k-means seed is skipped, and seeds that
    agglomerate to the same state give one candidate.  Every candidate
    (including the anchored state itself and the construction that labels both
    half-edges by the token topic) is scored exactly.  The best agglomerated
    candidate is polished by node moves on its agglomerator's group tables
    (`block_polish`); the topic-pair construction is overlapping, so it is not
    polished.  The three leaders among the candidates with a clustered state
    get nested levels grown on top before the lowest description length wins.
    The coarsening never alters word-side topic labels of the anchored fit, so
    its topic mixtures are preserved.

    Returns (score, meta).  For a clustered winner, meta is the compacted
    (doc, word) group assignment of the scored state, the polished one when
    polish (or levels grown on it) wins; otherwise it is "topic-pair", or
    None for the anchored state.
    """
    z = np.asarray(labels_dense)
    D, V, K = z.shape
    counts = z.sum(axis=2)
    k_d = counts.sum(axis=1)
    theta_hat = z.sum(axis=1) / np.maximum(k_d, 1)[:, None]
    profiles = counts / np.maximum(k_d, 1)[:, None]
    rng = np.random.default_rng(seed)

    def clustered(da, wa, suffix=""):
        """Exact score and labeled state of the assignment (da, wa)."""
        Gd, Gw = int(da.max()) + 1, int(wa.max()) + 1
        st = _block_state(counts, da, wa)
        return joint_logp(st, model_id="hsbm",
                          parametrization=f"clustered[{Gd}x{Gw}]{suffix}"), st

    lab = LabeledCounts.from_dense(z)
    candidates = [(fixed_label_score(lab, "per-doc-group"), None, None),
                  (fixed_label_score(lab, "doc-clustering"), "topic-pair",
                   labels_to_state(lab, "doc-clustering"))]
    seen, seen_seeds = set(), set()
    for feat in (theta_hat, profiles):
        for G in doc_grid:
            for _ in range(kmeans_restarts):
                seed_assign = _kmeans(feat, G, rng)
                if seed_assign.tobytes() in seen_seeds:
                    continue  # it agglomerates to a state already seen
                seen_seeds.add(seed_assign.tobytes())
                agg = NonoverlappingAgglomerator(counts, seed_assign, np.arange(V))
                agg.greedy_merge()
                da, wa = agg.materialize()
                key = (da.tobytes(), wa.tobytes())
                if key in seen:
                    continue
                seen.add(key)
                try:
                    sc, st = clustered(da, wa)
                except IntegrityError:
                    continue
                candidates.append((sc, (da, wa), st))
    candidates.sort(key=lambda c: c[0].sigma_nats)
    best = candidates[0][:2]
    with_state = [c for c in candidates if c[2] is not None]
    to_polish = next((c[1] for c in with_state if isinstance(c[1], tuple)), None)
    for sc, meta, st in with_state[:3]:
        if meta is to_polish and polish_sweeps:
            agg = NonoverlappingAgglomerator(counts, *meta)
            block_polish(agg, max_sweeps=polish_sweeps)
            meta = agg.materialize()
            sc, st = clustered(*meta, suffix="+polish")
            if sc.sigma_nats < best[0].sigma_nats:
                best = (sc, meta)
        if grow_levels > 1:
            _, grown = grow_hierarchy(st, grow_levels)
            grown = ModelScore(grown.sigma_nats, grown.breakdown,
                               "hsbm", sc.parametrization + "+levels")
            if grown.sigma_nats < best[0].sigma_nats:
                best = (grown, meta)
    return best


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

    "bundle" sends a bundle's whole mass to the best topic, "prop" splits it
    proportionally to the exponentiated gains (shared words stay shared), and
    "unit" shifts a single unit from the weakest occupied topic to the best.
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
    donor, split = target, None  # a donor serves only "unit", a split only "prop"
    if mode == "word":
        # coordinated move of a word's entire column to one topic
        n_w = kwr.sum(axis=1)
        col_gain = _topic_totals(w_idx, n_dw[:, None] * np.log(ndr + 0.5)[d_idx], V)
        col_gain -= n_w[:, None] * np.log(nr + 0.5)[None, :]
        word_target = col_gain.argmax(axis=1)
        target = word_target[w_idx]
        movable = (n_dw - rows[idx, target]) > 0
        word_margin = col_gain.max(axis=1) - (
            (col_gain * kwr).sum(axis=1) / np.maximum(n_w, 1)
        )
        margin = word_margin[w_idx] / np.maximum(n_w, 1)[w_idx]
    elif mode == "bundle":
        movable = (n_dw - rows[idx, target]) > 0
        margin = gain[idx, target] - (gain * rows).sum(axis=1) / np.maximum(n_dw, 1)
    elif mode == "prop":
        p = np.exp(gain - gain.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        split = _largest_remainder_round(n_dw, p)
        movable = np.any(split != rows, axis=1)
        margin = np.abs(split - rows).sum(axis=1).astype(float)
    else:
        donor = np.where(rows > 0, gain, np.inf).argmin(axis=1)
        movable = (rows[idx, donor] > 0) & (donor != target)
        margin = gain[idx, target] - gain[idx, donor]
    if not np.any(movable):
        return None
    return {"target": target, "donor": donor, "margin": margin,
            "mask": movable, "mode": mode, "split": split}


def _apply_anchored(rows, cand, bundles, subset):
    """Apply the candidate on a subset of bundles; returns an undo record."""
    sel = np.nonzero(cand["mask"] & subset)[0]
    before = rows[sel].copy()
    if cand["mode"] in ("bundle", "word"):
        rows[sel] = 0
        rows[sel, cand["target"][sel]] = bundles.counts[sel]
    elif cand["mode"] == "prop":
        rows[sel] = cand["split"][sel]
    else:
        rows[sel, cand["donor"][sel]] -= 1
        rows[sel, cand["target"][sel]] += 1
    return sel, before


def _try_batch(rows, cand, sigma, bundles, max_overlap=None, temperature=0.0, rng=None):
    """Try the proposal on the full bundle set, then on the highest-margin
    quarter, sixteenth and sixty-fourth of it.  A batch passes if it lowers
    sigma, scored under the overlap cap `max_overlap`, by more than 1e-9;
    at `temperature` > 0 it also passes with probability exp(-delta / T),
    drawn from `rng` only for such a batch.  Returns (accepted, sigma) with
    the rows at the accepted state, or unchanged."""
    order = np.argsort(-cand["margin"])
    fraction = 1.0
    while fraction >= 1 / 64:
        take = order[: max(1, int(len(order) * fraction))]
        subset = np.zeros(len(rows), dtype=bool)
        subset[take] = True
        sel, before = _apply_anchored(rows, cand, bundles, subset)
        new_sigma = score_doc_anchored(rows, bundles, max_overlap).sigma_nats
        if new_sigma < sigma - 1e-9 or (temperature > 0 and rng.random() < math.exp(
                min(700.0, (sigma - new_sigma) / temperature))):
            return True, new_sigma
        rows[sel] = before
        fraction /= 4
    return False, sigma
