"""Exact log-probability kernel for the microcanonical block model.

The joint probability of a labeled multigraph factorizes into independent
pieces, each a uniform distribution over a counted set:

* the labeled graph given labeled degrees k and group-pair edge counts e
  (a ratio of half-edge pairing counts),
* the labeled degrees given e, conditioned on the overlapping partition
  implied by k (degree histograms inside each group mixture, with restricted
  integer partition counts),
* the overlapping partition itself (mixture-size histogram, mixture
  frequencies, node assignments),
* the edge-count matrix, either geometric at a fixed density scale or, in a
  nested hierarchy, distributed uniformly under the coarser level's matrix.

For word-document graphs the partition factors split by side, so document
and word nodes are never grouped together.  Everything below is evaluated in
log space from sparse count aggregates; nothing touches individual tokens.

The aggregates are built by numpy grouping, not per-element loops:
`CountTables` sorts each key set once and sums with `reduceat`/`bincount`
(exact integers), and `side_statistics` groups the (node, group)-sorted
labeled degrees into node runs and integer keys.  Its dicts are filled in
order of first occurrence by node, the order a node-by-node visit gives, so
every float sum over them runs in a fixed order and scores are reproducible
to the bit.  Integer log-factorials come from `util.log_factorial_table`,
which equals the scalar `log_factorial` bit for bit.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .graph import LabeledGraph
from .partition_counts import log_partitions
from .scores import ModelScore
from .util import (
    IntegrityError,
    log_binom,
    log_double_factorial_even,
    log_factorial,
    log_factorial_table,
    log_num_compositions,
    log_num_compositions_large,
)


# --- sparse count aggregates ----------------------------------------------


def _sorted_sums(key: np.ndarray, weight: np.ndarray):
    """Distinct keys in ascending order and the exact integer sum of the
    weights of each, from one sort."""
    order = np.argsort(key)
    key, weight = key[order], weight[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]]) if len(key) else key
    return key[starts], np.add.reduceat(weight, starts)


def _first_occurrence_counts(key: np.ndarray):
    """Distinct keys with their counts, in order of first occurrence."""
    uniq, first, counts = np.unique(key, return_index=True, return_counts=True)
    order = np.argsort(first)
    return uniq[order], counts[order]


def _counter(items) -> Counter:
    """A Counter of the (key, count) `items` in their order, built without
    `Counter.__init__`, whose Python-level update dominates when one is
    built per (mixture, group)."""
    out = Counter.__new__(Counter)
    dict.update(out, items)
    return out


class CountTables:
    """Sparse (e, k) aggregates of a labeled state.

    Edge-count entries are stored for unordered group pairs r <= s with the
    diagonal holding twice the number of within-group edges, so that group
    totals e_r sum to 2E.  Labeled degrees keep only nonzero (node, group)
    pairs, sorted by (node, group).
    """

    def __init__(self, state: LabeledGraph):
        self.n_nodes = state.n_nodes
        self.n_groups = state.n_groups
        B = state.n_groups
        lo = np.minimum(state.r, state.s)
        hi = np.maximum(state.r, state.s)
        uniq, self.pair_e = _sorted_sums(lo * B + hi, np.where(lo == hi, 2 * state.m, state.m))
        self.pair_r = uniq // B
        self.pair_s = uniq % B
        self.E = int(state.m.sum())

        kuniq, self.k_val = _sorted_sums(np.concatenate([state.i * B + state.r, state.j * B + state.s]),
                                         np.concatenate([state.m, state.m]))
        self.k_node = kuniq // B
        self.k_group = kuniq % B
        self.e_r = np.bincount(self.k_group, weights=self.k_val, minlength=B).astype(np.int64)

    def dense_e(self) -> np.ndarray:
        e = np.zeros((self.n_groups, self.n_groups), dtype=np.int64)
        e[self.pair_r, self.pair_s] = self.pair_e
        e[self.pair_s, self.pair_r] = self.pair_e
        return e


def compress_groups(state: LabeledGraph) -> LabeledGraph:
    """Relabel to occupied groups only (ascending old index order)."""
    B = state.n_groups
    occupied = np.flatnonzero(np.bincount(state.r, minlength=B) + np.bincount(state.s, minlength=B))
    remap = -np.ones(B, dtype=np.int64)
    remap[occupied] = np.arange(len(occupied))
    return LabeledGraph(
        state.n_nodes, state.i, state.j, remap[state.r], remap[state.s], state.m,
        len(occupied), side=state.side,
        group_side=None if state.group_side is None else state.group_side[occupied],
    )


# --- flat (noninformative) pieces ------------------------------------------


def logp_graph_given_ke(state: LabeledGraph, tables: CountTables | None = None) -> float:
    """log of (pairings yielding this labeled graph) / (pairings matching e).

    Within-group totals e_rr must be even; loop bundles with equal labels
    carry a double-factorial correction because their two stubs are
    exchangeable.
    """
    t = tables if tables is not None else CountTables(state)
    diag = t.pair_r == t.pair_s
    if np.any(t.pair_e[diag] % 2 != 0):
        raise IntegrityError("odd within-group edge total")
    log_xi = float(log_factorial(t.k_val).sum())
    loops = state.i == state.j
    equal = loops & (state.r == state.s)
    plain = ~equal
    log_xi -= float(log_factorial(state.m[plain]).sum())
    if np.any(equal):
        log_xi -= float(log_double_factorial_even(2 * state.m[equal]).sum())
    log_omega = float(log_factorial(t.e_r).sum())
    log_omega -= float(log_factorial(t.pair_e[~diag]).sum())
    log_omega -= float(log_double_factorial_even(t.pair_e[diag]).sum())
    return log_xi - log_omega


def logp_degrees_flat(tables: CountTables, n_nodes: int | None = None) -> float:
    """Uniform prior over labeled degree sequences: each group's half-edge
    total is distributed over all nodes as indistinguishable items."""
    n = tables.n_nodes if n_nodes is None else n_nodes
    if np.any(tables.e_r < 0):
        raise IntegrityError("negative group degree total")
    return -float(log_num_compositions(tables.e_r, np.full_like(tables.e_r, n)).sum())


def logp_geometric(E: int, B: int, omega_bar: float) -> float:
    """Log-probability of E edges as independent geometric entries with mean
    omega_bar over the B(B+1)/2 unordered group pairs (within-group entries
    counted in halves)."""
    if E == 0:
        return -(B * (B + 1) / 2.0) * math.log1p(omega_bar)
    if omega_bar <= 0:
        return -np.inf
    return E * math.log(omega_bar) - (E + B * (B + 1) / 2.0) * math.log1p(omega_bar)


def logp_edge_matrix_geometric(tables: CountTables, omega_bar: float,
                               n_groups: int | None = None) -> float:
    """`logp_geometric` of a state's edge total over its B groups."""
    B = tables.n_groups if n_groups is None else n_groups
    return logp_geometric(tables.E, B, omega_bar)


def logp_marginal_flat(state: LabeledGraph, omega_bar: float) -> float:
    """Closed-form marginal of the labeled graph under noninformative mixture
    and rate priors; equals the sum of the three microcanonical pieces."""
    t = CountTables(state)
    out = logp_geometric(t.E, t.n_groups, omega_bar)
    N = t.n_nodes
    diag = t.pair_r == t.pair_s
    out += float(log_factorial(t.pair_e[~diag]).sum())
    out += float(log_double_factorial_even(t.pair_e[diag]).sum())
    loops = state.i == state.j
    equal = loops & (state.r == state.s)
    out -= float(log_factorial(state.m[~equal]).sum())
    if np.any(equal):
        out -= float(log_double_factorial_even(2 * state.m[equal]).sum())
    out += float((log_factorial(N - 1) - log_factorial(t.e_r + N - 1)).sum())
    out += float(log_factorial(t.k_val).sum())
    return out


# --- overlapping partitions and degree priors -------------------------------


@dataclass
class SideStats:
    """Mixture bookkeeping for the nodes of one side (or all nodes)."""

    n_groups: int                       # groups available on this side
    n_eff: int = 0                      # nodes with a nonempty mixture
    size_hist: Counter = field(default_factory=Counter)      # q -> n_q
    mixture_count: Counter = field(default_factory=Counter)  # mixture -> n_b
    e_mix: dict = field(default_factory=dict)       # (mixture, r) -> degree sum
    deg_freq: dict = field(default_factory=dict)    # (mixture, r) -> Counter{k: freq}
    members_with: Counter = field(default_factory=Counter)   # r -> node count S_r
    m_r: Counter = field(default_factory=Counter)  # r -> occupied mixtures containing r
    e_r: Counter = field(default_factory=Counter)  # r -> half-edge total


def side_statistics(state: LabeledGraph, tables: CountTables | None = None):
    """Per-side mixture statistics derived from the nonzero labeled degrees.

    Nodes with no half-edges carry an empty mixture and do not enter the
    partition support.  Groups are re-expressed per side but keep their
    global indices.

    Built by array grouping over the tables' (node, group)-sorted labeled
    degrees: node runs give each node's mixture tuple, mixtures get ids in
    order of first occurrence by node, and every sum or frequency comes from
    `bincount`/`np.unique` on integer keys.  Each dict is filled once per
    distinct key, in order of first occurrence by node (by labeled degree
    within a node; e_r by ascending group), so `size_hist`,
    `mixture_count`, `e_mix` and every `deg_freq` Counter iterate as if the
    nodes had been visited one by one, and the sums over them are
    reproducible to the bit.
    """
    t = tables if tables is not None else CountTables(state)
    nodes, groups, vals = t.k_node, t.k_group, t.k_val
    n, B = len(nodes), state.n_groups
    starts = np.flatnonzero(np.r_[True, nodes[1:] != nodes[:-1]]) if n else nodes
    sizes = np.diff(np.r_[starts, n])
    node_side = np.zeros(len(starts), np.int64) if state.side is None else state.side[nodes[starts]]

    if state.side is None:
        sides = {0: SideStats(n_groups=B)} if n else {}
    else:  # both sides, in order of their first node
        sides = {sd: SideStats(n_groups=int((state.group_side == sd).sum()))
                 for sd in dict.fromkeys(node_side.tolist() + [0, 1])}

    group_list = groups.tolist()
    ids = {}  # (side, mixture) -> id, numbered by first occurrence
    node_mix = np.array([ids.setdefault((sd, tuple(group_list[a:a + q])), len(ids))
                         for sd, a, q in zip(node_side.tolist(), starts.tolist(), sizes.tolist())],
                        dtype=np.int64)
    mixtures = list(ids)
    mix_side = np.array([sd for sd, _ in mixtures], dtype=np.int64)
    mix_len = np.array([len(mix) for _, mix in mixtures], dtype=np.int64)
    # pair id of each labeled degree: its mixture's offset plus its position in the node's run
    offset = np.cumsum(mix_len) - mix_len
    entry_pair = np.repeat(offset[node_mix] - starts, sizes) + np.arange(n)
    n_pairs = int(mix_len.sum())

    e_sums = np.bincount(entry_pair, weights=vals, minlength=n_pairs).astype(np.int64).tolist()
    k_span = int(vals.max(initial=0)) + 1
    freq_key, freq_count = _first_occurrence_counts(entry_pair * k_span + vals)
    by_pair = np.argsort(freq_key // k_span, kind="stable")
    freq_k = (freq_key[by_pair] % k_span).tolist()
    freq_count = freq_count[by_pair].tolist()
    bounds = np.searchsorted(freq_key[by_pair] // k_span, np.arange(n_pairs + 1)).tolist()

    pair_keys = [(mix, g) for _, mix in mixtures for g in mix]
    pair_side = np.repeat(mix_side, mix_len)
    for sd, key, esum, lo, hi in zip(pair_side.tolist(), pair_keys, e_sums, bounds, bounds[1:]):
        sides[sd].e_mix[key] = esum
        sides[sd].deg_freq[key] = _counter(zip(freq_k[lo:hi], freq_count[lo:hi]))
    for (sd, mix), nb in zip(mixtures, np.bincount(node_mix, minlength=len(mixtures)).tolist()):
        sides[sd].n_eff += nb
        sides[sd].mixture_count[mix] = nb
    tallies = (
        ("size_hist", node_side, sizes),
        ("members_with", np.repeat(node_side, sizes), groups),
        ("m_r", pair_side, np.array([g for _, g in pair_keys], dtype=np.int64)),
    )
    for name, key_side, key in tallies:
        span = int(max(B, key.max(initial=0))) + 1
        uniq, counts = _first_occurrence_counts(key_side * span + key)
        for u, c in zip(uniq.tolist(), counts.tolist()):
            getattr(sides[u // span], name)[u % span] = c
    group_side = np.zeros(B, np.int64) if state.side is None else state.group_side
    for r in np.flatnonzero(t.e_r).tolist():
        sides[int(group_side[r])].e_r[r] = int(t.e_r[r])
    return sides


def logp_overlap_partition(stats: SideStats, max_overlap: int | None = None) -> float:
    """Log-probability of one side's overlapping partition: uniform mixture
    size histogram, uniform size assignment, uniform mixture frequencies per
    size, uniform mixture assignment."""
    if stats.n_eff == 0:
        return 0.0
    B = stats.n_groups
    Q = B if max_overlap is None else min(max_overlap, B)
    if any(q > Q for q in stats.size_hist):
        raise ValueError(f"node mixture exceeds the overlap bound {Q}")
    lf = log_factorial_table(stats.n_eff)  # every count here is at most n_eff
    out = -float(log_num_compositions(stats.n_eff, Q))
    out += float(sum(lf[nq] for nq in stats.size_hist.values()))
    out -= float(lf[stats.n_eff])
    for q, n_q in stats.size_hist.items():
        out -= log_num_compositions_large(float(log_binom(B, q)), n_q)
        out -= float(lf[n_q])
    for mixture, nb in stats.mixture_count.items():
        out += float(lf[nb])
    return out


def logp_degrees_given_mixtures(stats_by_side: dict) -> float:
    """Log-probability of the labeled degrees given e and the mixtures.

    Per group: a uniform split of its half-edge total across the occupied
    mixtures containing it, with every mixture taking at least one half-edge
    per member node.  Per (mixture, group): a uniform restricted partition of
    the per-mixture degree sum into one positive degree per member, then a
    uniform assignment of those degrees to the members.
    """
    out = 0.0
    for st in stats_by_side.values():
        lf = log_factorial_table(st.n_eff)  # mixture and degree-frequency counts are at most n_eff
        for r, er in st.e_r.items():
            mr = st.m_r.get(r, 0)
            sr = st.members_with.get(r, 0)
            if mr == 0 or er < sr:
                raise IntegrityError(
                    f"group {r} degree total {er} inconsistent with its {sr} members"
                )
            out -= float(log_num_compositions(er - sr, mr))
        for (mixture, g), esum in st.e_mix.items():
            nb = st.mixture_count[mixture]
            lp = log_partitions(esum, nb)
            if lp == -np.inf:
                raise IntegrityError(
                    f"degree sum {esum} cannot split into {nb} positive parts"
                )
            out -= lp
            out += float(sum(lf[c] for c in st.deg_freq[(mixture, g)].values()))
            out -= float(lf[nb])
    return out


def logp_partition_bipartite(state: LabeledGraph, max_overlap: int | None = None,
                             stats_by_side: dict | None = None) -> float:
    """Product of per-side overlapping partition priors.  A group whose
    half-edges touch both sides makes the state inconsistent: IntegrityError
    names the first offending bundle."""
    if state.side is not None:
        bad_r = state.group_side[state.r] != state.side[state.i]
        bad_s = state.group_side[state.s] != state.side[state.j]
        if np.any(bad_r) or np.any(bad_s):
            which = np.nonzero(bad_r | bad_s)[0][0]
            raise IntegrityError(
                f"bundle {int(which)} labels a half-edge with a group from the other side"
            )
    stats = stats_by_side if stats_by_side is not None else side_statistics(state)
    return float(sum(logp_overlap_partition(st, max_overlap) for st in stats.values()))


# --- nested hierarchy --------------------------------------------------------


@dataclass
class Hierarchy:
    """Nested coarse-grainings above the base partition.

    `assignments[l]` maps the group ids of level l+1 onto the group ids of
    level l+2 (level 1 being the base partition of the nodes).  An empty list
    is the flat model.
    """

    assignments: list[np.ndarray] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.assignments) + 1


def aggregate_matrix(e: np.ndarray, assignment: np.ndarray, n_coarse: int) -> np.ndarray:
    """Coarse-grain a symmetric edge-count matrix under a group assignment."""
    out = np.zeros((n_coarse, n_coarse), dtype=np.int64)
    idx = np.asarray(assignment, dtype=np.int64)
    np.add.at(out, (idx[:, None], idx[None, :]), e)
    return out


def logp_level_matrix(e_fine: np.ndarray, assignment: np.ndarray, n_coarse: int,
                      e_coarse: np.ndarray | None = None) -> float:
    """Uniform prior of a fine edge matrix under its coarse aggregate: each
    coarse pair's count is spread over the compatible fine pairs."""
    assignment = np.asarray(assignment, dtype=np.int64)
    sizes = np.bincount(assignment, minlength=n_coarse).astype(np.int64)
    agg = aggregate_matrix(e_fine, assignment, n_coarse)
    if e_coarse is not None and not np.array_equal(agg, e_coarse):
        raise IntegrityError("stored coarse matrix does not aggregate from the fine one")
    out = 0.0
    for r in range(n_coarse):
        if agg[r, r] % 2 != 0:
            raise IntegrityError("odd within-group total at a coarse diagonal")
        out -= float(log_num_compositions(agg[r, r] // 2, sizes[r] * (sizes[r] + 1) // 2))
        for s in range(r + 1, n_coarse):
            out -= float(log_num_compositions(agg[r, s], sizes[r] * sizes[s]))
    return out


def logp_level_partition(assignment: np.ndarray, group_side=None) -> float:
    """Prior of a non-overlapping partition of B_prev items, per side when
    side metadata is present: uniform over assignments given sizes, over
    compositions given the coarse count, and over the coarse count itself."""
    assignment = np.asarray(assignment, dtype=np.int64)
    sides = [np.ones(len(assignment), dtype=bool)] if group_side is None else [
        np.asarray(group_side) == 0, np.asarray(group_side) == 1,
    ]
    out = 0.0
    for mask in sides:
        b_prev = int(mask.sum())
        if b_prev == 0:
            continue
        coarse = np.unique(assignment[mask])
        b_new = len(coarse)
        sizes = np.array([(assignment[mask] == c).sum() for c in coarse])
        out += float(log_factorial(sizes).sum()) - float(log_factorial(b_prev))
        out -= float(log_binom(b_prev - 1, b_new - 1))
        out -= math.log(b_prev)
    return out


def hierarchy_group_sides(base_group_side, assignments):
    """Propagate side metadata up the hierarchy; mixing sides in one coarse
    group is an integrity violation."""
    sides = [None if base_group_side is None else np.asarray(base_group_side)]
    for assignment in assignments:
        prev = sides[-1]
        if prev is None:
            sides.append(None)
            continue
        n_coarse = int(np.max(assignment)) + 1 if len(assignment) else 0
        coarse_side = -np.ones(n_coarse, dtype=np.int64)
        for fine, c in enumerate(np.asarray(assignment)):
            if coarse_side[c] == -1:
                coarse_side[c] = prev[fine]
            elif coarse_side[c] != prev[fine]:
                raise IntegrityError(f"coarse group {int(c)} mixes sides")
        sides.append(coarse_side)
    return sides


def top_level_density(E: int, n_groups: int) -> float:
    """Density scale for the topmost edge-count matrix: the value that
    maximizes the geometric prior, 2E / (B (B + 1))."""
    if n_groups == 0:
        return 0.0
    return 2.0 * E / (n_groups * (n_groups + 1))


def logp_hierarchy(e_base: np.ndarray, assignments, group_side=None, E=None) -> float:
    """Log-probability of the whole stack of edge-count matrices plus the
    upper-level partitions; the topmost matrix closes with the geometric
    prior at its maximizing density."""
    e = np.asarray(e_base, dtype=np.int64)
    total_e = int(e.sum()) // 2 if E is None else E
    sides = hierarchy_group_sides(group_side, assignments)
    out = 0.0
    for li, assignment in enumerate(assignments):
        n_coarse = int(np.max(assignment)) + 1 if len(assignment) else 0
        out += logp_level_matrix(e, assignment, n_coarse)
        out += logp_level_partition(assignment, sides[li])
        e = aggregate_matrix(e, assignment, n_coarse)
    B_top = e.shape[0]
    return out + logp_geometric(total_e, B_top, top_level_density(total_e, B_top))


# --- full joint --------------------------------------------------------------


def joint_logp(state: LabeledGraph, hierarchy: Hierarchy | None = None,
               max_overlap: int | None = None, model_id: str = "hsbm",
               parametrization: str = "") -> ModelScore:
    """Description length of (graph, labels, partitions): the negative log of
    the joint probability of the labeled graph and every partition level.

    With no hierarchy the state is first compressed to occupied groups, so
    the score is invariant under group relabelings and ignores transiently
    empty groups.
    """
    if hierarchy is None or not hierarchy.assignments:
        state = compress_groups(state)
        hierarchy = Hierarchy()
    tables = CountTables(state)
    if np.any(tables.e_r == 0):
        raise IntegrityError("empty group in a scored state")
    stats = side_statistics(state, tables)
    breakdown = {}
    breakdown["adjacency"] = -logp_graph_given_ke(state, tables)
    breakdown["degrees"] = -logp_degrees_given_mixtures(stats)
    part = logp_partition_bipartite(state, max_overlap, stats_by_side=stats)
    breakdown["partition"] = -part
    breakdown["edge_matrix"] = -logp_hierarchy(
        tables.dense_e(), hierarchy.assignments, state.group_side, E=tables.E
    )
    return ModelScore.from_breakdown(breakdown, model_id=model_id,
                                     parametrization=parametrization)
