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
(exact integers), and `MixtureTables` groups the (node, group)-sorted
labeled degrees into node runs, mixtures and (mixture, group) pairs, each
numbered in order of first occurrence by node.  `joint_logp` scores the
degree and partition priors straight from these integer arrays
(`logp_degrees_array`, `logp_partition_array`, with restricted-partition
counts from `partition_counts.log_partitions_array`).  The dict scorers
`logp_degrees_given_mixtures` and `logp_overlap_partition` score the same
priors from per-side `SideStats` dicts; they are the reference the tests
check the array path against, built node by node.

Both paths add the same float terms in the same order, the order a
node-by-node visit gives, so they agree bit for bit and scores are
reproducible to the bit.  The array path adds floats left to right (a
sequential `cumsum`, or one vectorized add per column across runs), never
with `.sum()` or `reduceat`, which add pairwise from eight terms up.  Integer
log-factorials and composition counts come from `util`, whose scalar calls,
array calls and `log_factorial_table` lookups give the same float for the
same n.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .graph import LabeledGraph
from .partition_counts import log_partitions, log_partitions_array
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


def _run_bounds(sorted_key: np.ndarray) -> np.ndarray:
    """Start of every run of equal values in `sorted_key`, then its length."""
    change = np.empty(len(sorted_key) + 1, dtype=bool)
    change[0] = change[-1] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=change[1:-1])
    return np.flatnonzero(change)


def _sorted_sums(key: np.ndarray, weight: np.ndarray):
    """Distinct keys in ascending order and the exact integer sum of the
    weights of each, from one sort."""
    order = np.argsort(key)
    key, weight = key[order], weight[order]
    starts = _run_bounds(key)[:-1]
    return key[starts], np.add.reduceat(weight, starts)


def _first_occurrence_counts(key: np.ndarray):
    """Distinct keys with their counts, in order of first occurrence."""
    uniq, first, counts = np.unique(key, return_index=True, return_counts=True)
    order = np.argsort(first)
    return uniq[order], counts[order]


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

        # each end's (node, group) sums first, then the two reduced halves merged
        key_i, sum_i = _sorted_sums(state.i * B + state.r, state.m)
        key_j, sum_j = _sorted_sums(state.j * B + state.s, state.m)
        kuniq, self.k_val = _sorted_sums(np.concatenate([key_i, key_j]),
                                         np.concatenate([sum_i, sum_j]))
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


class MixtureTables:
    """Integer aggregates of the labeled degrees by node mixture.

    A node's mixture is the tuple of groups its half-edges carry.  Mixtures
    are keyed by (side, mixture) and numbered in order of first occurrence by
    node; a (mixture, group) pair is numbered by its mixture, then by the
    group's place in the mixture; within a pair, distinct degrees are kept in
    order of first occurrence by node.  These are the orders in which a
    node-by-node visit meets the keys, so every float sum over them below, and
    over `SideStats` dicts filled node by node, runs in one fixed order.

    Built from the tables' (node, group)-sorted labeled degrees: node runs
    from one `flatnonzero`, mixture ids from one `lexsort` of the nodes of
    each mixture size (so memory stays proportional to the labeled degrees
    however many groups a node sits in), degree frequencies from one stable
    sort.
    """

    def __init__(self, state: LabeledGraph, tables: CountTables | None = None):
        t = self.tables = tables if tables is not None else CountTables(state)
        nodes, groups, vals = t.k_node, t.k_group, t.k_val
        n = len(nodes)
        node_runs = _run_bounds(nodes)
        starts, sizes = node_runs[:-1], np.diff(node_runs)
        if state.side is None:
            node_side = np.zeros(len(starts), np.int64)
            self.group_side = np.zeros(state.n_groups, np.int64)
            self.sides = [0] if n else []
            self.side_groups = {0: state.n_groups}
        else:  # both sides, in order of their first node
            node_side = state.side[nodes[starts]]
            self.group_side = state.group_side
            self.sides = list(dict.fromkeys(node_side[:1].tolist() + [0, 1]))
            self.side_groups = {sd: int((state.group_side == sd).sum()) for sd in self.sides}
        self.n_eff = {sd: int(np.count_nonzero(node_side == sd)) for sd in self.sides}
        self.entry_side = np.repeat(node_side, sizes)
        span = int(sizes.max(initial=0)) + 1
        hist_key, self.hist_count = _first_occurrence_counts(node_side * span + sizes)
        self.hist_side, self.hist_q = hist_key // span, hist_key % span

        # mixture ids: the (side, groups...) rows of each size q, lexsorted
        # (stable, so the head of each run of equal rows is its first node)
        by_size = np.argsort(sizes, kind="stable")
        size_runs = _run_bounds(sizes[by_size]).tolist()
        blocks = []
        for lo, hi in zip(size_runs, size_runs[1:]):
            idx = by_size[lo:hi]
            rows = np.column_stack([node_side[idx],
                                    groups[starts[idx, None] + np.arange(sizes[idx[0]])]])
            order = np.lexsort(rows.T)
            rows = rows[order]
            new = np.ones(len(rows), dtype=bool)
            new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
            blocks.append((idx[order], idx[order[new]], np.cumsum(new) - 1))
        first_node = np.concatenate([starts[:0]] + [first for _, first, _ in blocks])
        by_first = np.argsort(first_node)
        rank = np.empty_like(by_first)
        rank[by_first] = np.arange(len(by_first))
        node_mix = np.empty(len(starts), np.int64)
        base = 0
        for idx, first, local in blocks:
            node_mix[idx] = rank[base + local]
            base += len(first)
        mix_node = first_node[by_first]  # first node of each mixture, by id
        self.mix_side = node_side[mix_node]
        self.mix_size = sizes[mix_node]
        self.mix_count = np.bincount(node_mix, minlength=len(mix_node))

        # (mixture, group) pairs, and where each labeled degree falls
        offset = np.cumsum(self.mix_size) - self.mix_size
        n_pairs = int(self.mix_size.sum())
        self.pair_mix = np.repeat(np.arange(len(mix_node)), self.mix_size)
        self.pair_side = np.repeat(self.mix_side, self.mix_size)
        self.pair_group = groups[np.repeat(starts[mix_node] - offset, self.mix_size)
                                 + np.arange(n_pairs)]
        entry_pair = np.repeat(offset[node_mix] - starts, sizes) + np.arange(n)

        # per pair: its distinct degrees by first occurrence, with frequencies
        k_span = int(vals.max(initial=0)) + 1
        key = entry_pair * k_span + vals
        order = np.argsort(key, kind="stable")
        runs = _run_bounds(key[order])
        heads = order[runs[:-1]]  # first occurrence of each (pair, degree)
        run_pair = key[heads] // k_span
        by_pair = np.argsort(run_pair * max(n, 1) + heads)
        self.freq_k = vals[heads][by_pair]
        self.freq_count = np.diff(runs)[by_pair]
        self.freq_start = np.searchsorted(run_pair[by_pair], np.arange(n_pairs + 1))
        self.pair_esum = (np.add.reduceat(self.freq_k * self.freq_count, self.freq_start[:-1])
                          if n_pairs else np.zeros(0, np.int64))


def _run_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """The sum of each nonempty run values[bounds[i]:bounds[i + 1]], added
    left to right as a Python loop adds (numpy's reductions add pairwise from
    eight terms up): one vectorized add per column, over the runs that reach
    it, longest runs first."""
    lens = np.diff(bounds)
    by_len = np.argsort(-lens, kind="stable")
    heads = bounds[:-1][by_len]
    acc = values[heads]
    reaching = len(lens) - np.cumsum(np.bincount(lens))  # runs longer than c
    for c in range(1, len(reaching) - 1):
        k = reaching[c]
        acc[:k] += values[heads[:k] + c]
    out = np.empty_like(acc)
    out[by_len] = acc
    return out


def _partition_head(n_eff: int, n_groups: int, size_hist, max_overlap: int | None):
    """`logp_overlap_partition` up to its per-mixture terms, which the caller
    adds in mixture order, and the log-factorial table they index."""
    B = n_groups
    Q = B if max_overlap is None else min(max_overlap, B)
    if any(q > Q for q, _ in size_hist):
        raise ValueError(f"node mixture exceeds the overlap bound {Q}")
    lf = log_factorial_table(n_eff)  # every count here is at most n_eff
    out = -float(log_num_compositions(n_eff, Q))
    out += float(sum(lf[nq] for _, nq in size_hist))
    out -= float(lf[n_eff])
    for q, n_q in size_hist:
        out -= log_num_compositions_large(float(log_binom(B, q)), n_q)
        out -= float(lf[n_q])
    return out, lf


def logp_overlap_partition(stats: SideStats, max_overlap: int | None = None) -> float:
    """Log-probability of one side's overlapping partition: uniform mixture
    size histogram, uniform size assignment, uniform mixture frequencies per
    size, uniform mixture assignment."""
    if stats.n_eff == 0:
        return 0.0
    out, lf = _partition_head(stats.n_eff, stats.n_groups, list(stats.size_hist.items()),
                              max_overlap)
    for mixture, nb in stats.mixture_count.items():
        out += float(lf[nb])
    return out


def logp_partition_array(mix: MixtureTables, max_overlap: int | None = None) -> float:
    """The summed `logp_overlap_partition` of every side, from the arrays;
    the per-mixture terms are added by one sequential `cumsum`, so the value
    equals the dict path's bit for bit."""
    parts = []
    for sd in mix.sides:
        if mix.n_eff[sd] == 0:
            parts.append(0.0)
            continue
        here = mix.hist_side == sd
        size_hist = list(zip(mix.hist_q[here].tolist(), mix.hist_count[here].tolist()))
        out, lf = _partition_head(mix.n_eff[sd], mix.side_groups[sd], size_hist, max_overlap)
        mixture_terms = lf[mix.mix_count[mix.mix_side == sd]]
        parts.append(float(np.cumsum(np.concatenate(([out], mixture_terms)))[-1]))
    return float(sum(parts))


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


def logp_degrees_array(mix: MixtureTables) -> float:
    """`logp_degrees_given_mixtures` of the side statistics, from the arrays.

    Every term is the dict path's: the O(B) group terms as scalars, the
    restricted-partition terms from `log_partitions_array`, each pair's
    frequency log-factorials added left to right (`_run_sums`).  All of them
    are added in the dict path's order, per side its groups then its pairs,
    by one sequential `cumsum`, so the value is equal bit for bit.  The
    checks run in that order too, so a state with several faults raises the
    dict path's error.
    """
    t = mix.tables
    nb = mix.mix_count[mix.pair_mix]
    lp = log_partitions_array(mix.pair_esum, nb)
    lf = log_factorial_table(int(nb.max(initial=0)))  # frequencies are at most nb
    pair_terms = np.column_stack([-lp, _run_sums(lf[mix.freq_count], mix.freq_start), -lf[nb]])
    B = len(t.e_r)
    terms = [np.zeros(1)]
    for sd in mix.sides:
        rs = np.flatnonzero((t.e_r > 0) & (mix.group_side == sd))
        members = np.bincount(t.k_group[mix.entry_side == sd], minlength=B)[rs]
        mixtures = np.bincount(mix.pair_group[mix.pair_side == sd], minlength=B)[rs]
        er = t.e_r[rs]
        bad = np.flatnonzero((mixtures == 0) | (er < members))
        if len(bad):
            g = bad[0]
            raise IntegrityError(
                f"group {rs[g]} degree total {er[g]} inconsistent with its {members[g]} members"
            )
        terms.append(-log_num_compositions(er - members, mixtures))
        bad = np.flatnonzero((lp == -np.inf) & (mix.pair_side == sd))
        if len(bad):
            raise IntegrityError(
                f"degree sum {mix.pair_esum[bad[0]]} cannot split into {nb[bad[0]]} positive parts"
            )
        terms.append(pair_terms[mix.pair_side == sd].reshape(-1))
    return float(np.cumsum(np.concatenate(terms))[-1])


def _check_group_sides(state: LabeledGraph) -> None:
    """A group whose half-edges touch both sides makes the state
    inconsistent: IntegrityError names the first offending bundle."""
    if state.side is not None:
        bad_r = state.group_side[state.r] != state.side[state.i]
        bad_s = state.group_side[state.s] != state.side[state.j]
        if np.any(bad_r) or np.any(bad_s):
            which = np.nonzero(bad_r | bad_s)[0][0]
            raise IntegrityError(
                f"bundle {int(which)} labels a half-edge with a group from the other side"
            )


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
    if np.any(np.diagonal(agg) % 2 != 0):
        raise IntegrityError("odd within-group total at a coarse diagonal")
    r, s = np.triu_indices(n_coarse)  # each coarse pair once, row by row
    diag = r == s
    totals = np.where(diag, agg[r, s] // 2, agg[r, s])
    cells = np.where(diag, sizes[r] * (sizes[r] + 1) // 2, sizes[r] * sizes[s])
    return float(np.cumsum(np.concatenate(([0.0], -log_num_compositions(totals, cells))))[-1])


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
    mix = MixtureTables(state, tables)
    breakdown = {}
    breakdown["adjacency"] = -logp_graph_given_ke(state, tables)
    breakdown["degrees"] = -logp_degrees_array(mix)
    _check_group_sides(state)
    breakdown["partition"] = -logp_partition_array(mix, max_overlap)
    if hierarchy.assignments:
        breakdown["edge_matrix"] = -logp_hierarchy(
            tables.dense_e(), hierarchy.assignments, state.group_side, E=tables.E
        )
    else:
        # a flat state's edge prior needs only E and B, not the (B, B) matrix
        breakdown["edge_matrix"] = -logp_edge_matrix_geometric(
            tables, top_level_density(tables.E, tables.n_groups))
    return ModelScore.from_breakdown(breakdown, model_id=model_id,
                                     parametrization=parametrization)
