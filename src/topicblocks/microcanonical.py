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

The aggregates are built by numpy grouping, not per-element loops.
`CountTables` sums each key pair set (`_pair_sums`) exactly, by one
`bincount` where no float sum can reach 2**53 and the pairs' bounding box
has no more cells than there are pairs, or where one key is the other plus
a constant (a per-doc-group state's (document, group) pairs), else by a
sort of (key, weight) packed in an int64; a fixed-label state's tables are
read off its LDA count tables instead (`from_topic_counts`).  `MixtureTables`
groups the (node, group)-sorted labeled degrees into node runs, mixtures and
(mixture, group) pairs, each numbered in order of first occurrence by node.
The one scoring core, `score_tables`, reads only the tables: it scores the
degree and partition priors straight from these integer arrays
(`logp_degrees_array`, `logp_partition_array`, with restricted-partition
counts from `partition_counts.log_partitions_array`).

The tests keep node-by-node dict scorers of the same priors
(`tests/test_microcanonical.py`).  The array path adds the same float terms
in the same order, the order a node-by-node visit gives, so the two agree
bit for bit and scores are reproducible to the bit.  It adds floats left to
right (a sequential `cumsum`, or one vectorized add per column across
runs), never with `.sum()` or `reduceat`, which add pairwise from eight
terms up.  Integer log-factorials and composition counts come from `util`,
where every log n! is a read of one table (`log_factorial_table`), so scalar
calls, array calls and lookups give the same float for the same n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import LabeledGraph
from .partition_counts import log_partitions_array
from .scores import ModelScore
from .util import (
    IntegrityError,
    log_binom,
    log_double_factorial_even,
    log_factorial,
    log_factorial_table,
    log_num_compositions,
    log_num_compositions_large,
    run_bounds,
)


# --- sparse count aggregates ----------------------------------------------


def _sorted_sums(key: np.ndarray, weight: np.ndarray):
    """Distinct keys in ascending order and the exact integer sum of the
    weights of each, for nonnegative keys and weights: one `np.sort` of each
    key packed above its weight in one int64, or an argsort and two gathers
    when the pack would not fit in 63 bits."""
    shift = int(weight.max(initial=0)).bit_length()
    if int(key.max(initial=0)) >> (63 - shift):
        order = np.argsort(key)
        key, weight = key[order], weight[order]
    else:
        packed = (key << shift) | weight
        packed.sort()
        key, weight = packed >> shift, packed & ((1 << shift) - 1)
    starts = run_bounds(key)[:-1]
    return key[starts], np.add.reduceat(weight, starts)


SMALL_PAIR_SET = 2048  # below this many pairs, finding the box saves nothing over the sort


def _pair_sums(a: np.ndarray, b: np.ndarray, weight: np.ndarray, span: int,
               a_ext=None, b_ext=None, w_max=None):
    """Distinct (a, b) pairs in ascending order and the exact integer sum of
    the positive weights of each, for a >= 0 and 0 <= b < span.

    From SMALL_PAIR_SET pairs up, while max(weight) * n < 2**53 (float sums
    are exact), one `bincount`: keyed inside the pairs' bounding box if it
    has no more cells than there are pairs, or over a alone if b - a is one
    constant and a spans no more values than there are pairs.  Else
    `_sorted_sums` of a * span + b.  A caller may pass the (min, max) of a
    and b and max(weight) it has."""
    n = len(weight)
    if n >= SMALL_PAIR_SET:
        (a0, a1), (b0, b1) = (x_ext or (int(x.min()), int(x.max()))
                              for x, x_ext in ((a, a_ext), (b, b_ext)))
        if (int(weight.max()) if w_max is None else w_max) * n < 2**53:
            a_span, box_span = a1 - a0 + 1, b1 - b0 + 1
            if a_span * box_span <= n:
                key = a * box_span  # keyed in place: one new array
                key += b
                if a0 * box_span + b0:
                    key -= a0 * box_span + b0
                sums = np.bincount(key, weights=weight)
                key = np.flatnonzero(sums)
                a_u = key // box_span  # with key - a_u * box_span, twice as fast as np.divmod
                return a_u + a0, key - a_u * box_span + b0, sums[key].astype(np.int64)
            if a_span == box_span <= n and np.all(b - a == b0 - a0):
                sums = np.bincount(a - a0 if a0 else a, weights=weight)
                key = np.flatnonzero(sums)
                return key + a0, key + b0, sums[key].astype(np.int64)
    key, sums = _sorted_sums(a * span + b, weight)
    a_u = key // span
    return a_u, key - a_u * span, sums


def _first_occurrence_counts(key: np.ndarray):
    """Distinct keys with their counts, in order of first occurrence."""
    uniq, first, counts = np.unique(key, return_index=True, return_counts=True)
    order = np.argsort(first)
    return uniq[order], counts[order]


class CountTables:
    """Sparse (e, k) aggregates of a labeled state, and all else that
    `score_tables` reads: node and group sides (None when unsided), the sum
    of log m! over the bundles that are not self-loops with equal labels
    (`log_m`) and that of log (2m)!! over those that are (`log_loops`).

    Edge-count entries are stored for unordered group pairs r <= s with the
    diagonal holding twice the number of within-group edges, so that group
    totals e_r sum to 2E.  Labeled degrees keep only nonzero (node, group)
    pairs, sorted by (node, group).  Ordered (r, s) pairs are summed over
    the bundles, and only the reduced pairs are folded to r <= s.  The
    `bincount` of `_pair_sums` takes a set whose box, say one side's groups
    by the other's, has no more cells than the set has pairs, or whose group
    is its node plus a constant; it needs m >= 1.
    """

    def __init__(self, state: LabeledGraph):
        self.n_nodes = state.n_nodes
        self.n_groups = state.n_groups
        B = state.n_groups
        # the extents of r, s and m, each found once, serve all three bundle sets
        big = len(state.m) >= SMALL_PAIR_SET
        i_ext, j_ext, r_ext, s_ext = ((int(x.min()), int(x.max())) if big else None
                                      for x in (state.i, state.j, state.r, state.s))
        w_max = int(state.m.max()) if big else None
        r, s, pair_m = _pair_sums(state.r, state.s, state.m, B, r_ext, s_ext, w_max)
        lo, hi = np.minimum(r, s), np.maximum(r, s)
        self.pair_r, self.pair_s, self.pair_e = _pair_sums(
            lo, hi, np.where(lo == hi, 2 * pair_m, pair_m), B)
        self.E = int(pair_m.sum())

        # each end's (node, group) sums; when every i precedes every j (documents
        # before words), the two side by side are already sorted and distinct
        node_i, group_i, sum_i = _pair_sums(state.i, state.r, state.m, B, i_ext, r_ext, w_max)
        node_j, group_j, sum_j = _pair_sums(state.j, state.s, state.m, B, j_ext, s_ext, w_max)
        k = [np.concatenate(p) for p in ((node_i, node_j), (group_i, group_j), (sum_i, sum_j))]
        if len(node_i) and len(node_j) and node_i[-1] >= node_j[0]:
            k = _pair_sums(*k, B)
        self.k_node, self.k_group, self.k_val = k
        self.e_r = np.bincount(self.k_group, weights=self.k_val, minlength=B).astype(np.int64)
        self.side, self.group_side = state.side, state.group_side

        loops = np.flatnonzero(state.i == state.j)
        equal = loops[state.r[loops] == state.s[loops]]
        plain = np.delete(state.m, equal) if len(equal) else state.m
        self.log_m = float(log_factorial(plain).sum())
        self.log_loops = float(log_double_factorial_even(2 * state.m[equal]).sum())

    @classmethod
    def from_topic_counts(cls, ndr: np.ndarray, nwr: np.ndarray, log_m: float,
                          doc_groups: bool) -> "CountTables":
        """The tables of a fixed-label word-document state from its (D, K)
        doc-topic and (V, K) word-topic token totals and its sum of log m!.
        Document d is node d, word w node D + w; a word half-edge of topic r
        is in group G + r, a document half-edge in group d (`doc_groups`, G
        = D: per-doc-group) or r (G = K: doc-clustering).  `np.nonzero`
        lists a table's cells in (node, group) order, as `CountTables` does."""
        (D, K), V, n_d, n_r = ndr.shape, len(nwr), ndr.sum(axis=1), ndr.sum(axis=0)
        (d, r), (w, rw) = np.nonzero(ndr), np.nonzero(nwr)
        t = cls.__new__(cls)
        if doc_groups:  # one group per document; its edges are its topic counts
            G, docs = D, np.flatnonzero(n_d)
            t.pair_r, t.pair_s, t.pair_e = d, D + r, ndr[d, r]
            doc_k, e_doc = (docs, docs, n_d[docs]), n_d
        else:  # topic r on both ends: its edges join group r to group K + r
            G, topics = K, np.flatnonzero(n_r)
            t.pair_r, t.pair_s, t.pair_e = topics, K + topics, n_r[topics]
            doc_k, e_doc = (d, r, ndr[d, r]), n_r
        t.k_node, t.k_group, t.k_val = (np.concatenate(p)
                                        for p in zip(doc_k, (D + w, G + rw, nwr[w, rw])))
        t.e_r = np.concatenate([e_doc, n_r])
        t.n_nodes, t.n_groups, t.E = D + V, G + K, int(n_r.sum())
        t.side, t.group_side = np.repeat([0, 1], [D, V]), np.repeat([0, 1], [G, K])
        t.log_m, t.log_loops = log_m, 0.0
        return t

    def dense_e(self) -> np.ndarray:
        e = np.zeros((self.n_groups, self.n_groups), dtype=np.int64)
        e[self.pair_r, self.pair_s] = self.pair_e
        e[self.pair_s, self.pair_r] = self.pair_e
        return e

    def drop_empty_groups(self) -> None:
        """Renumber to the nonempty groups in place, in ascending order, as
        `compress_groups` renumbers the state: a monotone relabel keeps every
        sorted order."""
        kept = self.e_r > 0
        remap = np.cumsum(kept) - 1
        self.e_r = self.e_r[kept]
        self.n_groups = len(self.e_r)
        if self.group_side is not None:
            self.group_side = self.group_side[kept]
        self.pair_r, self.pair_s, self.k_group = (remap[x] for x in (self.pair_r, self.pair_s,
                                                                      self.k_group))


def compress_groups(state: LabeledGraph) -> LabeledGraph:
    """Relabel to occupied groups only (ascending old index order), in a new
    state that is not checked again: a monotone relabel keeps every invariant."""
    B = state.n_groups
    occupied = np.flatnonzero(np.bincount(state.r, minlength=B) + np.bincount(state.s, minlength=B))
    remap = -np.ones(B, dtype=np.int64)
    remap[occupied] = np.arange(len(occupied))
    group_side = None if state.group_side is None else state.group_side[occupied]
    return LabeledGraph(state.n_nodes, state.i, state.j, remap[state.r], remap[state.s], state.m,
                        len(occupied), side=state.side, group_side=group_side, check=False)


# --- flat (noninformative) pieces ------------------------------------------


def logp_graph_given_ke(t: CountTables) -> float:
    """log of (pairings yielding this labeled graph) / (pairings matching e).

    Within-group totals e_rr must be even; loop bundles with equal labels
    carry a double-factorial correction because their two stubs are
    exchangeable.
    """
    diag = t.pair_r == t.pair_s
    if np.any(t.pair_e[diag] % 2 != 0):
        raise IntegrityError("odd within-group edge total")
    log_k = float(log_factorial_table(int(t.k_val.max(initial=0)))[t.k_val].sum())
    log_xi = log_k - t.log_m - t.log_loops
    log_omega = float(log_factorial(t.e_r).sum())
    log_omega -= float(log_factorial(t.pair_e[~diag]).sum())
    log_omega -= float(log_double_factorial_even(t.pair_e[diag]).sum())
    return log_xi - log_omega


def logp_degrees_flat(tables: CountTables) -> float:
    """Uniform prior over labeled degree sequences: each group's half-edge
    total is distributed over all nodes as indistinguishable items."""
    if np.any(tables.e_r < 0):
        raise IntegrityError("negative group degree total")
    return -float(log_num_compositions(tables.e_r, np.full_like(tables.e_r, tables.n_nodes)).sum())


def logp_geometric(E: int, B: int, omega_bar: float) -> float:
    """Log-probability of E edges as independent geometric entries with mean
    omega_bar over the B(B+1)/2 unordered group pairs (within-group entries
    counted in halves)."""
    if E == 0:
        return -(B * (B + 1) / 2.0) * math.log1p(omega_bar)
    if omega_bar <= 0:
        return -np.inf
    return E * math.log(omega_bar) - (E + B * (B + 1) / 2.0) * math.log1p(omega_bar)


def logp_edge_matrix_geometric(tables: CountTables, omega_bar: float) -> float:
    """`logp_geometric` of a state's edge total over its B groups."""
    return logp_geometric(tables.E, tables.n_groups, omega_bar)


def logp_marginal_flat(state: LabeledGraph, omega_bar: float) -> float:
    """Closed-form marginal of the labeled graph under noninformative mixture
    and rate priors; equals the sum of the three microcanonical pieces."""
    t = CountTables(state)
    out = logp_geometric(t.E, t.n_groups, omega_bar)
    N = t.n_nodes
    diag = t.pair_r == t.pair_s
    out += float(log_factorial(t.pair_e[~diag]).sum())
    out += float(log_double_factorial_even(t.pair_e[diag]).sum())
    out = out - t.log_m - t.log_loops
    out += float((log_factorial(N - 1) - log_factorial(t.e_r + N - 1)).sum())
    out += float(log_factorial(t.k_val).sum())
    return out


# --- overlapping partitions and degree priors -------------------------------


class MixtureTables:
    """Integer aggregates of the labeled degrees by node mixture.

    A node's mixture is the tuple of groups its half-edges carry.  Mixtures
    are keyed by (side, mixture) and numbered in order of first occurrence by
    node; a (mixture, group) pair is numbered by its mixture, then by the
    group's place in the mixture; within a pair, distinct degrees are kept in
    order of first occurrence by node.  These are the orders in which a
    node-by-node visit meets the keys, so every float sum over them below
    runs in one fixed order.

    Built from the tables' (node, group)-sorted labeled degrees: node runs
    from one `flatnonzero`, mixture ids from one `lexsort` of the nodes of
    each mixture size (so memory stays proportional to the labeled degrees
    however many groups a node sits in), degree frequencies from one stable
    sort.
    """

    def __init__(self, tables: CountTables):
        t = self.tables = tables
        nodes, groups, vals = t.k_node, t.k_group, t.k_val
        n = len(nodes)
        node_runs = run_bounds(nodes)
        starts, sizes = node_runs[:-1], np.diff(node_runs)
        if t.side is None:
            node_side = np.zeros(len(starts), np.int64)
            self.group_side = np.zeros(t.n_groups, np.int64)
            self.sides = [0] if n else []
            self.side_groups = {0: t.n_groups}
        else:  # both sides, in order of their first node
            node_side = t.side[nodes[starts]]
            self.group_side = t.group_side
            self.sides = list(dict.fromkeys(node_side[:1].tolist() + [0, 1]))
            self.side_groups = {sd: int((t.group_side == sd).sum()) for sd in self.sides}
        self.n_eff = {sd: int(np.count_nonzero(node_side == sd)) for sd in self.sides}
        self.entry_side = np.repeat(node_side, sizes)
        span = int(sizes.max(initial=0)) + 1
        hist_key, self.hist_count = _first_occurrence_counts(node_side * span + sizes)
        self.hist_side, self.hist_q = hist_key // span, hist_key % span

        # mixture ids: the (side, groups...) rows of each size q, lexsorted
        # (stable, so the head of each run of equal rows is its first node)
        by_size = np.argsort(sizes, kind="stable")
        size_runs = run_bounds(sizes[by_size]).tolist()
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
        runs = run_bounds(key[order])
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
    """One side's overlapping partition prior up to its per-mixture terms,
    which the caller adds in mixture order, and the log-factorial table they
    index."""
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


def logp_partition_array(mix: MixtureTables, max_overlap: int | None = None) -> float:
    """Log-probability of each side's overlapping partition, summed over the
    sides: uniform mixture size histogram, uniform size assignment, uniform
    mixture frequencies per size, uniform mixture assignment.  The
    per-mixture terms are added by one sequential `cumsum`, in the order a
    node-by-node visit meets the mixtures."""
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


def logp_degrees_array(mix: MixtureTables) -> float:
    """Log-probability of the labeled degrees given e and the mixtures.

    Per group: a uniform split of its half-edge total across the occupied
    mixtures containing it, with every mixture taking at least one half-edge
    per member node.  Per (mixture, group): a uniform restricted partition of
    the per-mixture degree sum into one positive degree per member, then a
    uniform assignment of those degrees to the members.

    The O(B) group terms are scalars, the restricted-partition terms come
    from `log_partitions_array`, and each pair's frequency log-factorials are
    added left to right (`_run_sums`).  All of them are added in the order a
    node-by-node visit gives, per side its groups then its pairs, by one
    sequential `cumsum`.  The checks run in that order too, so a state with
    several faults raises the error of the first.
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


def _check_group_sides(state: LabeledGraph, mix: MixtureTables) -> None:
    """A group whose half-edges touch both sides makes the state
    inconsistent: IntegrityError names the first offending bundle.  Checked
    on the labeled degrees; the bundles are scanned only to name it."""
    if np.any(mix.group_side[mix.tables.k_group] != mix.entry_side):
        bad = ((state.group_side[state.r] != state.side[state.i])
               | (state.group_side[state.s] != state.side[state.j]))
        raise IntegrityError(
            f"bundle {int(np.argmax(bad))} labels a half-edge with a group from the other side"
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


def logp_level_matrix(e_fine: np.ndarray, assignment: np.ndarray, n_coarse: int) -> float:
    """Uniform prior of a fine edge matrix under its coarse aggregate: each
    coarse pair's count is spread over the compatible fine pairs."""
    assignment = np.asarray(assignment, dtype=np.int64)
    sizes = np.bincount(assignment, minlength=n_coarse).astype(np.int64)
    agg = aggregate_matrix(e_fine, assignment, n_coarse)
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
        sizes = np.bincount(assignment[mask])
        sizes = sizes[sizes > 0]
        b_new = len(sizes)
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


def logp_hierarchy(e_base: np.ndarray, assignments, group_side=None) -> float:
    """Log-probability of the whole stack of edge-count matrices plus the
    upper-level partitions; the topmost matrix closes with the geometric
    prior at its maximizing density.  The diagonal holds within-group edges
    twice (`CountTables.dense_e`), so the matrix sums to 2E."""
    e = np.asarray(e_base, dtype=np.int64)
    total_e = int(e.sum()) // 2
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
    the joint probability of the labeled graph and every partition level;
    `score_tables` of the state's `CountTables`."""
    return score_tables(CountTables(state), hierarchy, max_overlap, model_id, parametrization,
                        state=state)


def score_tables(tables: CountTables, hierarchy: Hierarchy | None = None,
                 max_overlap: int | None = None, model_id: str = "hsbm",
                 parametrization: str = "", state: LabeledGraph | None = None) -> ModelScore:
    """The scoring core: `joint_logp` from the tables alone.  The group-side
    check, which names a bundle, runs on a `state` given (`from_topic_counts`
    tables pass it by construction).  With no hierarchy, tables with an empty
    group (e_r = 0, as m >= 1) are renumbered in place (`drop_empty_groups`),
    so the score ignores transiently empty groups and group relabelings."""
    if hierarchy is None or not hierarchy.assignments:
        hierarchy = Hierarchy()
        if not tables.e_r.all():
            tables.drop_empty_groups()
    elif np.any(tables.e_r == 0):
        raise IntegrityError("empty group in a scored state")
    mix = MixtureTables(tables)
    breakdown = {}
    breakdown["adjacency"] = -logp_graph_given_ke(tables)
    breakdown["degrees"] = -logp_degrees_array(mix)
    if state is not None:
        _check_group_sides(state, mix)
    breakdown["partition"] = -logp_partition_array(mix, max_overlap)
    if hierarchy.assignments:
        breakdown["edge_matrix"] = -logp_hierarchy(tables.dense_e(), hierarchy.assignments,
                                                   tables.group_side)
    else:
        # a flat state's edge prior needs only E and B, not the (B, B) matrix
        breakdown["edge_matrix"] = -logp_edge_matrix_geometric(
            tables, top_level_density(tables.E, tables.n_groups))
    return ModelScore.from_breakdown(breakdown, model_id=model_id,
                                     parametrization=parametrization)
