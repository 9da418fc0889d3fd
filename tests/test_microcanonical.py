import copy
import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as hst

from topicblocks import inference, lda, microcanonical
from topicblocks.graph import (
    BipartiteMultigraph,
    LabeledGraph,
    derive_counts,
    state_from_label_arrays,
)
from topicblocks.inference import fixed_label_score, labels_to_state, score_doc_anchored
from topicblocks.microcanonical import (
    _check_group_sides,
    _pair_sums,
    _partition_head,
    _first_occurrence_counts,
    _run_sums,
    _sort_packed,
    _sorted_sums,
    _stable_order,
    CountTables,
    Hierarchy,
    MixtureTables,
    aggregate_matrix,
    compress_groups,
    hierarchy_group_sides,
    joint_logp,
    logp_degrees_array,
    logp_degrees_flat,
    logp_edge_matrix_geometric,
    logp_graph_given_ke,
    logp_hierarchy,
    logp_level_matrix,
    logp_level_partition,
    logp_marginal_flat,
    logp_partition_array,
    top_level_density,
)
from topicblocks.partition_counts import log_partitions
from topicblocks.util import (
    IntegrityError,
    log_double_factorial_even,
    log_factorial,
    log_factorial_table,
    log_num_compositions,
)


# --- dict scorers: the reference the array path is checked against ----------


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


def random_state(rng, n_max=6, e_max=8, b_max=3, allow_loops=True):
    n = int(rng.integers(2, n_max + 1))
    b = int(rng.integers(1, b_max + 1))
    n_edges = int(rng.integers(1, e_max + 1))
    bundles = Counter()
    for _ in range(n_edges):
        i = int(rng.integers(n))
        j = int(rng.integers(n))
        if not allow_loops:
            while j == i:
                j = int(rng.integers(n))
        i, j = min(i, j), max(i, j)
        r = int(rng.integers(b))
        s = int(rng.integers(b))
        if i == j:
            r, s = min(r, s), max(r, s)
        bundles[(i, j, r, s)] += 1
    keys = sorted(bundles)
    i, j, r, s = zip(*keys)
    return LabeledGraph(n, i, j, r, s, [bundles[k] for k in keys], b)


def bundle_counter(state):
    c = Counter()
    for i, j, r, s, m in zip(state.i, state.j, state.r, state.s, state.m):
        c[(int(i), int(j), int(r), int(s))] += int(m)
    return c


def enumerate_matchings(stubs):
    if not stubs:
        yield []
        return
    first, rest = stubs[0], stubs[1:]
    for t in range(len(rest)):
        partner = rest[t]
        remaining = rest[:t] + rest[t + 1:]
        for sub in enumerate_matchings(remaining):
            yield [(first, partner)] + sub


def brute_force_graph_probability(state):
    """Exhaustive half-edge pairing oracle for the labeled-graph term."""
    e, k = derive_counts(state)
    stubs = []
    for i in range(state.n_nodes):
        for r in range(state.n_groups):
            stubs += [(i, r)] * int(k[i, r])
    target_pairs = Counter()
    for r in range(state.n_groups):
        for s in range(r, state.n_groups):
            v = int(e[r, s]) if r < s else int(e[r, r]) // 2
            if v:
                target_pairs[(r, s)] = v
    target_graph = bundle_counter(state)
    compatible = matched = 0
    for mt in enumerate_matchings(stubs):
        pairs = Counter()
        graph = Counter()
        for (i1, r1), (i2, r2) in mt:
            pairs[(min(r1, r2), max(r1, r2))] += 1
            if i1 == i2:
                graph[(i1, i2, min(r1, r2), max(r1, r2))] += 1
            elif i1 < i2:
                graph[(i1, i2, r1, r2)] += 1
            else:
                graph[(i2, i1, r2, r1)] += 1
        if pairs == target_pairs:
            compatible += 1
            if graph == target_graph:
                matched += 1
    return matched, compatible


class TestGraphGivenKE:
    def test_unique_compatible_graph(self):
        st = LabeledGraph(2, [0], [1], [0], [1], [1], 2)
        assert abs(logp_graph_given_ke(CountTables(st))) < 1e-12

    def test_two_edges_one_group(self):
        # nodes {i,j,k} with edges i-j and i-k: two of three pairings
        st = LabeledGraph(3, [0, 0], [1, 2], [0, 0], [0, 0], [1, 1], 1)
        assert abs(logp_graph_given_ke(CountTables(st)) - math.log(2 / 3)) < 1e-12

    def test_matches_pairing_enumeration(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            st = random_state(rng, n_max=4, e_max=5)
            matched, compatible = brute_force_graph_probability(st)
            assert matched > 0
            got = logp_graph_given_ke(CountTables(st))
            assert abs(got - math.log(matched / compatible)) < 1e-9

    def test_odd_within_group_total_rejected(self):
        st = LabeledGraph.__new__(LabeledGraph)
        # bypass init validation by constructing a legal state, then a direct
        # odd case: one edge with both ends in group 0 has even total, so use
        # tables from a manually inconsistent state through the public API
        good = LabeledGraph(2, [0], [1], [0], [0], [1], 1)
        t = CountTables(good)
        assert t.pair_e[0] == 2  # doubled diagonal


class TestFlatPieces:
    def test_degree_prior_hand_values(self):
        st = LabeledGraph(2, [0], [1], [0], [0], [2], 1)  # e_r = 4
        t = CountTables(st)
        assert t.e_r[0] == 4
        st2 = LabeledGraph(2, [0], [1], [0], [0], [1], 1)  # e_r = 2, N=2 -> 1/3
        assert abs(logp_degrees_flat(CountTables(st2)) - math.log(1 / 3)) < 1e-12

    def test_degree_prior_c64(self):
        # N=3, e=4: C(6,4)=15 compositions
        st = LabeledGraph(3, [0, 0], [1, 2], [0, 0], [0, 0], [1, 3], 1)
        t = CountTables(st)
        assert t.e_r[0] == 8  # 4 edges = 8 half-edges in one group
        # evaluate the formula directly at e_r = 4 via a 2-edge state
        st2 = LabeledGraph(3, [0, 0], [1, 2], [0, 0], [0, 0], [1, 1], 1)
        assert abs(logp_degrees_flat(CountTables(st2)) - math.log(1 / 15)) < 1e-12

    def test_geometric_hand_values(self):
        st = LabeledGraph(2, [0], [1], [0], [0], [3], 1)  # B=1, E=3
        t = CountTables(st)
        assert abs(logp_edge_matrix_geometric(t, 1.0) - math.log(1 / 16)) < 1e-12
        # B=2, E=0: three entries, each (omega+1)^-1
        empty = LabeledGraph(2, np.zeros(0, int), np.zeros(0, int), np.zeros(0, int),
                             np.zeros(0, int), np.zeros(0, int), 2)
        t0 = CountTables(empty)
        assert abs(logp_edge_matrix_geometric(t0, 1.0) - math.log(1 / 8)) < 1e-12

    def test_geometric_entry_normalization(self):
        for omega in (0.5, 1.0, 2.5):
            head = sum(omega**x / (omega + 1) ** (x + 1) for x in range(400))
            tail = (omega / (omega + 1)) ** 400
            assert abs(head + tail - 1.0) < 1e-12

    def test_flat_degree_prior_normalization(self):
        for n in (2, 3):
            for e_r in range(0, 5):
                count = sum(1 for ks in itertools.product(range(e_r + 1), repeat=n)
                            if sum(ks) == e_r)
                assert count == math.comb(e_r + n - 1, e_r)


class TestMicrocanonicalIdentity:
    def test_identity_on_random_states(self):
        """Closed-form marginal equals the three-piece product exactly."""
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(100):
            st = random_state(rng)
            t = CountTables(st)
            omega = float(rng.uniform(0.05, 4.0))
            lhs = logp_marginal_flat(st, omega)
            rhs = (logp_graph_given_ke(t) + logp_degrees_flat(t)
                   + logp_edge_matrix_geometric(t, omega))
            worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-9

    def test_hand_value_single_edge(self):
        # one edge labeled (0,1), N=2, B=2, omega=1:
        # geometric 1/16, degree priors (1/2)^2, pairing term 1
        st = LabeledGraph(2, [0], [1], [0], [1], [1], 2)
        assert abs(logp_marginal_flat(st, 1.0) - math.log(1 / 64)) < 1e-12

    def test_empty_graph_reduces_to_edge_prior(self):
        empty = LabeledGraph(3, np.zeros(0, int), np.zeros(0, int), np.zeros(0, int),
                             np.zeros(0, int), np.zeros(0, int), 2)
        t = CountTables(empty)
        assert abs(logp_marginal_flat(empty, 0.7)
                   - logp_edge_matrix_geometric(t, 0.7)) < 1e-12


def overlap_stats_from_mixtures(mixtures, n_groups):
    st = SideStats(n_groups=n_groups)
    st.n_eff = len(mixtures)
    for mix in mixtures:
        st.size_hist[len(mix)] += 1
        st.mixture_count[tuple(sorted(mix))] += 1
    return st


class TestOverlapPartition:
    def test_single_outcomes(self):
        st = overlap_stats_from_mixtures([(0,)], 1)
        assert abs(logp_overlap_partition(st, 1)) < 1e-12
        st = overlap_stats_from_mixtures([(0,), (0,)], 1)
        assert abs(logp_overlap_partition(st, 1)) < 1e-12

    @pytest.mark.parametrize("n,b,q", [(1, 1, 1), (2, 2, 2), (3, 2, 2),
                                       (3, 2, 1), (2, 2, 1), (3, 3, 2)])
    def test_normalization(self, n, b, q):
        options = []
        for size in range(1, q + 1):
            options.extend(itertools.combinations(range(b), size))
        total = 0.0
        for combo in itertools.product(options, repeat=n):
            st = overlap_stats_from_mixtures(list(combo), b)
            total += math.exp(logp_overlap_partition(st, q))
        assert abs(total - 1.0) < 1e-9

    def test_overlap_bound_rejected(self):
        st = overlap_stats_from_mixtures([(0, 1)], 2)
        with pytest.raises(ValueError, match="overlap"):
            logp_overlap_partition(st, 1)


def degree_stats(mixtures, k_table, n_groups):
    """Build one side's full statistics from explicit labeled degrees."""
    st = SideStats(n_groups=n_groups)
    st.n_eff = len(mixtures)
    for i, mix in enumerate(mixtures):
        mix = tuple(sorted(mix))
        st.size_hist[len(mix)] += 1
        st.mixture_count[mix] += 1
        for g in mix:
            kv = k_table[(i, g)]
            st.e_mix[(mix, g)] = st.e_mix.get((mix, g), 0) + kv
            st.deg_freq.setdefault((mix, g), Counter())[kv] += 1
            st.members_with[g] += 1
            st.e_r[g] = st.e_r.get(g, 0) + kv
    for mix in st.mixture_count:
        for g in mix:
            st.m_r[g] += 1
    return st


def compositions(total, parts):
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


class TestDegreesGivenMixtures:
    def test_all_degree_one(self):
        st = degree_stats([(0,), (0,), (0,)], {(0, 0): 1, (1, 0): 1, (2, 0): 1}, 1)
        # single partition of 3 into 3 parts, single assignment
        assert abs(logp_degrees_given_mixtures({0: st})) < 1e-12

    def test_two_nodes_degrees_2_1(self):
        st = degree_stats([(0,), (0,)], {(0, 0): 2, (1, 0): 1}, 1)
        # p(3,2) = 1 partition, assignment factor 1/2
        assert abs(logp_degrees_given_mixtures({0: st}) - math.log(0.5)) < 1e-12

    @pytest.mark.parametrize("mixtures,e_r", [
        ([(0,), (0,)], {0: 5}),
        ([(0,), (0,), (0, 1)], {0: 5, 1: 2}),
        ([(0, 1), (0,), (1,)], {0: 4, 1: 3}),
        ([(0,), (1,), (0, 1)], {0: 3, 1: 4}),
    ])
    def test_normalization(self, mixtures, e_r):
        """Sum over every labeled degree table compatible with the fixed
        mixtures and group totals equals one."""
        groups = sorted(e_r)
        members = {g: [i for i, mix in enumerate(mixtures) if g in mix]
                   for g in groups}
        per_group = [list(compositions(e_r[g], len(members[g]))) for g in groups]
        total = 0.0
        for pick in itertools.product(*per_group):
            k_table = {}
            for g, degs in zip(groups, pick):
                for i, kv in zip(members[g], degs):
                    k_table[(i, g)] = kv
            st = degree_stats(mixtures, k_table, max(groups) + 1)
            total += math.exp(logp_degrees_given_mixtures({0: st}))
        assert abs(total - 1.0) < 1e-9

    def test_inconsistent_state_raises(self):
        st = degree_stats([(0,)], {(0, 0): 2}, 1)
        st.e_r[0] = 0  # fewer half-edges than members require
        with pytest.raises(IntegrityError):
            logp_degrees_given_mixtures({0: st})


class TestBipartitePartition:
    def test_two_single_groups(self):
        st = state_from_label_arrays(2, 2, [0, 1], [0, 1], [0, 0], [1, 1],
                                     [1, 1], 2, [0, 1])
        got = logp_partition_array(MixtureTables(CountTables(st)))
        stats = side_statistics_reference(st)
        expected = sum(logp_overlap_partition(s) for s in stats.values())
        assert abs(got - expected) < 1e-12

    def test_mixed_side_group_raises(self):
        # word half-edge labeled with a document-side group
        st = state_from_label_arrays(1, 1, [0], [0], [0], [0], [1], 2, [0, 1])
        with pytest.raises(IntegrityError, match="side"):
            joint_logp(st)

    def test_sides_scored_independently(self):
        st = state_from_label_arrays(
            3, 3, [0, 1, 2, 0], [0, 1, 2, 2], [0, 1, 0, 0], [2, 3, 3, 2],
            [2, 1, 1, 1], 4, [0, 0, 1, 1])
        stats = side_statistics_reference(st)
        total = logp_partition_array(MixtureTables(CountTables(st)))
        assert abs(total - sum(logp_overlap_partition(s) for s in stats.values())) < 1e-12


class TestHierarchy:
    def test_flat_reduces_to_geometric(self):
        st = random_state(np.random.default_rng(0), allow_loops=False)
        t = CountTables(st)
        got = logp_hierarchy(t.dense_e(), [], None)
        omega = top_level_density(t.E, t.n_groups)
        assert abs(got - logp_edge_matrix_geometric(t, omega)) < 1e-12

    def test_two_into_one_partition_prior(self):
        # merging two groups into one: (2!/2!) * C(1,0)^-1 * (1/2)
        assignment = np.array([0, 0])
        assert abs(logp_level_partition(assignment) - math.log(0.5)) < 1e-12

    def test_identity_partition_prior(self):
        assignment = np.array([0, 1])
        # sizes 1,1: (1/2!) * C(1,1)^-1 * 1/2 -> 1/4
        assert abs(logp_level_partition(assignment) - math.log(1 / 4)) < 1e-12

    def test_aggregation_consistency(self):
        rng = np.random.default_rng(9)
        e = rng.integers(0, 4, size=(4, 4))
        e = e + e.T
        assignment = np.array([0, 0, 1, 1])
        agg = aggregate_matrix(e, assignment, 2)
        assert agg[0, 0] == e[:2, :2].sum()
        assert agg[0, 1] == e[:2, 2:].sum()

    def test_level_matrix_normalization(self):
        """Distributing a coarse count over fine pairs sums to one."""
        assignment = np.array([0, 0, 1])
        coarse = np.array([[4, 2], [2, 0]])
        total = 0.0
        # enumerate symmetric fine matrices aggregating to coarse: coarse
        # group 0 holds nodes {0, 1} (2 within-group units to spread over the
        # pairs (0,0), (0,1), (1,1)) and 2 cross units over (0,2), (1,2)
        for x01 in range(0, 3):
            for d0 in range(0, 3):
                for d1 in range(0, 3):
                    if x01 + d0 + d1 != 2:
                        continue
                    for x02 in range(0, 3):
                        x12 = 2 - x02
                        f = np.zeros((3, 3), dtype=int)
                        f[0, 1] = f[1, 0] = x01
                        f[0, 2] = f[2, 0] = x02
                        f[1, 2] = f[2, 1] = x12
                        f[0, 0] = 2 * d0
                        f[1, 1] = 2 * d1
                        agg = aggregate_matrix(f, assignment, 2)
                        assert np.array_equal(agg, coarse)
                        total += math.exp(logp_level_matrix(f, assignment, 2))
        assert abs(total - 1.0) < 1e-9

    def test_group_side_propagation(self):
        sides = hierarchy_group_sides(np.array([0, 0, 1, 1]),
                                      [np.array([0, 0, 1, 1])])
        assert sides[1].tolist() == [0, 1]
        with pytest.raises(IntegrityError):
            hierarchy_group_sides(np.array([0, 1]), [np.array([0, 0])])


class TestJoint:
    @given(hst.data())
    def test_relabel_invariance(self, data):
        """Any permutation of each side's group ids leaves the joint as it is."""
        st = data.draw(bipartite_states())
        perm = np.arange(st.n_groups)
        for side in (0, 1):
            ids = np.flatnonzero(st.group_side == side)
            perm[ids] = data.draw(hst.permutations(ids))
        relabeled = LabeledGraph(st.n_nodes, st.i, st.j, perm[st.r], perm[st.s], st.m,
                                 st.n_groups, side=st.side, group_side=st.group_side)
        assert abs(joint_logp(relabeled).sigma_nats - joint_logp(st).sigma_nats) < 1e-9

    def test_breakdown_sums(self):
        st = state_from_label_arrays(2, 2, [0, 1], [0, 1], [0, 1], [2, 3],
                                     [2, 3], 4, [0, 0, 1, 1])
        score = joint_logp(st)
        assert abs(sum(score.breakdown.values()) - score.sigma_nats) < 1e-9

    def test_compress_drops_empty_groups(self):
        st = state_from_label_arrays(2, 2, [0, 1], [0, 1], [0, 0], [3, 3],
                                     [1, 1], 5, [0, 0, 0, 1, 1])
        compressed = compress_groups(st)
        assert compressed.n_groups == 2
        assert joint_logp(st).sigma_nats == pytest.approx(
            joint_logp(compressed).sigma_nats, abs=1e-9)

    def test_monotone_posterior_correspondence(self):
        # lower description length means higher joint probability by definition
        st = state_from_label_arrays(2, 2, [0, 1], [0, 1], [0, 1], [2, 3],
                                     [2, 3], 4, [0, 0, 1, 1])
        score = joint_logp(st)
        assert score.sigma_nats == pytest.approx(-(-score.sigma_nats))


# --- loop references for the array-built aggregates -----------------------


class CountTablesReference(CountTables):
    """The per-element build of `CountTables` (np.unique and np.add.at)."""

    def __init__(self, state):
        self.n_nodes = state.n_nodes
        self.n_groups = state.n_groups
        B = state.n_groups
        lo = np.minimum(state.r, state.s)
        hi = np.maximum(state.r, state.s)
        weight = np.where(lo == hi, 2 * state.m, state.m)
        key = lo * B + hi
        uniq, inv = np.unique(key, return_inverse=True)
        vals = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(vals, inv, weight)
        self.pair_r = (uniq // B).astype(np.int64)
        self.pair_s = (uniq % B).astype(np.int64)
        self.pair_e = vals
        self.e_r = np.zeros(B, dtype=np.int64)
        np.add.at(self.e_r, self.pair_r, self.pair_e)
        off = self.pair_r != self.pair_s
        np.add.at(self.e_r, self.pair_s[off], self.pair_e[off])
        self.E = int(state.m.sum())
        nk = np.concatenate([state.i, state.j])
        gk = np.concatenate([state.r, state.s])
        mk = np.concatenate([state.m, state.m])
        kuniq, kinv = np.unique(nk * B + gk, return_inverse=True)
        kvals = np.zeros(len(kuniq), dtype=np.int64)
        np.add.at(kvals, kinv, mk)
        self.k_node = (kuniq // B).astype(np.int64)
        self.k_group = (kuniq % B).astype(np.int64)
        self.k_val = kvals
        self.side, self.group_side = state.side, state.group_side
        equal = (state.i == state.j) & (state.r == state.s)
        self.log_m = float(log_factorial(state.m[~equal]).sum())
        self.log_loops = float(log_double_factorial_even(2 * state.m[equal]).sum())


def compress_groups_reference(state):
    occupied = np.unique(np.concatenate([state.r, state.s])) if len(state.r) else np.zeros(0, np.int64)
    remap = -np.ones(state.n_groups, dtype=np.int64)
    remap[occupied] = np.arange(len(occupied))
    return LabeledGraph(
        state.n_nodes, state.i, state.j, remap[state.r], remap[state.s], state.m,
        len(occupied), side=state.side,
        group_side=None if state.group_side is None else state.group_side[occupied],
    )


def side_statistics_reference(state, tables=None):
    """Visits the nodes one by one, filling every dict as it goes."""
    t = tables if tables is not None else CountTablesReference(state)
    sides = {}

    def stats_for(side_id):
        if state.side is None:
            return sides.setdefault(0, SideStats(n_groups=state.n_groups))
        if side_id not in sides:
            sides[side_id] = SideStats(n_groups=int((state.group_side == side_id).sum()))
        return sides[side_id]

    order = np.argsort(t.k_node, kind="stable")
    nodes, groups, vals = t.k_node[order], t.k_group[order], t.k_val[order]
    idx, n = 0, len(nodes)
    while idx < n:
        stop = idx
        node = nodes[idx]
        while stop < n and nodes[stop] == node:
            stop += 1
        mixture = tuple(int(g) for g in groups[idx:stop])
        st = stats_for(0 if state.side is None else int(state.side[node]))
        st.n_eff += 1
        st.size_hist[len(mixture)] += 1
        st.mixture_count[mixture] += 1
        for g, kv in zip(mixture, vals[idx:stop]):
            st.e_mix[(mixture, g)] = st.e_mix.get((mixture, g), 0) + int(kv)
            st.deg_freq.setdefault((mixture, g), Counter())[int(kv)] += 1
            st.members_with[g] += 1
        idx = stop
    for st in sides.values():
        for mixture in st.mixture_count:
            for g in mixture:
                st.m_r[g] += 1
    for r, er in zip(range(t.n_groups), t.e_r):
        if er > 0:
            stats_for(0 if state.group_side is None else int(state.group_side[r])).e_r[r] = int(er)
    if state.side is not None:
        for side_id in (0, 1):
            stats_for(side_id)
    return sides


def check_group_sides_reference(state):
    """The mixed-side check as a scan of every bundle: IntegrityError names
    the first bundle with a half-edge labeled by a group of the other side."""
    if state.side is not None:
        bad_r = state.group_side[state.r] != state.side[state.i]
        bad_s = state.group_side[state.s] != state.side[state.j]
        if np.any(bad_r) or np.any(bad_s):
            which = np.nonzero(bad_r | bad_s)[0][0]
            raise IntegrityError(
                f"bundle {int(which)} labels a half-edge with a group from the other side"
            )


def logp_partition_reference(state, max_overlap, stats_by_side):
    """The summed per-side overlapping partition priors of the dict path,
    after the mixed-side check."""
    check_group_sides_reference(state)
    return float(sum(logp_overlap_partition(st, max_overlap) for st in stats_by_side.values()))


def joint_breakdown_reference(state, max_overlap=None):
    """`joint_logp`'s flat breakdown, from the reference aggregates."""
    state = compress_groups_reference(state)
    t = CountTablesReference(state)
    stats = side_statistics_reference(state, t)
    return {
        "adjacency": -logp_graph_given_ke(t),
        "degrees": -logp_degrees_given_mixtures(stats),
        "partition": -logp_partition_reference(state, max_overlap, stats),
        "edge_matrix": -logp_hierarchy(t.dense_e(), [], state.group_side),
    }


@hst.composite
def general_states(draw):
    """Unsided multigraphs: loops, isolated nodes, repeated bundles, unused
    group ids, or no edges at all."""
    n, b = draw(hst.integers(1, 6)), draw(hst.integers(1, 4))
    rows = draw(hst.lists(hst.tuples(hst.integers(0, n - 1), hst.integers(0, n - 1),
                                     hst.integers(0, b - 1), hst.integers(0, b - 1),
                                     hst.integers(1, 4)), max_size=10))
    bundles = []
    for i, j, r, s, m in rows:
        if i > j:
            i, j, r, s = j, i, s, r
        if i == j:
            r, s = min(r, s), max(r, s)
        bundles.append((i, j, r, s, m))
    cols = [np.array(c, dtype=np.int64) for c in zip(*bundles)] or [np.zeros(0, np.int64)] * 5
    return LabeledGraph(n, *cols, b)


def both_sides(size):
    return hst.lists(hst.integers(0, 1), min_size=2, max_size=size).filter(
        lambda sides: 0 in sides and 1 in sides)


@hst.composite
def bipartite_states(draw, mixed_sides=False):
    """Two-sided states with interleaved node sides and group sides,
    isolated nodes, repeated bundles, unused groups, or no edges at all.
    With `mixed_sides`, half-edges take groups of either side."""
    side, group_side = draw(both_sides(9)), draw(both_sides(6))
    nodes, groups = ([[v for v, sd in enumerate(arr) if sd == want] for want in (0, 1)]
                     for arr in (side, group_side))
    if mixed_sides:
        groups = [list(range(len(group_side)))] * 2
    rows = draw(hst.lists(hst.tuples(hst.sampled_from(nodes[0]), hst.sampled_from(nodes[1]),
                                     hst.sampled_from(groups[0]), hst.sampled_from(groups[1]),
                                     hst.integers(1, 4)), max_size=12))
    bundles = [(a, b, ra, rb, m) if a < b else (b, a, rb, ra, m) for a, b, ra, rb, m in rows]
    cols = [np.array(c, dtype=np.int64) for c in zip(*bundles)] or [np.zeros(0, np.int64)] * 5
    return LabeledGraph(len(side), *cols, len(group_side), side=side, group_side=group_side)


def assert_same_graph(a, b):
    assert (a.n_nodes, a.n_groups) == (b.n_nodes, b.n_groups)
    for name in ("i", "j", "r", "s", "m", "side", "group_side"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None)
        if x is not None:
            assert x.dtype == y.dtype and np.array_equal(x, y), name


def assert_same_tables(got, want):
    assert (got.n_nodes, got.n_groups, got.E, got.log_m, got.log_loops) == (
        want.n_nodes, want.n_groups, want.E, want.log_m, want.log_loops)
    for name in ("pair_r", "pair_s", "pair_e", "e_r", "k_node", "k_group", "k_val", "side",
                 "group_side"):
        x, y = getattr(got, name), getattr(want, name)
        assert (x is None) == (y is None), name
        assert x is None or (x.dtype == y.dtype and np.array_equal(x, y)), name


class TestArrayAggregates:
    """The array builds equal the loop references exactly, including the
    dict insertion order that fixes the order of every float sum."""

    def check(self, state):
        assert_same_graph(compress_groups(state), compress_groups_reference(state))
        for st in (state, compress_groups_reference(state)):
            tables = CountTables(st)
            assert_same_tables(tables, CountTablesReference(st))
        assert joint_logp(state).breakdown == joint_breakdown_reference(state)

    @given(general_states())
    def test_unsided_states(self, state):
        self.check(state)

    @given(bipartite_states())
    def test_bipartite_states(self, state):
        self.check(state)

    def test_empty_graphs(self):
        empty = np.zeros(0, np.int64)
        self.check(LabeledGraph(3, empty, empty, empty, empty, empty, 2))
        self.check(state_from_label_arrays(2, 3, empty, empty, empty, empty, empty, 3, [0, 1, 1]))
        assert joint_logp(LabeledGraph(1, empty, empty, empty, empty, empty, 0)).sigma_nats == 0.0


@hst.composite
def wide_states(draw):
    """Unsided multigraphs with 2200-3000 nodes, 60-100 groups and
    multiplicities up to 2**45: a (node, group) key can then need 18 bits
    above a 46-bit weight, which `_sorted_sums` cannot pack into 63."""
    n, b = draw(hst.integers(2200, 3000)), draw(hst.integers(60, 100))
    node = hst.one_of(hst.integers(0, n - 1), hst.just(n - 1))
    m = hst.sampled_from([1, 2, 3, 2**44 + 1, 2**45])
    rows = draw(hst.lists(hst.tuples(node, node, hst.integers(0, b - 1),
                                     hst.integers(0, b - 1), m), max_size=12))
    bundles = [(i, j, r, s, m) if i < j else (j, i, min(r, s), max(r, s), m) if i == j
               else (j, i, s, r, m) for i, j, r, s, m in rows]
    cols = [np.array(c, dtype=np.int64) for c in zip(*bundles)] or [np.zeros(0, np.int64)] * 5
    return LabeledGraph(n, *cols, b)


def count_tables_by_dict(state):
    """`CountTables`' pairs, labeled degrees and group totals, summed bundle
    by bundle in plain dicts."""
    pairs, degrees = Counter(), Counter()
    for i, j, r, s, m in zip(*(getattr(state, name).tolist() for name in "ijrsm")):
        pairs[min(r, s), max(r, s)] += 2 * m if r == s else m
        degrees[i, r] += m
        degrees[j, s] += m
    e_r = [0] * state.n_groups
    for (r, s), e in pairs.items():
        e_r[r] += e
        if r != s:
            e_r[s] += e
    return sorted(pairs.items()), sorted(degrees.items()), e_r


@hst.composite
def pair_rows(draw):
    """(a, b, weight) rows with b < 3061, in a box at an offset: a box of 1,
    4 or 16 cells, which 30 rows can outnumber, or of 3721; small weights,
    or in half the draws also weights near 2**52, whose float sums would be
    inexact."""
    a0, b0, span = draw(hst.integers(0, 3000)), draw(hst.integers(0, 3000)), draw(
        hst.sampled_from([0, 1, 3, 60]))
    weight = hst.integers(1, 50)
    if draw(hst.booleans()):
        weight = hst.one_of(weight, hst.integers(2**52 - 2, 2**52 + 1))
    return draw(hst.lists(hst.tuples(hst.integers(a0, a0 + span), hst.integers(b0, b0 + span),
                                     weight), max_size=30))


class TestPackedSums:
    """`CountTables` sums each key pair set by `_pair_sums`: a `bincount`
    over the pairs' bounding box when it is no larger than the set and no
    float sum can reach 2**53, else a packed (key, weight) sort, with an
    argsort where the pack would overflow; all give the exact integer sums."""

    @given(hst.one_of(general_states(), bipartite_states(), wide_states()))
    def test_count_tables_match_dicts(self, state):
        t = CountTables(state)
        pairs, degrees, e_r = count_tables_by_dict(state)
        assert list(zip(zip(t.pair_r.tolist(), t.pair_s.tolist()), t.pair_e.tolist())) == pairs
        assert list(zip(zip(t.k_node.tolist(), t.k_group.tolist()), t.k_val.tolist())) == degrees
        assert t.e_r.tolist() == e_r
        assert t.E == sum(state.m.tolist())

    @given(pair_rows(), hst.sampled_from([1, microcanonical.SMALL_PAIR_SET]))
    @example([], 1)
    @example([(7, 3, 5)], 1)
    @example([(0, 0, 2**52 + 1)] * 3, 1)
    def test_pair_sums_match_a_counter(self, rows, small_set):
        """With a small-set cut-off of 1 every nonempty draw weighs the
        bincount; with the package's, every draw here sorts."""
        sums = Counter()
        for a, b, w in rows:
            sums[a, b] += w
        a, b, weight = (np.array([row[c] for row in rows], dtype=np.int64) for c in range(3))
        with mock.patch.object(microcanonical, "SMALL_PAIR_SET", small_set):
            got = _pair_sums(a, b, weight, 3061)
        assert all(x.dtype == np.int64 for x in got)
        got_a, got_b, got_sum = (x.tolist() for x in got)
        assert list(zip(zip(got_a, got_b), got_sum)) == sorted(sums.items())

    @pytest.mark.parametrize("a, b, weight, small_set, counted", [
        ([5, 6, 5, 6], [9, 9, 10, 10], [1, 2, 3, 4], 1, True),   # 2 x 2 box, 4 keys
        ([5, 6, 5, 6], [9, 9, 10, 10], [1, 2, 3, 4], 5, False),  # a small set
        ([5, 6, 5], [9, 9, 10], [1, 2, 3], 1, False),            # 2 x 2 box, 3 keys
        ([0, 0], [9, 9], [2**52 - 1, 2**52 - 1], 1, True),       # max * n < 2**53
        ([0, 0], [9, 9], [2**52, 3], 1, False),                  # max * n = 2**53
    ])
    def test_bincount_guard(self, monkeypatch, a, b, weight, small_set, counted):
        """The bincount runs only for SMALL_PAIR_SET pairs or more, where the
        box has at most one cell per pair and max(weight) * n < 2**53."""
        bincount, calls = np.bincount, []

        def counting(*args, **kwargs):
            calls.append(args)
            return bincount(*args, **kwargs)

        monkeypatch.setattr(np, "bincount", counting)
        monkeypatch.setattr(microcanonical, "SMALL_PAIR_SET", small_set)
        sums = Counter()
        for pair in zip(a, b, weight):
            sums[pair[:2]] += pair[2]
        got_a, got_b, got_sum = _pair_sums(
            *(np.array(x, dtype=np.int64) for x in (a, b, weight)), 11)
        assert list(zip(zip(got_a.tolist(), got_b.tolist()), got_sum.tolist())) == sorted(
            sums.items())
        assert len(calls) == counted

    @pytest.mark.parametrize("variant", ["per-doc-group", "doc-clustering"])
    def test_corpus_tables_match_the_reference(self, monkeypatch, variant):
        """On a true-label corpus state some key pair sets take the bincount
        and the rest the sort."""
        state = compress_groups(corpus_state(3, variant))
        sorted_sums, sorts = microcanonical._sorted_sums, []

        def counting(*args):
            sorts.append(len(args[0]))
            return sorted_sums(*args)

        monkeypatch.setattr(microcanonical, "_sorted_sums", counting)
        assert_same_tables(CountTables(state), CountTablesReference(state))
        assert 0 < len(sorts) < 5

    @given(hst.lists(hst.tuples(hst.one_of(hst.integers(0, 50), hst.integers(0, 2**40)),
                                hst.one_of(hst.integers(0, 50), hst.integers(0, 2**40))),
                     max_size=30))
    def test_sorted_sums_match_a_dict(self, pairs):
        sums = Counter()
        for k, w in pairs:
            sums[k] += w
        key, weight = (np.array([p[c] for p in pairs], dtype=np.int64) for c in (0, 1))
        got_key, got_sum = _sorted_sums(key, weight)
        assert list(zip(got_key.tolist(), got_sum.tolist())) == sorted(sums.items())

    @pytest.mark.parametrize("key_max, packed", [(2**17 - 1, True), (2**17, False)])
    def test_overflow_guard(self, monkeypatch, key_max, packed):
        """A 46-bit weight packs below a 17-bit key into 63 bits; an 18-bit
        key takes the argsort."""
        argsort, calls = np.argsort, []

        def counted(*args, **kwargs):
            calls.append(args)
            return argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counted)
        key = np.array([key_max, 3, key_max, 0], dtype=np.int64)
        weight = np.array([2**46 - 1, 1, 5, 2**45], dtype=np.int64)
        got_key, got_sum = _sorted_sums(key, weight)
        assert got_key.tolist() == [0, 3, key_max]
        assert got_sum.tolist() == [2**45, 1, 2**46 + 4]
        assert len(calls) == (0 if packed else 1)


def first_occurrence_counts_reference(key):
    """Distinct keys with their counts, in order of first occurrence, by
    `np.unique`, the build `_first_occurrence_counts` replaced."""
    uniq, first, counts = np.unique(key, return_index=True, return_counts=True)
    order = np.argsort(first)
    return uniq[order], counts[order]


def sort_keys():
    """Nonnegative int64 keys: none or one, few distinct values, spread up
    to 2**40, or near 2**62, where no index packs below a key in 63 bits."""
    return hst.one_of(
        hst.lists(hst.integers(0, 2**40), max_size=1),
        hst.lists(hst.integers(0, 3), max_size=80),
        hst.lists(hst.integers(0, 2**40), max_size=40),
        hst.lists(hst.integers(2**62 - 4, 2**62 + 3), max_size=40),
    ).map(lambda keys: np.array(keys, dtype=np.int64))


class TestPackedOrders:
    """`_sort_packed` and the stable order built on it, against numpy's
    stable argsort and the `np.unique` first-occurrence build."""

    @given(sort_keys())
    def test_stable_order_is_the_stable_argsort(self, key):
        got_key, got_order = _stable_order(key)
        want = np.argsort(key, kind="stable")
        assert got_order.dtype == np.int64
        assert got_order.tolist() == want.tolist()
        assert got_key.tolist() == key[want].tolist()

    @pytest.mark.parametrize("key_max, packed", [(2**61, True), (2**62, False)])
    def test_stable_order_overflow_guard(self, monkeypatch, key_max, packed):
        """Two indices need one bit: a key of 2**61 packs above it in 63
        bits, and 2**62 takes the argsort."""
        calls = count_calls(monkeypatch, np, "argsort")
        key = np.array([key_max, key_max], dtype=np.int64)
        assert _stable_order(key)[1].tolist() == [0, 1]
        assert len(calls) == (0 if packed else 1)

    @given(sort_keys(), hst.lists(hst.integers(0, 2**20), min_size=1, max_size=80))
    def test_sort_packed_orders_by_key_then_low(self, key, low):
        """Sorted by (key, low) when packed; in the fallback, equal keys keep
        their input order."""
        low = np.array((low * (len(key) // len(low) + 1))[:len(key)], dtype=np.int64)
        got_key, got_low = _sort_packed(key, low)
        if int(key.max(initial=0)) >> (63 - int(low.max(initial=0)).bit_length()):
            want = sorted(zip(key.tolist(), low.tolist()), key=lambda pair: pair[0])
        else:
            want = sorted(zip(key.tolist(), low.tolist()))
        assert list(zip(got_key.tolist(), got_low.tolist())) == want

    @given(sort_keys())
    def test_first_occurrence_counts_match_unique(self, key):
        got, want = _first_occurrence_counts(key), first_occurrence_counts_reference(key)
        assert [x.tolist() for x in got] == [x.tolist() for x in want]


@given(bipartite_states(mixed_sides=True))
def test_group_side_check_matches_bundle_scan(state):
    """Checked on the labeled degrees, a state with half-edges labeled by
    groups of the other side raises what the scan of every bundle raises."""
    got = outcome(_check_group_sides, state, MixtureTables(CountTables(state)))
    assert got == outcome(check_group_sides_reference, state)


@given(hst.one_of(general_states(), bipartite_states()))
def test_compressed_states_pass_validation(state):
    """`compress_groups` skips `LabeledGraph`'s checks; its output passes
    them when rebuilt from its arrays, and its input is left as it was."""
    before = copy.deepcopy(state)
    out = compress_groups(state)
    rebuilt = LabeledGraph(out.n_nodes, out.i, out.j, out.r, out.s, out.m, out.n_groups,
                           side=out.side, group_side=out.group_side)
    assert_same_graph(rebuilt, out)
    assert_same_graph(state, before)


@hst.composite
def label_sets(draw):
    """Small labeled counts with unused words, unused topics and, now and
    then, a zero count."""
    D, V, K = draw(hst.integers(1, 4)), draw(hst.integers(1, 5)), draw(hst.integers(1, 3))
    rows = draw(hst.lists(hst.tuples(hst.integers(0, D - 1), hst.integers(0, V - 1),
                                     hst.integers(0, K - 1), hst.integers(0, 4)), max_size=12))
    cols = [np.array(c, dtype=np.int64) for c in zip(*rows)] or [np.zeros(0, np.int64)] * 4
    return lda.LabeledCounts(D, V, K, *cols)


@given(label_sets(), hst.sampled_from(["per-doc-group", "doc-clustering"]))
def test_label_states_pass_validation(labels, variant):
    """`labels_to_state` skips `LabeledGraph`'s checks but m >= 1; its output
    passes them when rebuilt from its arrays, and a zero count is refused."""
    if np.any(labels.counts == 0):
        with pytest.raises(IntegrityError, match="multiplicities must be positive"):
            labels_to_state(labels, variant)
        return
    out = labels_to_state(labels, variant)
    rebuilt = LabeledGraph(out.n_nodes, out.i, out.j, out.r, out.s, out.m, out.n_groups,
                           side=out.side, group_side=out.group_side)
    assert_same_graph(rebuilt, out)


VARIANTS = ["per-doc-group", "doc-clustering"]


def anchored_rows(labels):
    """The labels as the anchored fitter holds them: the coalesced (d, w)
    bundles over every word, observed or not, and one topic row per bundle."""
    dense = labels.to_dense()
    counts = dense.sum(axis=2)
    d_idx, w_idx = np.nonzero(counts)
    bundles = BipartiteMultigraph(labels.n_docs, labels.n_words, d_idx, w_idx,
                                  counts[d_idx, w_idx])
    return dense[d_idx, w_idx], bundles


class TestTopicCountTables:
    """The tables of a fixed-label state read off its topic-count tables
    are those summed from its bundles, so its scores are bit for bit those
    of `joint_logp` of the state: labels with empty topics, empty documents
    and unobserved words."""

    @given(label_sets().filter(lambda labels: labels.counts.all()), hst.sampled_from(VARIANTS),
           hst.sampled_from([1, microcanonical.SMALL_PAIR_SET]))
    def test_tables_match_the_bundle_sums(self, labels, variant, small_set):
        lab = labels.over_realized_words()
        got = CountTables.from_topic_counts(lab.doc_topic_counts(), lab.doc_topic_cells(),
                                            lab.word_topic_counts(), lab.word_topic_cells(),
                                            lab.log_count_factorials(),
                                            doc_groups=variant == "per-doc-group")
        with mock.patch.object(microcanonical, "SMALL_PAIR_SET", small_set):
            assert_same_tables(got, CountTables(labels_to_state(labels, variant)))

    @given(label_sets().filter(lambda labels: labels.counts.all()), hst.sampled_from(VARIANTS))
    def test_fixed_label_scores_match_the_state(self, labels, variant):
        got = fixed_label_score(labels, variant)
        want = joint_logp(labels_to_state(labels, variant), model_id="hsbm",
                          parametrization=variant)
        assert got == want

    @given(label_sets().filter(lambda labels: labels.counts.all()),
           hst.sampled_from([None, 1, 2]))
    def test_anchored_scores_match_the_state(self, labels, max_overlap):
        rows, bundles = anchored_rows(labels)
        state = inference._anchored_state(rows, bundles)
        assert outcome(score_doc_anchored, rows, bundles, max_overlap) == outcome(
            joint_logp, state, max_overlap=max_overlap, parametrization="per-doc-group")

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_corpus_scores_match_the_state(self, variant):
        """A 200-document corpus: order-sensitive sums and bincount paths."""
        labels = corpus_labels(3)
        state = labels_to_state(labels, variant)
        assert fixed_label_score(labels, variant) == joint_logp(state, parametrization=variant)
        if variant == "per-doc-group":
            rows, bundles = anchored_rows(labels)
            for cap in (None, 2, 3):  # a cap of 2 is refused on both paths
                assert outcome(score_doc_anchored, rows, bundles, cap) == outcome(
                    joint_logp, inference._anchored_state(rows, bundles), max_overlap=cap,
                    parametrization=variant)

    def test_no_bundle_state_is_built(self, monkeypatch):
        labels = corpus_labels(3)
        rows, bundles = anchored_rows(labels)

        def refuse(*args, **kwargs):
            raise AssertionError("a bundle state was built")

        monkeypatch.setattr(LabeledGraph, "__init__", refuse)
        monkeypatch.setattr(CountTables, "__init__", refuse)
        for variant in VARIANTS:
            fixed_label_score(labels, variant)
        score_doc_anchored(rows, bundles)


@pytest.mark.parametrize("d", [-1, 2])
def test_label_state_refuses_a_document_out_of_range(d):
    labels = lda.LabeledCounts(2, 2, 1, [0, d], [0, 1], [0, 0], [1, 1])
    with pytest.raises(IntegrityError, match="outside 0..1"):
        labels_to_state(labels, "doc-clustering")


def assert_joint_matches_reference(state, max_overlap=None):
    """`joint_logp` equals the reference breakdown bit for bit, or both
    refuse the overlap bound."""
    try:
        want = joint_breakdown_reference(state, max_overlap)
    except ValueError:
        with pytest.raises(ValueError, match="overlap"):
            joint_logp(state, max_overlap=max_overlap)
        return
    assert joint_logp(state, max_overlap=max_overlap).breakdown == want


@functools.lru_cache(maxsize=None)
def corpus_labels(n_topics):
    """True labels of a seeded 200-document Zipf-base corpus."""
    V = 300
    hyper = lda.make_hyper(1.0, 1.0, np.full(n_topics, 1.0 / n_topics),
                           lda.double_power_law_base(V))
    return lda.sample_corpus(n_topics, 200, V, 40, hyper, seed=3).labels


@functools.lru_cache(maxsize=None)
def corpus_state(n_topics, variant, sided=True):
    """True-label state of `corpus_labels`; unsided, all its nodes form one
    side, so one side's partition is the whole term."""
    st = labels_to_state(corpus_labels(n_topics), variant)
    return st if sided else LabeledGraph(st.n_nodes, st.i, st.j, st.r, st.s, st.m, st.n_groups)


class TestOrderSensitiveSums:
    """States large enough for the order of float sums to show: a (mixture,
    group) pair with nine or more distinct degrees and sides with nine or
    more pairs, where numpy's pairwise `.sum()` or a `reduceat` would change
    the last bits.  The array scores equal the dict reference exactly."""

    @pytest.mark.parametrize("max_overlap", [None, 1, 2])
    @pytest.mark.parametrize("sided", [True, False])
    @pytest.mark.parametrize("variant", ["per-doc-group", "doc-clustering"])
    @pytest.mark.parametrize("n_topics", [2, 4])
    def test_corpus_states(self, n_topics, variant, sided, max_overlap):
        assert_joint_matches_reference(corpus_state(n_topics, variant, sided), max_overlap)

    @pytest.mark.parametrize("variant", ["per-doc-group", "doc-clustering"])
    def test_corpus_side_statistics(self, variant):
        state = compress_groups(corpus_state(4, variant))
        mix = MixtureTables(CountTables(state))
        assert np.diff(mix.freq_start).max() >= 9
        assert np.bincount(mix.pair_side).min() >= 9  # on both sides
        assert mix.mix_size.max() >= 2  # overlapping mixtures

    @pytest.mark.parametrize("variant", ["per-doc-group", "doc-clustering"])
    @pytest.mark.parametrize("n_topics", [2, 4])
    def test_corpus_frequency_sums(self, n_topics, variant):
        """Each pair's frequency log-factorials, summed as the dict path sums
        them (a ninth term already changes a pairwise sum)."""
        state = compress_groups(corpus_state(n_topics, variant))
        mix, stats = MixtureTables(CountTables(state)), side_statistics_reference(state)
        lf = log_factorial_table(state.n_nodes)
        got = _run_sums(lf[mix.freq_count], mix.freq_start)
        for sd, st in stats.items():
            want = [float(sum(lf[c] for c in st.deg_freq[key].values())) for key in st.e_mix]
            assert got[mix.pair_side == sd].tolist() == want

    @given(hst.lists(hst.lists(hst.floats(1e-3, 1e3), min_size=1, max_size=30), max_size=12))
    def test_run_sums_add_left_to_right(self, runs):
        values = np.array([v for run in runs for v in run])
        bounds = np.cumsum([0] + [len(run) for run in runs])
        want = []
        for run in runs:
            acc = np.float64(run[0])
            for v in run[1:]:
                acc = acc + np.float64(v)
            want.append(float(acc))
        assert _run_sums(values, bounds).tolist() == want

    @given(general_states(), hst.sampled_from([None, 1, 2]))
    def test_overlap_bounds_on_unsided_states(self, state, max_overlap):
        assert_joint_matches_reference(state, max_overlap)

    @given(bipartite_states(), hst.sampled_from([None, 1, 2]))
    def test_overlap_bounds_on_bipartite_states(self, state, max_overlap):
        assert_joint_matches_reference(state, max_overlap)


def outcome(score, *args, **kwargs):
    """What a scorer returns, or the type and message of what it raises."""
    try:
        return score(*args, **kwargs)
    except (IntegrityError, ValueError) as err:
        return type(err), str(err)


class TestArrayErrorPaths:
    """The array scores refuse what the dict scores refuse, with the same
    exception types, and a state with several faults raises the same error
    on both paths."""

    def small_state(self):
        return state_from_label_arrays(3, 2, [0, 1, 2, 2], [0, 1, 0, 1], [0, 0, 0, 1],
                                       [2, 3, 2, 3], [2, 1, 3, 1], 4, [0, 0, 1, 1])

    def test_degree_fault_before_mixed_side(self):
        # document 0 carries only the word-side group 1 and word 0 only the
        # document-side group 0: group 0 has no member on its own side, which
        # the degree prior refuses before the partition prior's side check
        st = state_from_label_arrays(1, 1, [0], [0], [1], [0], [1], 2, [0, 1])
        with pytest.raises(IntegrityError, match="inconsistent"):
            joint_logp(st)
        assert outcome(lambda: joint_logp(st).breakdown) == outcome(joint_breakdown_reference, st)

    @given(bipartite_states(mixed_sides=True), hst.sampled_from([None, 1]))
    def test_mixed_side_states(self, state, max_overlap):
        assert outcome(lambda: joint_logp(state, max_overlap=max_overlap).breakdown) == \
            outcome(joint_breakdown_reference, state, max_overlap)

    @pytest.mark.parametrize("faults, match", [
        ({"e_r": 0, "k_val": True}, "inconsistent"),  # both on side 0: groups first
        ({"e_r": 2, "k_val": True}, "cannot split"),  # side 0's pair before side 1's group
    ])
    def test_fault_order(self, faults, match):
        # groups 0 and 2 have three and two member nodes
        st = state_from_label_arrays(3, 2, [0, 1, 2, 2], [0, 1, 0, 1], [0, 0, 0, 1],
                                     [2, 2, 2, 3], [2, 1, 3, 1], 4, [0, 0, 1, 1])
        tables = CountTables(st)
        tables.e_r[faults["e_r"]] = 1
        if faults["k_val"]:  # document 2 alone in its mixture, degree 0 in group 1
            tables.k_val[(tables.k_node == 2) & (tables.k_group == 1)] = 0
        got = outcome(logp_degrees_array, MixtureTables(tables))
        assert got == outcome(logp_degrees_given_mixtures, side_statistics_reference(st, tables))
        assert got[0] is IntegrityError and match in got[1]

    def test_inconsistent_group_total(self):
        st = self.small_state()
        tables = CountTables(st)
        tables.e_r[0] = 1  # group 0 has three member nodes
        with pytest.raises(IntegrityError, match="inconsistent"):
            logp_degrees_array(MixtureTables(tables))
        with pytest.raises(IntegrityError, match="inconsistent"):
            logp_degrees_given_mixtures(side_statistics_reference(st, tables))

    def test_degree_sum_that_cannot_split(self):
        st = self.small_state()
        mix = MixtureTables(CountTables(st))
        mix.pair_esum[-1] = mix.mix_count[mix.pair_mix[-1]] - 1
        with pytest.raises(IntegrityError, match="cannot split"):
            logp_degrees_array(mix)

    def test_overlap_bound(self):
        st = self.small_state()  # document 2 sits in groups 0 and 1
        joint_logp(st, max_overlap=2)
        with pytest.raises(ValueError, match="overlap"):
            joint_logp(st, max_overlap=1)


@hst.composite
def offset_rows(draw):
    """(a, a + offset, weight) rows: a within 1, 4 or 61 values from a start
    up to 3000, one offset in -a_min..3000, small weights or, in half the
    draws, also weights near 2**52, whose float sums would be inexact."""
    a0, span = draw(hst.integers(0, 3000)), draw(hst.sampled_from([0, 3, 60]))
    offset = draw(hst.integers(-a0, 3000))
    weight = hst.integers(1, 50)
    if draw(hst.booleans()):
        weight = hst.one_of(weight, hst.integers(2**52 - 2, 2**52 + 1))
    rows = draw(hst.lists(hst.tuples(hst.integers(a0, a0 + span), weight), max_size=30))
    return [(a, a + offset, w) for a, w in rows]


def count_calls(monkeypatch, module, name):
    """Patch `module.name` to log the length of its first argument per call."""
    fn, calls = getattr(module, name), []

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestDenseKeys:
    """`_pair_sums` sums a set whose b is a plus one constant by one
    `bincount` over a; `CountTables` joins a bipartite state's two ends'
    labeled degrees without a further sum; `joint_logp` compresses only a
    state with an empty group, renumbering its tables alike."""

    @given(offset_rows(), hst.sampled_from([1, microcanonical.SMALL_PAIR_SET]))
    @example([(5, 5, 1), (6, 6, 2), (5, 5, 3)], 1)
    @example([(9, 2, 1), (8, 1, 2)], 1)
    @example([(0, 7, 2**52 + 1)] * 3, 1)
    def test_constant_offset_sums_match_a_counter(self, rows, small_set):
        sums = Counter()
        for a, b, w in rows:
            sums[a, b] += w
        a, b, weight = (np.array([row[c] for row in rows], dtype=np.int64) for c in range(3))
        with mock.patch.object(microcanonical, "SMALL_PAIR_SET", small_set):
            got = _pair_sums(a, b, weight, 6001)
        assert all(x.dtype == np.int64 for x in got)
        got_a, got_b, got_sum = (x.tolist() for x in got)
        assert list(zip(zip(got_a, got_b), got_sum)) == sorted(sums.items())

    @pytest.mark.parametrize("a, b, weight, counted", [
        ([3, 4, 3, 5], [10, 11, 10, 12], [1, 2, 3, 4], True),   # 3 x 3 box, a spans 3
        ([3, 4, 3, 5], [1, 2, 1, 3], [1, 2, 3, 4], True),       # offset -2
        ([3, 4, 3, 5], [10, 11, 10, 13], [1, 2, 3, 4], False),  # b - a not constant
        ([0, 4, 0, 4], [2, 6, 2, 6], [1, 1, 1, 1], False),      # a spans 5 values, 4 pairs
        ([0, 1], [3, 4], [2**52 - 1, 2**52 - 1], True),         # max * n < 2**53
        ([0, 1], [3, 4], [2**52, 3], False),                    # max * n = 2**53
    ])
    def test_constant_offset_guard(self, monkeypatch, a, b, weight, counted):
        """The bincount over a runs only where b - a is one constant, a spans
        no more values than there are pairs and max(weight) * n < 2**53."""
        calls = count_calls(monkeypatch, np, "bincount")
        monkeypatch.setattr(microcanonical, "SMALL_PAIR_SET", 1)
        sums = Counter()
        for pair in zip(a, b, weight):
            sums[pair[:2]] += pair[2]
        got = _pair_sums(*(np.array(x, dtype=np.int64) for x in (a, b, weight)), 20)
        assert list(zip(zip(got[0].tolist(), got[1].tolist()), got[2].tolist())) == sorted(
            sums.items())
        assert len(calls) == counted

    @given(label_sets().filter(lambda labels: labels.counts.all()),
           hst.sampled_from(["per-doc-group", "doc-clustering"]), hst.booleans(),
           hst.sampled_from([1, microcanonical.SMALL_PAIR_SET]))
    def test_label_state_tables_match_the_reference(self, labels, variant, compress, small_set):
        """Per-doc-group and doc-clustering states, with empty groups (a
        document or a topic without tokens) or compressed; with a small-set
        cut-off of 1 every bundle set weighs the bincounts."""
        state = labels_to_state(labels, variant)
        state = compress_groups(state) if compress else state
        with mock.patch.object(microcanonical, "SMALL_PAIR_SET", small_set):
            assert_same_tables(CountTables(state), CountTablesReference(state))

    @pytest.mark.parametrize("variant", ["per-doc-group", "doc-clustering"])
    def test_corpus_states_sort_only_the_folded_pairs(self, monkeypatch, variant):
        """On a true-label corpus state (5324 bundles, every group occupied)
        only the folded group pairs, fewer than SMALL_PAIR_SET, are sorted:
        per-doc-group (document, group) pairs take the bincount over the
        documents, and the labeled degrees are the two ends' sums joined."""
        state = corpus_state(3, variant)
        sorts = count_calls(monkeypatch, microcanonical, "_sorted_sums")
        bincounts = count_calls(monkeypatch, np, "bincount")
        assert_same_tables(CountTables(state), CountTablesReference(state))
        assert len(sorts) == 1 and sorts[0] < microcanonical.SMALL_PAIR_SET
        assert bincounts == [len(state.m)] * 3 + [len(CountTablesReference(state).k_node)]

    @given(hst.one_of(general_states(), bipartite_states()),
           hst.sampled_from([1, microcanonical.SMALL_PAIR_SET]))
    @example(state_from_label_arrays(2, 2, [0, 1], [0, 1], [0, 0], [3, 3], [1, 1], 5,
                                     [0, 0, 0, 1, 1]), 1)
    def test_empty_groups_score_as_compressed(self, state, small_set):
        """A state with empty groups scores as its compressed copy, bit for
        bit, and its tables renumbered in place equal the copy's."""
        with mock.patch.object(microcanonical, "SMALL_PAIR_SET", small_set):
            compressed = compress_groups(state)
            assert joint_logp(state).breakdown == joint_logp(compressed).breakdown
            tables = CountTables(state)
            tables.drop_empty_groups()
            assert_same_tables(tables, CountTables(compressed))

    @given(label_sets().filter(lambda labels: labels.counts.all()),
           hst.sampled_from(["per-doc-group", "doc-clustering"]))
    def test_label_states_score_as_compressed(self, labels, variant):
        state = labels_to_state(labels, variant)
        with mock.patch.object(microcanonical, "SMALL_PAIR_SET", 1):
            assert (joint_logp(state).breakdown
                    == joint_logp(compress_groups(state)).breakdown
                    == joint_breakdown_reference(state))
