import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hst

from topicblocks.corpus import build_corpus
from topicblocks.graph import (
    LabeledGraph,
    MixedMembershipParams,
    derive_counts,
    from_counts,
    plsi_to_sbm_params,
    poisson_bundle_loglik,
    poisson_sbm_loglik,
    state_from_dict,
    state_from_label_arrays,
    state_to_dict,
)
from topicblocks.lda import LabeledCounts, LdaParams, plsi_loglik
from topicblocks.util import IntegrityError


class TestFromCounts:
    def test_tiny(self):
        c = build_corpus([("d1", "a a b")])
        g = from_counts(c)
        assert g.n_docs == 1 and g.n_words == 2
        assert g.n_edges == 3
        dense = {(int(d), int(w)): int(m) for d, w, m in
                 zip(g.doc_idx, g.word_idx, g.counts)}
        assert dense[(0, 0)] == 2

    def test_empty_doc_isolated(self):
        c = build_corpus([("d1", ""), ("d2", "a")])
        g = from_counts(c)
        assert g.doc_degrees().tolist() == [0, 1]

    def test_degrees_match_corpus(self):
        rng = np.random.default_rng(0)
        docs = [(f"d{i}", " ".join(rng.choice(list("abcdef"), size=12)))
                for i in range(10)]
        c = build_corpus(docs)
        g = from_counts(c)
        assert np.array_equal(g.doc_degrees(), c.doc_lengths())
        assert np.array_equal(g.word_degrees(), c.word_counts())
        assert g.n_edges == c.total_tokens


class TestDeriveCounts:
    def test_single_edge(self):
        st = LabeledGraph(2, [0], [1], [0], [1], [1], 2)
        e, k = derive_counts(st)
        assert e[0, 1] == 1 and e[1, 0] == 1
        assert k[0, 0] == 1 and k[1, 1] == 1

    def test_all_edges_one_pair(self):
        st = LabeledGraph(4, [0, 2], [1, 3], [0, 0], [1, 1], [3, 2], 2)
        e, _ = derive_counts(st)
        assert e[0, 1] == 5
        assert e.sum() == 10  # 2E with E = 5

    def test_random_matches_brute_tally(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n, b = 5, 3
            rows = {}
            for _ in range(10):
                i, j = sorted(rng.integers(n, size=2))
                r, s = rng.integers(b, size=2)
                if i == j:
                    r, s = min(r, s), max(r, s)
                rows[(i, j, r, s)] = rows.get((i, j, r, s), 0) + 1
            keys = sorted(rows)
            st = LabeledGraph(n, *[np.array(col) for col in zip(*keys)],
                              np.array([rows[k] for k in keys]), b)
            e, k = derive_counts(st)
            # brute tally over half-edges
            e2 = np.zeros((b, b), dtype=int)
            k2 = np.zeros((n, b), dtype=int)
            for (i, j, r, s), m in rows.items():
                k2[i, r] += m
                k2[j, s] += m
                e2[r, s] += m
                e2[s, r] += m
            assert np.array_equal(e, e2)
            assert np.array_equal(k, k2)
            assert e.sum() == 2 * st.n_edges
            assert np.array_equal(k.sum(axis=1)[np.unique(np.r_[st.i, st.j])] > 0,
                                  k2.sum(axis=1)[np.unique(np.r_[st.i, st.j])] > 0)

    def test_label_sum_mismatch_detected(self):
        c = build_corpus([("d1", "a a")])
        g = from_counts(c)
        st = state_from_label_arrays(1, 1, [0], [0], [0], [1], [1], 2, [0, 1])
        with pytest.raises(IntegrityError, match=r"\(0, 1\)"):
            st.check_against(g)


class TestPoissonLoglik:
    def test_one_edge_unit_rate(self):
        st = LabeledGraph(2, [0], [1], [0], [1], [1], 2)
        params = MixedMembershipParams(
            kappa=np.array([[1.0, 0.0], [0.0, 1.0]]),
            omega=np.array([[0.0, 1.0], [1.0, 0.0]]),
        )
        params.validate()
        assert abs(poisson_sbm_loglik(st, params) - (-1.0)) < 1e-12

    def test_zero_edges(self):
        st = LabeledGraph(2, np.zeros(0, int), np.zeros(0, int), np.zeros(0, int),
                          np.zeros(0, int), np.zeros(0, int), 2)
        kappa = np.array([[0.5, 0.5], [0.5, 0.5]])
        omega = np.array([[1.0, 2.0], [2.0, 0.5]])
        g = kappa.sum(axis=0)
        expected = -0.5 * g @ omega @ g
        got = poisson_sbm_loglik(st, MixedMembershipParams(kappa, omega))
        assert abs(got - expected) < 1e-12

    def test_zero_rate_positive_count(self):
        st = LabeledGraph(2, [0], [1], [0], [0], [1], 2)
        params = MixedMembershipParams(
            kappa=np.array([[1.0, 0.0], [0.0, 1.0]]),
            omega=np.array([[0.0, 1.0], [1.0, 0.0]]),
        )
        assert poisson_sbm_loglik(st, params) == -np.inf

    def test_matches_term_by_term_transcription(self):
        """Independent literal evaluation: Poisson terms for every ordered
        label pair on i < j, plus halved equal-label loop terms on each node."""
        rng = np.random.default_rng(7)
        for _ in range(15):
            n, b = 4, 2
            rows = {}
            for _ in range(6):
                i, j = sorted(rng.integers(n, size=2))
                r, s = rng.integers(b, size=2)
                if i == j:
                    r, s = min(r, s), max(r, s)
                rows[(i, j, r, s)] = rows.get((i, j, r, s), 0) + 1
            keys = sorted(rows)
            st = LabeledGraph(n, *[np.array(c) for c in zip(*keys)],
                              np.array([rows[k] for k in keys]), b)
            kappa = rng.dirichlet(np.ones(b), size=n)
            omega = rng.uniform(0.2, 2.0, size=(b, b))
            omega = (omega + omega.T) / 2
            ll = poisson_sbm_loglik(st, MixedMembershipParams(kappa, omega))

            ref = 0.0
            for i in range(n):
                for j in range(i + 1, n):
                    for r in range(b):
                        for s in range(b):
                            lam = kappa[i, r] * omega[r, s] * kappa[j, s]
                            m = rows.get((i, j, r, s), 0)
                            ref += -lam + (m * math.log(lam) - math.lgamma(m + 1)
                                           if m else 0.0)
            for i in range(n):
                for r in range(b):
                    for s in range(r, b):
                        lam = kappa[i, r] * omega[r, s] * kappa[i, s]
                        lam = lam / 2 if r == s else lam
                        m = rows.get((i, i, r, s), 0)
                        ref += -lam + (m * math.log(lam) - math.lgamma(m + 1)
                                       if m else 0.0)
            assert abs(ll - ref) < 1e-9


class TestTokenRateFactorization:
    def test_k1_degenerate(self):
        eta_d = np.array([2.0])
        theta = np.array([[1.0]])
        phi = np.array([[0.3, 0.7]])
        eta_w, phi_prime, lam, flagged = plsi_to_sbm_params(eta_d, theta, phi)
        assert np.allclose(phi_prime, 1.0)
        assert np.allclose(eta_w, phi[0])
        assert np.allclose(lam[0, :, 0], 2.0 * phi[0])
        assert flagged == []

    def test_symmetric_two_topic(self):
        # phi rows both uniform over V words: eta_w = 2/V for every word
        V = 4
        phi = np.full((2, V), 1.0 / V)
        theta = np.array([[0.5, 0.5]])
        eta_w, phi_prime, lam, _ = plsi_to_sbm_params(np.array([1.0]), theta, phi)
        assert np.allclose(eta_w, 2.0 / V)
        assert np.allclose(phi_prime, 0.5)

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(3)
        D, K, V = 3, 4, 6
        theta = rng.dirichlet(np.ones(K), size=D)
        phi = rng.dirichlet(np.ones(V), size=K)
        eta_d = rng.uniform(1, 5, size=D)
        eta_w, phi_prime, lam, _ = plsi_to_sbm_params(eta_d, theta, phi)
        recon = eta_w[None, :, None] * theta[:, None, :] * phi_prime[None, :, :]
        direct = phi.T[None, :, :] * theta[:, None, :]
        assert np.abs(recon - direct).max() < 1e-12

    def test_unreachable_word_flagged(self):
        phi = np.array([[1.0, 0.0], [1.0, 0.0]])
        _, phi_prime, _, flagged = plsi_to_sbm_params(
            np.array([1.0]), np.array([[0.5, 0.5]]), phi)
        assert flagged == [1]
        assert np.all(phi_prime[1] == 0)


def random_instance(rng, D=3, K=3, V=5, max_tokens=8):
    theta = rng.dirichlet(np.ones(K), size=D)
    phi = rng.dirichlet(np.ones(V), size=K)
    eta_d = rng.uniform(0.5, 4.0, size=D)
    rows = []
    for _ in range(int(rng.integers(1, max_tokens + 1))):
        rows.append((int(rng.integers(D)), int(rng.integers(V)), int(rng.integers(K))))
    uniq = {}
    for row in rows:
        uniq[row] = uniq.get(row, 0) + 1
    keys = sorted(uniq)
    d, w, r = (np.array(col) for col in zip(*keys))
    labels = LabeledCounts(D, V, K, d, w, r, np.array([uniq[k] for k in keys]))
    return LdaParams(eta_d, theta, phi), labels


class TestTokenProductIdentity:
    def test_identity_100_random_parameter_sets(self):
        """The per-document mixture likelihood must equal the Poisson-product
        form built from the symmetric factorization, to near machine
        precision."""
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(100):
            params, labels = random_instance(rng)
            lhs = plsi_loglik(labels, params)
            eta_w, phi_prime, lam, _ = plsi_to_sbm_params(
                params.eta_d, params.theta, params.phi)
            rhs = poisson_bundle_loglik(lam, labels.to_dense())
            worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-10


@hst.composite
def document_first_states(draw):
    """Bipartite labeled states as `state_from_label_arrays` builds them:
    documents before words, groups of both sides interleaved, isolated
    nodes, repeated bundles, unused groups, or no edges at all."""
    n_docs, n_words = draw(hst.integers(1, 4)), draw(hst.integers(1, 4))
    group_side = draw(hst.lists(hst.integers(0, 1), min_size=2, max_size=6).filter(
        lambda sides: 0 in sides and 1 in sides))
    groups = [[g for g, sd in enumerate(group_side) if sd == want] for want in (0, 1)]
    rows = draw(hst.lists(hst.tuples(hst.integers(0, n_docs - 1), hst.integers(0, n_words - 1),
                                     hst.sampled_from(groups[0]), hst.sampled_from(groups[1]),
                                     hst.integers(1, 4)), max_size=10))
    cols = [np.array(c, dtype=np.int64) for c in zip(*rows)] or [np.zeros(0, np.int64)] * 5
    return state_from_label_arrays(n_docs, n_words, *cols, len(group_side), group_side)


class TestStateSerialization:
    @given(document_first_states())
    def test_round_trip(self, st):
        n_docs = int((st.side == 0).sum())
        back = state_from_dict(json.loads(json.dumps(state_to_dict(st, n_docs))))
        for name in ("i", "j", "r", "s", "m", "side", "group_side"):
            assert np.array_equal(getattr(back, name), getattr(st, name)), name
        assert (back.n_nodes, back.n_groups) == (st.n_nodes, st.n_groups)

    def test_bipartite_integrity(self):
        with pytest.raises(IntegrityError):
            LabeledGraph(2, [0], [1], [0], [0], [1], 1,
                         side=np.array([0, 0]), group_side=np.array([0]))
