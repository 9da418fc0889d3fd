import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hst
from scipy.special import gammaln

from topicblocks.lda import (
    DirichletHyper,
    LabeledCounts,
    LdaParams,
    LdaSample,
    double_power_law_base,
    harmonic_base,
    lda_description_length,
    lda_marginal_loglik,
    make_hyper,
    noninformative_hyper,
    plsi_loglik,
    sample_corpus,
    sample_mixture_corpus,
)
from topicblocks.util import IntegrityError, log_factorial


class TestMakeHyper:
    def test_noninformative_recovered(self):
        h = make_hyper(1.0, 1.0, np.full(3, 1 / 3), np.full(5, 0.2))
        assert np.allclose(h.alpha_row, 1.0)
        assert np.allclose(h.beta_row, 1.0)

    def test_harmonic_base(self):
        p = harmonic_base(2)
        assert np.allclose(p, [2 / 3, 1 / 3])
        h = make_hyper(0.5, 1.0, p, np.full(4, 0.25))
        assert np.allclose(h.alpha_row, 0.5 * 2 * p)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            make_hyper(1.0, 1.0, np.array([0.5, 0.6]), np.full(2, 0.5))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            make_hyper(-1.0, 1.0, np.full(2, 0.5), np.full(2, 0.5))
        with pytest.raises(ValueError):
            DirichletHyper(np.array([0.0]), np.array([1.0]))

    def test_double_power_law_shape(self):
        p = double_power_law_base(1000, gamma1=1.0, gamma2=2.0, break_rank=100)
        assert abs(p.sum() - 1.0) < 1e-12
        # slopes on the two branches differ
        lo = np.polyfit(np.log(np.arange(2, 50)), np.log(p[1:49]), 1)[0]
        hi = np.polyfit(np.log(np.arange(200, 900)), np.log(p[199:899]), 1)[0]
        assert -1.3 < lo < -0.7
        assert -2.3 < hi < -1.7


def sample_corpus_reference(n_topics, n_docs, n_words, doc_lengths, hyper, seed):
    """`sample_corpus` with the bundle keys counted by `np.unique`."""
    k_d = np.full(n_docs, doc_lengths, dtype=np.int64) if np.isscalar(doc_lengths) \
        else np.asarray(doc_lengths, dtype=np.int64)
    rng = np.random.default_rng(seed)
    phi = rng.dirichlet(hyper.beta_row, size=n_topics)
    theta = rng.dirichlet(hyper.alpha_row, size=n_docs)
    topic_counts = rng.multinomial(k_d, theta)
    doc_of = np.repeat(np.arange(n_docs), k_d)
    topic_of = np.repeat(np.tile(np.arange(n_topics), n_docs), topic_counts.reshape(-1))
    word_of = np.empty_like(topic_of)
    for r in range(n_topics):
        mask = topic_of == r
        total = int(mask.sum())
        if total:
            word_of[mask] = rng.choice(n_words, size=total, p=phi[r])
    key = (doc_of * n_words + word_of) * n_topics + topic_of
    uniq, cnt = np.unique(key, return_counts=True)
    labels = LabeledCounts(n_docs, n_words, n_topics, uniq // (n_words * n_topics),
                           (uniq // n_topics) % n_words, uniq % n_topics, cnt)
    return LdaSample(labels, LdaParams(k_d.astype(float), theta, phi), hyper, seed)


class TestSampler:
    def test_deterministic(self):
        h = make_hyper(1.0, 1.0, np.full(2, 0.5), np.full(6, 1 / 6))
        a = sample_corpus(2, 10, 6, 15, h, seed=42)
        b = sample_corpus(2, 10, 6, 15, h, seed=42)
        assert np.array_equal(a.labels.counts, b.labels.counts)
        assert np.array_equal(a.labels.w, b.labels.w)
        assert np.allclose(a.params.theta, b.params.theta)

    def test_k1_all_labels_topic_zero(self):
        h = noninformative_hyper(1, 5)
        s = sample_corpus(1, 4, 5, 10, h, seed=0)
        assert set(s.labels.r.tolist()) == {0}
        assert np.all(s.labels.doc_lengths() == 10)

    def test_concentrated_alpha(self):
        # large symmetric strength concentrates mixtures near the center
        h = DirichletHyper(np.full(3, 100.0), np.ones(20))
        s = sample_corpus(3, 50, 20, 30, h, seed=1)
        assert np.abs(s.params.theta - 1 / 3).max() < 0.25

    def test_moment_check(self):
        # empirical theta means approach alpha / sum(alpha) within 3 s.e.
        h = noninformative_hyper(2, 10)
        s = sample_corpus(2, 2000, 10, 100, h, seed=7)
        mean = s.params.theta[:, 0].mean()
        se = s.params.theta[:, 0].std() / math.sqrt(2000)
        assert abs(mean - 0.5) < 3 * se

    def test_zero_dims_rejected(self):
        with pytest.raises(ValueError):
            sample_corpus(0, 2, 2, 5, noninformative_hyper(1, 2), seed=0)

    @given(hst.integers(1, 4), hst.integers(1, 6), hst.integers(1, 8),
           hst.one_of(hst.integers(0, 30), hst.lists(hst.integers(0, 30), min_size=6,
                                                     max_size=6)),
           hst.integers(0, 2**32 - 1))
    def test_counts_match_the_unique_version(self, K, D, V, lengths, seed):
        """The in-place key and run count give the labels that `np.unique`
        of the whole key gives, and the same parameters."""
        lengths = lengths if np.isscalar(lengths) else lengths[:D]
        h = make_hyper(1.0, 0.5, np.full(K, 1 / K), harmonic_base(V))
        got, want = (fn(K, D, V, lengths, h, seed=seed)
                     for fn in (sample_corpus, sample_corpus_reference))
        for name in ("d", "w", "r", "counts"):
            x, y = getattr(got.labels, name), getattr(want.labels, name)
            assert x.dtype == y.dtype == np.int64 and np.array_equal(x, y), name
        assert np.array_equal(got.params.theta, want.params.theta)
        assert np.array_equal(got.params.phi, want.params.phi)

    def test_mixture_sampler_components(self):
        alphas = np.array([[50.0, 1.0], [1.0, 50.0]])
        s = sample_mixture_corpus(alphas, 200, 8, 40, np.ones(8), seed=3)
        # thetas should be bimodal: many docs near each corner
        first = s.params.theta[:, 0]
        assert (first > 0.8).sum() > 40
        assert (first < 0.2).sum() > 40


class TestPlsiLoglik:
    def test_hand_value_single_token(self):
        labels = LabeledCounts(1, 1, 1, [0], [0], [0], [1])
        params = LdaParams(np.array([1.0]), np.array([[1.0]]), np.array([[1.0]]))
        assert abs(plsi_loglik(labels, params) - (-1.0)) < 1e-12

    def test_zero_tokens(self):
        labels = LabeledCounts(3, 2, 2, np.zeros(0, int), np.zeros(0, int),
                               np.zeros(0, int), np.zeros(0, int))
        params = LdaParams(np.ones(3), np.full((3, 2), 0.5), np.full((2, 2), 0.5))
        assert abs(plsi_loglik(labels, params) - (-3.0)) < 1e-12

    def test_zero_probability_label(self):
        labels = LabeledCounts(1, 2, 1, [0], [1], [0], [1])
        params = LdaParams(np.array([1.0]), np.array([[1.0]]), np.array([[1.0, 0.0]]))
        assert plsi_loglik(labels, params) == -np.inf


class TestMarginal:
    def test_hand_value(self):
        labels = LabeledCounts(1, 1, 1, [0], [0], [0], [1])
        h = noninformative_hyper(1, 1)
        assert abs(lda_marginal_loglik(labels, h, eta_d=np.array([1.0])) - (-1.0)) < 1e-12

    def test_topic_permutation_invariance(self):
        h = noninformative_hyper(3, 6)
        s = sample_corpus(3, 12, 6, 20, h, seed=5)
        base = lda_marginal_loglik(s.labels, h)
        for perm in ([1, 2, 0], [2, 1, 0]):
            assert abs(lda_marginal_loglik(s.labels.permute_topics(perm), h) - base) < 1e-9

    @pytest.mark.parametrize("topic", [-1, 2])
    def test_topic_out_of_range(self, topic):
        """A topic outside 0..K-1 in the first document fits inside the
        doc-topic table's flat range, so it is checked on its own."""
        labels = LabeledCounts(2, 2, 2, [0, 1], [0, 1], [topic, 0], [1, 1])
        with pytest.raises(IndexError):
            lda_marginal_loglik(labels, noninformative_hyper(2, 2))

    def test_dimension_mismatch(self):
        labels = LabeledCounts(1, 2, 2, [0], [0], [0], [1])
        with pytest.raises(IntegrityError):
            lda_marginal_loglik(labels, noninformative_hyper(2, 3))

    def test_matches_direct_dirichlet_multinomial(self):
        """Independent transcription: assemble the marginal from explicit
        gamma-ratio blocks per document and per topic."""
        rng = np.random.default_rng(2)
        D, V, K = 3, 4, 2
        h = DirichletHyper(rng.uniform(0.3, 2.0, size=K), rng.uniform(0.3, 2.0, size=V))
        s = sample_corpus(K, D, V, 9, DirichletHyper(np.ones(K), np.ones(V)), seed=8)
        labels = s.labels
        got = lda_marginal_loglik(labels, h)

        dense = labels.to_dense()
        k_d = dense.sum(axis=(1, 2))
        ref = float(np.sum(k_d * np.log(k_d) - k_d))
        ref -= float(gammaln(dense + 1.0).sum())
        for d in range(D):
            ref += gammaln(h.alpha_row.sum()) - gammaln(k_d[d] + h.alpha_row.sum())
            for r in range(K):
                ref += gammaln(dense[d, :, r].sum() + h.alpha_row[r]) - gammaln(h.alpha_row[r])
        for r in range(K):
            ref += gammaln(h.beta_row.sum()) - gammaln(dense[:, :, r].sum() + h.beta_row.sum())
            for w in range(V):
                ref += gammaln(dense[:, w, r].sum() + h.beta_row[w]) - gammaln(h.beta_row[w])
        assert abs(got - ref) < 1e-8

    def test_monte_carlo_integration_oracle(self):
        """The closed form equals the prior average of the token likelihood,
        within Monte Carlo error."""
        rng = np.random.default_rng(3)
        labels = LabeledCounts(2, 3, 2, [0, 0, 1, 1], [0, 2, 1, 2],
                               [0, 1, 0, 1], [2, 1, 1, 1])
        h = noninformative_hyper(2, 3)
        k_d = labels.doc_lengths().astype(float)
        exact = lda_marginal_loglik(labels, h)
        S = 200_000
        theta = rng.dirichlet(h.alpha_row, size=(S, 2))
        phi = rng.dirichlet(h.beta_row, size=(S, 2))
        terms = np.zeros(S)
        for d, w, r, c in zip(labels.d, labels.w, labels.r, labels.counts):
            terms += c * np.log(phi[:, r, w] * theta[:, d, r]) - math.lgamma(c + 1)
        const = float((k_d * np.log(k_d) - k_d).sum())
        mx = terms.max()
        weights = np.exp(terms - mx)
        est = const + mx + math.log(weights.mean())
        se = weights.std() / (weights.mean() * math.sqrt(S))
        assert abs(est - exact) < 3 * se + 1e-12


class TestDescriptionLength:
    def test_breakdown_marks_length_prior(self):
        labels = LabeledCounts(1, 1, 1, [0], [0], [0], [1])
        score = lda_description_length(labels, noninformative_hyper(1, 1),
                                       eta_d=np.array([1.0]))
        assert score.breakdown["eta_prior"] == 0.0
        assert abs(score.sigma_nats - 1.0) < 1e-12

    def test_true_vs_noninformative_both_computable(self):
        h_true = make_hyper(2.0, 0.5, np.full(2, 0.5), np.full(6, 1 / 6))
        s = sample_corpus(2, 20, 6, 25, h_true, seed=9)
        a = lda_description_length(s.labels, h_true)
        b = lda_description_length(s.labels, noninformative_hyper(2, 6))
        assert np.isfinite(a.sigma_nats) and np.isfinite(b.sigma_nats)
        assert a.sigma_nats != b.sigma_nats


@hst.composite
def labeled_counts(draw):
    """Small sparse label sets; empty ones, unused words and unused topics
    all occur."""
    n_docs, n_words, n_topics = (draw(hst.integers(1, n)) for n in (5, 8, 4))
    n = draw(hst.integers(0, 12))
    ints = lambda hi: draw(hst.lists(hst.integers(0, hi - 1), min_size=n, max_size=n))
    return LabeledCounts(n_docs, n_words, n_topics, ints(n_docs), ints(n_words),
                         ints(n_topics), ints(40))


def add_at(shape, index, counts):
    out = np.zeros(shape, dtype=np.int64)
    np.add.at(out, index, counts)
    return out


class TestLabeledCountsAggregates:
    """The bincount aggregates against np.add.at and np.unique builds."""

    @given(labeled_counts())
    def test_counts_match_add_at(self, lab):
        D, V, K = lab.n_docs, lab.n_words, lab.n_topics
        for got, want in [
            (lab.doc_lengths(), add_at(D, lab.d, lab.counts)),
            (lab.doc_topic_counts(), add_at((D, K), (lab.d, lab.r), lab.counts)),
            (lab.word_topic_counts(), add_at((V, K), (lab.w, lab.r), lab.counts)),
        ]:
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)

    @given(labeled_counts())
    def test_realized_words_match_unique(self, lab):
        realized = np.unique(lab.w)
        remap = -np.ones(lab.n_words, dtype=np.int64)
        remap[realized] = np.arange(len(realized))
        got = lab.over_realized_words()
        assert got.n_words == len(realized)
        assert (got.n_docs, got.n_topics) == (lab.n_docs, lab.n_topics)
        for name, want in [("d", lab.d), ("w", remap[lab.w]), ("r", lab.r),
                           ("counts", lab.counts)]:
            assert getattr(got, name).dtype == want.dtype == np.int64
            assert np.array_equal(getattr(got, name), want), name

    def test_word_relabel_shares_the_aggregates_and_counts_words_once(self, monkeypatch):
        lab = LabeledCounts(2, 4, 2, [0, 0, 1], [0, 3, 3], [0, 1, 1], [2, 1, 5])
        got = lab.over_realized_words()
        assert got is not lab and got.doc_topic_counts() is lab.doc_topic_counts()
        assert not got.doc_topic_counts().flags.writeable
        assert got.log_count_factorials() == lab.log_count_factorials() == (
            log_factorial(2) + log_factorial(1) + log_factorial(5))
        counted = []
        bincount = np.bincount
        monkeypatch.setattr(np, "bincount", lambda *a, **k: counted.append(a) or bincount(*a, **k))
        assert got.over_realized_words() is got
        assert counted == []

    def test_word_topic_table_is_kept_per_instance(self):
        """Each relabel of the words has its own word-topic table, summed
        once and read-only."""
        lab = LabeledCounts(2, 4, 2, [0, 0, 1], [0, 3, 3], [0, 1, 1], [2, 1, 5])
        got = lab.over_realized_words()
        assert got.word_topic_counts() is got.word_topic_counts()
        assert not got.word_topic_counts().flags.writeable
        assert got.word_topic_counts().tolist() == [[2, 0], [0, 6]]
        assert lab.word_topic_counts().tolist() == [[2, 0], [0, 0], [0, 0], [0, 6]]

    def test_out_of_range_label_is_refused(self):
        lab = LabeledCounts(2, 2, 1, [0, 2], [0, 1], [0, 0], [1, 1])
        with pytest.raises(IndexError):
            lab.doc_lengths()
