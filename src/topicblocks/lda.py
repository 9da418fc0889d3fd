"""Mixed-membership topic model with Dirichlet priors: generative sampler,
token-level likelihood, and the collapsed marginal likelihood.

The token likelihood treats each labeled count n_dw^r (occurrences of word w
under topic r in document d) as an independent Poisson-type factor with a
per-document length term eta_d^k_d e^(-eta_d).  Integrating the topic and
word mixtures against Dirichlet priors gives a closed-form marginal in ratios
of gamma functions, evaluated here entirely in log space.

Hyperparameters factor as alpha_dr = alpha * K * p_r and
beta_rw = beta * V * p_w with scalar strengths and normalized base measures,
so the noninformative choice (all entries one) is alpha = beta = 1 with
uniform bases.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .graph import BipartiteMultigraph
from .scores import ModelScore
from .util import IntegrityError, log_factorial


@dataclass
class DirichletHyper:
    """Row-factorized Dirichlet hyperparameters.

    alpha_row[r] applies to every document; beta_row[w] applies to every
    topic.  Both must be strictly positive.
    """

    alpha_row: np.ndarray  # shape (K,)
    beta_row: np.ndarray   # shape (V,)

    def __post_init__(self):
        self.alpha_row = np.asarray(self.alpha_row, dtype=float)
        self.beta_row = np.asarray(self.beta_row, dtype=float)
        if np.any(self.alpha_row <= 0) or np.any(self.beta_row <= 0):
            raise ValueError("Dirichlet hyperparameters must be strictly positive")

    @property
    def n_topics(self) -> int:
        return len(self.alpha_row)

    @property
    def n_words(self) -> int:
        return len(self.beta_row)


def make_hyper(alpha_scalar: float, beta_scalar: float, p_r, p_w) -> DirichletHyper:
    """Build hyperparameter rows from scalar strengths and base measures:
    alpha_r = alpha * K * p_r and beta_w = beta * V * p_w."""
    p_r = np.asarray(p_r, dtype=float)
    p_w = np.asarray(p_w, dtype=float)
    if alpha_scalar <= 0 or beta_scalar <= 0:
        raise ValueError("scalar hyperparameters must be positive")
    if abs(p_r.sum() - 1.0) > 1e-9 or abs(p_w.sum() - 1.0) > 1e-9:
        raise ValueError("base measures must be normalized")
    return DirichletHyper(alpha_scalar * len(p_r) * p_r, beta_scalar * len(p_w) * p_w)


def noninformative_hyper(n_topics: int, n_words: int) -> DirichletHyper:
    return DirichletHyper(np.ones(n_topics), np.ones(n_words))


def harmonic_base(n: int) -> np.ndarray:
    """Base measure proportional to 1/rank."""
    w = 1.0 / np.arange(1, n + 1)
    return w / w.sum()


def double_power_law_base(n: int, gamma1: float = 1.0, gamma2: float = 1.9,
                          break_rank: int | None = None) -> np.ndarray:
    """Synthetic heavy-tailed rank-frequency base measure: exponent gamma1 up
    to break_rank, gamma2 beyond, continuous at the break."""
    if break_rank is None:
        break_rank = max(2, n // 10)
    ranks = np.arange(1, n + 1, dtype=float)
    w = np.where(
        ranks <= break_rank,
        ranks ** -gamma1,
        break_rank ** (gamma2 - gamma1) * ranks ** -gamma2,
    )
    return w / w.sum()


@dataclass
class LdaParams:
    eta_d: np.ndarray   # (D,) expected document lengths
    theta: np.ndarray   # (D, K) topic mixtures per document
    phi: np.ndarray     # (K, V) word distributions per topic

    def validate(self, atol: float = 1e-8) -> None:
        if np.any(self.eta_d <= 0):
            raise ValueError("expected document lengths must be positive")
        if not np.allclose(self.theta.sum(axis=1), 1.0, atol=atol):
            raise ValueError("theta rows must sum to one")
        if not np.allclose(self.phi.sum(axis=1), 1.0, atol=atol):
            raise ValueError("phi rows must sum to one")


def _sum_by_key(key: np.ndarray, counts: np.ndarray, shape) -> np.ndarray:
    """int64 totals of `counts` per flat key into an array of `shape`.

    `bincount` sums in float64, which is exact while every total stays below
    2**53 tokens.
    """
    size = int(np.prod(shape))
    out = np.bincount(key, weights=counts, minlength=size)
    if len(out) > size:
        raise IndexError("label index out of range")
    return out.astype(np.int64).reshape(shape)


class LabeledCounts:
    """Sparse labeled counts n_dw^r as parallel (d, w, r, count) arrays."""

    def __init__(self, n_docs, n_words, n_topics, d, w, r, counts):
        self.n_docs = int(n_docs)
        self.n_words = int(n_words)
        self.n_topics = int(n_topics)
        self.d = np.asarray(d, dtype=np.int64)
        self.w = np.asarray(w, dtype=np.int64)
        self.r = np.asarray(r, dtype=np.int64)
        self.counts = np.asarray(counts, dtype=np.int64)
        if np.any(self.counts < 0):
            raise IntegrityError("labeled counts must be nonnegative")

    @property
    def total_tokens(self) -> int:
        return int(self.counts.sum())

    def doc_lengths(self) -> np.ndarray:
        return _sum_by_key(self.d, self.counts, self.n_docs)

    def doc_topic_counts(self) -> np.ndarray:
        return _sum_by_key(self.d * self.n_topics + self.r, self.counts,
                           (self.n_docs, self.n_topics))

    def word_topic_counts(self) -> np.ndarray:
        return _sum_by_key(self.w * self.n_topics + self.r, self.counts,
                           (self.n_words, self.n_topics))

    def topic_totals(self) -> np.ndarray:
        return _sum_by_key(self.r, self.counts, self.n_topics)

    def over_realized_words(self) -> "LabeledCounts":
        """The same entries over the realized vocabulary: words with no entry
        are dropped and the rest renumbered in increasing order."""
        realized = np.flatnonzero(np.bincount(self.w, minlength=self.n_words))
        remap = -np.ones(self.n_words, dtype=np.int64)
        remap[realized] = np.arange(len(realized))
        return LabeledCounts(self.n_docs, len(realized), self.n_topics,
                             self.d, remap[self.w], self.r, self.counts)

    def word_doc_counts(self):
        """Collapse topic labels: unique (d, w) pairs with positive totals."""
        g = BipartiteMultigraph(self.n_docs, self.n_words, self.d, self.w, self.counts).coalesced()
        return g.doc_idx, g.word_idx, g.counts

    def permute_topics(self, perm) -> "LabeledCounts":
        perm = np.asarray(perm, dtype=np.int64)
        return LabeledCounts(self.n_docs, self.n_words, self.n_topics,
                             self.d, self.w, perm[self.r], self.counts)

    @classmethod
    def from_dense(cls, tensor: np.ndarray) -> "LabeledCounts":
        tensor = np.asarray(tensor)
        d, w, r = np.nonzero(tensor)
        return cls(*tensor.shape, d, w, r, tensor[d, w, r])

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_docs, self.n_words, self.n_topics), dtype=np.int64)
        np.add.at(out, (self.d, self.w, self.r), self.counts)
        return out


@dataclass
class LdaSample:
    """A corpus drawn from the Dirichlet generative process, with the true
    token labels and generating parameters retained."""

    labels: LabeledCounts
    params: LdaParams
    hyper: DirichletHyper
    seed: int

    @property
    def n_docs(self):
        return self.labels.n_docs

    @property
    def n_words(self):
        return self.labels.n_words


def sample_corpus(n_topics: int, n_docs: int, n_words: int, doc_lengths,
                  hyper: DirichletHyper, seed: int,
                  alpha_matrix_rows=None) -> LdaSample:
    """Draw an artificial corpus: word distributions phi_r from the beta row,
    topic mixtures theta_d from the alpha row (or per-document alpha vectors
    via `alpha_matrix_rows`), then topic and word for every token.

    Deterministic for a fixed seed; the exact per-token labels are returned.
    """
    if n_topics < 1 or n_docs < 1 or n_words < 1:
        raise ValueError("n_topics, n_docs, and n_words must all be positive")
    if hyper.n_topics != n_topics or hyper.n_words != n_words:
        raise ValueError("hyperparameter dimensions do not match")
    k_d = np.full(n_docs, doc_lengths, dtype=np.int64) if np.isscalar(doc_lengths) \
        else np.asarray(doc_lengths, dtype=np.int64)
    rng = np.random.default_rng(seed)
    phi = rng.dirichlet(hyper.beta_row, size=n_topics)
    if alpha_matrix_rows is None:
        theta = rng.dirichlet(hyper.alpha_row, size=n_docs)
    else:
        alpha_matrix_rows = np.asarray(alpha_matrix_rows, dtype=float)
        theta = np.empty((n_docs, n_topics))
        for d in range(n_docs):
            theta[d] = rng.dirichlet(alpha_matrix_rows[d])
    if np.any(~np.isfinite(phi)) or np.any(~np.isfinite(theta)):
        raise IntegrityError("degenerate Dirichlet draw; hyperparameters too small")

    topic_counts = rng.multinomial(k_d, theta)  # (D, K)
    doc_of = np.repeat(np.arange(n_docs), k_d)
    # tokens laid out doc-major with topics ascending inside each doc; the
    # per-token draw order only permutes exchangeable draws
    topic_of = np.repeat(
        np.tile(np.arange(n_topics), n_docs), topic_counts.reshape(-1)
    )
    word_of = np.empty_like(topic_of)
    for r in range(n_topics):
        mask = topic_of == r
        total = int(mask.sum())
        if total:
            word_of[mask] = rng.choice(n_words, size=total, p=phi[r])

    key = (doc_of * n_words + word_of) * n_topics + topic_of
    uniq, cnt = np.unique(key, return_counts=True)
    labels = LabeledCounts(
        n_docs, n_words, n_topics,
        uniq // (n_words * n_topics), (uniq // n_topics) % n_words, uniq % n_topics, cnt,
    )
    params = LdaParams(eta_d=k_d.astype(float), theta=theta, phi=phi)
    return LdaSample(labels=labels, params=params, hyper=hyper, seed=seed)


def sample_mixture_corpus(alpha_vectors, n_docs: int, n_words: int, doc_lengths,
                          beta_row, seed: int, weights=None) -> LdaSample:
    """Corpus whose topic mixtures come from a finite mixture of Dirichlet
    components (each row of `alpha_vectors` is one component); everything
    else follows the standard generative process."""
    alpha_vectors = np.asarray(alpha_vectors, dtype=float)
    n_comp, n_topics = alpha_vectors.shape
    rng = np.random.default_rng(seed)
    comp = rng.choice(n_comp, size=n_docs, p=weights)
    hyper = DirichletHyper(alpha_vectors.mean(axis=0), np.asarray(beta_row, dtype=float))
    return sample_corpus(
        n_topics, n_docs, n_words, doc_lengths, hyper,
        seed=int(rng.integers(2**31)), alpha_matrix_rows=alpha_vectors[comp],
    )


def plsi_loglik(labels: LabeledCounts, params: LdaParams) -> float:
    """Exact log-probability of the labeled counts given (eta, theta, phi):
    the per-document length factor times the per-label Poisson-style product."""
    k_d = labels.doc_lengths()
    eta = np.asarray(params.eta_d, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        len_term = np.where(k_d > 0, k_d * np.log(eta), 0.0)
    if np.any((eta == 0) & (k_d > 0)):
        return float(-np.inf)
    ll = float(len_term.sum() - eta.sum())
    prob = params.phi[labels.r, labels.w] * params.theta[labels.d, labels.r]
    pos = labels.counts > 0
    if np.any(prob[pos] == 0):
        return float(-np.inf)
    ll += float((labels.counts[pos] * np.log(prob[pos])
                 - log_factorial(labels.counts[pos])).sum())
    return ll


def lda_marginal_loglik(labels: LabeledCounts, hyper: DirichletHyper, eta_d=None) -> float:
    """Collapsed marginal log-probability of the labeled counts: the token
    likelihood integrated against the Dirichlet priors.

    Sparse evaluation relies on the hyperparameter rows being shared across
    documents and topics, so zero-count cells cancel inside the gamma ratios.
    """
    if hyper.n_topics != labels.n_topics or hyper.n_words != labels.n_words:
        raise IntegrityError("hyperparameter dimensions do not match the labels")
    k_d = labels.doc_lengths()
    eta = k_d.astype(float) if eta_d is None else np.asarray(eta_d, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        len_term = np.where(k_d > 0, k_d * np.log(eta), 0.0)
    if np.any((eta == 0) & (k_d > 0)):
        return float(-np.inf)
    ll = float(len_term.sum() - eta.sum())
    ll -= float(log_factorial(labels.counts).sum())

    alpha = hyper.alpha_row
    a_sum = float(alpha.sum())
    ll += float((gammaln(a_sum) - gammaln(k_d + a_sum)).sum())
    ndr = labels.doc_topic_counts()
    d_nz, r_nz = np.nonzero(ndr)
    ll += float((gammaln(ndr[d_nz, r_nz] + alpha[r_nz]) - gammaln(alpha[r_nz])).sum())

    beta = hyper.beta_row
    b_sum = float(beta.sum())
    n_r = labels.topic_totals()
    ll += float((gammaln(b_sum) - gammaln(n_r + b_sum)).sum())
    nwr = labels.word_topic_counts()
    w_nz, r_nz = np.nonzero(nwr)
    ll += float((gammaln(nwr[w_nz, r_nz] + beta[w_nz]) - gammaln(beta[w_nz])).sum())
    return ll


def lda_description_length(labels: LabeledCounts, hyper: DirichletHyper,
                           eta_d=None, model_id: str = "lda",
                           parametrization: str = "") -> ModelScore:
    """Description length of the corpus under the collapsed Dirichlet model.

    The expected-length prior term is fixed at zero by setting eta_d to the
    observed lengths; the breakdown carries it explicitly so the convention
    is visible in every report.
    """
    marginal = lda_marginal_loglik(labels, hyper, eta_d=eta_d)
    return ModelScore.from_breakdown(
        {"neg_log_marginal": -marginal, "eta_prior": 0.0},
        model_id=model_id, parametrization=parametrization,
    )
