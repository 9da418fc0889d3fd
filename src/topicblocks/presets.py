"""Canned experiment recipes at desk scale.

Three reproducible pipelines wire the synthetic sampler, the fixed-label
scorers, and the fitters together:

* `four_model_curves`: corpora drawn from the Dirichlet generative process
  are scored under four parametrizations (collapsed Dirichlet with the
  generating prior and with the noninformative one; the labeled block model
  with and without document clustering), per text length.
* `hyper_sweep`: the same four-way comparison across a grid of scalar
  hyperparameters and topic counts.
* `bimodal_recovery`: a two-component Dirichlet mixture corpus is fitted
  with documents anchored to their own groups, the mixture histogram is
  tested for bimodality, and one clustered search of the same counts gives
  the final description length when it is the shorter.
"""
from __future__ import annotations

import numpy as np

from .evaluation import simplex_mode_count
from .inference import fit_doc_anchored, fixed_label_score, refine_doc_clusters
from .lda import (
    LabeledCounts,
    double_power_law_base,
    lda_description_length,
    make_hyper,
    noninformative_hyper,
    sample_corpus,
    sample_mixture_corpus,
)


def _lda_noninformative_score(labels: LabeledCounts):
    """Noninformative collapsed score over the realized vocabulary (what an
    analyst without the generator would condition on)."""
    lab = labels.over_realized_words()
    return lda_description_length(
        lab, noninformative_hyper(labels.n_topics, lab.n_words),
        model_id="lda", parametrization="noninformative",
    )


def score_four_models(sample) -> dict:
    """Per-token description lengths of the four standard parametrizations on
    one labeled sample, keyed lda_true / lda_noninf / sbm_noclust / sbm_clust.
    The three scores over the realized vocabulary share one relabel to it."""
    M = sample.labels.total_tokens
    realized = sample.labels.over_realized_words()
    return {
        "lda_true": lda_description_length(
            sample.labels, sample.hyper, model_id="lda", parametrization="true-prior"
        ).sigma_nats / M,
        "lda_noninf": _lda_noninformative_score(realized).sigma_nats / M,
        "sbm_noclust": fixed_label_score(realized, "per-doc-group").sigma_nats / M,
        "sbm_clust": fixed_label_score(realized, "doc-clustering").sigma_nats / M,
        "n_tokens": M,
    }


def four_model_curves(n_docs: int = 2000, m_values=(8, 32, 128, 512),
                      n_topics: int = 10, alpha: float = 1.0, beta: float = 1.0,
                      base: str = "zipf", vocab_size: int = 10000,
                      seed: int = 0) -> list[dict]:
    """Four-model comparison across text lengths on corpora drawn from the
    Dirichlet process with equiprobable topics and a heavy-tailed (or
    uniform) word base measure."""
    p_r = np.full(n_topics, 1.0 / n_topics)
    p_w = (double_power_law_base(vocab_size) if base == "zipf"
           else np.full(vocab_size, 1.0 / vocab_size))
    hyper = make_hyper(alpha, beta, p_r, p_w)
    rows = []
    for m in m_values:
        sample = sample_corpus(n_topics, n_docs, vocab_size, int(m), hyper, seed=seed)
        row = {"m": int(m), "D": n_docs, "K": n_topics,
               "alpha": alpha, "beta": beta, "base": base, "seed": seed}
        row.update(score_four_models(sample))
        base_sigma = row["lda_true"]
        for key in ("lda_noninf", "sbm_noclust", "sbm_clust"):
            row[f"delta_{key}"] = row[key] - base_sigma
        rows.append(row)
    return rows


def hyper_sweep(alphas=(0.01, 1.0, 100.0), betas=(0.01, 1.0, 100.0),
                topic_counts=(2, 10), n_docs: int = 500, m: int = 128,
                vocab_size: int = 10000, base: str = "zipf",
                seed: int = 0) -> list[dict]:
    """Grid of scalar hyperparameters and topic counts, one corpus per cell,
    scored under the four standard parametrizations."""
    p_w = (double_power_law_base(vocab_size) if base == "zipf"
           else np.full(vocab_size, 1.0 / vocab_size))
    rows = []
    for K in topic_counts:
        p_r = np.full(K, 1.0 / K)
        for alpha in alphas:
            for beta in betas:
                hyper = make_hyper(alpha, beta, p_r, p_w)
                sample = sample_corpus(K, n_docs, vocab_size, m, hyper,
                                       seed=seed)
                row = {"m": m, "D": n_docs, "K": K, "alpha": alpha,
                       "beta": beta, "base": base, "seed": seed}
                row.update(score_four_models(sample))
                rows.append(row)
    return rows


BIMODAL_ALPHA_VECTORS = (
    (100 / 3.0, 100 / 3.0, 100 / 3.0),
    (10.0, 80.0, 10.0),
)


def bimodal_recovery(n_docs: int = 1000, doc_length: int = 1000,
                     vocab_size: int = 100, n_topics: int = 3,
                     word_pseudocount: float = 0.01, seed: int = 0,
                     fit_restarts: int = 2, gibbs_sweeps: int = 25) -> dict:
    """Sample a two-component Dirichlet-mixture corpus, fit it with anchored
    documents, and search it once with clustered documents
    (`refine_doc_clusters`).

    Returns the fitted mixtures, the mode count of their simplex histogram,
    and the description lengths of the fitted block model (the lower of the
    anchored and the clustered fit) and the noninformative collapsed
    baseline (scored on the true labels, which favors the baseline)."""
    alpha_vectors = np.asarray(BIMODAL_ALPHA_VECTORS, dtype=float)
    if alpha_vectors.shape[1] != n_topics:
        raise ValueError("the two-component recipe is defined for three topics")
    sample = sample_mixture_corpus(
        alpha_vectors, n_docs, vocab_size, doc_length,
        np.full(vocab_size, word_pseudocount), seed=seed,
    )
    dense = np.zeros((n_docs, vocab_size), dtype=np.int64)
    np.add.at(dense, (sample.labels.d, sample.labels.w), sample.labels.counts)
    z, sigma_anchored, trace = fit_doc_anchored(
        dense, n_topics, seed=seed, n_restarts=fit_restarts,
        gibbs_sweeps=gibbs_sweeps,
    )
    refined_score, _ = refine_doc_clusters(z, seed=seed)
    theta = z.sum(axis=1) / np.maximum(z.sum(axis=(1, 2)), 1)[:, None]
    lda_score = _lda_noninformative_score(sample.labels)
    return {
        "sample": sample,
        "labels_dense": z,
        "theta_hat": theta,
        "mode_count": simplex_mode_count(theta),
        "sigma_anchored": sigma_anchored,
        "sigma_sbm": min(refined_score.sigma_nats, sigma_anchored),
        "sigma_lda_noninf": lda_score.sigma_nats,
        "trace": trace,
    }
