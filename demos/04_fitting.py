"""Fitting labeled states: planted-structure recovery, a two-component
mixture corpus, and topic mixtures read off the fitted labels.
"""
import numpy as np

from topicblocks import (
    BipartiteMultigraph,
    InferenceConfig,
    LabeledCounts,
    adjusted_rand_index,
    fit,
    fit_doc_anchored,
    refine_doc_clusters,
    sample_mixture_corpus,
    simplex_mode_count,
    topic_mixtures,
)

## Two disconnected document-word blocks; greedy agglomeration finds them.
## A greedy clustered fit is deterministic, so it runs a single restart.
d_idx, w_idx, cnt = [], [], []
for d in range(4):
    for w in range(4):
        d_idx.append(d); w_idx.append(w); cnt.append(3)
for d in range(4, 8):
    for w in range(4, 8):
        d_idx.append(d); w_idx.append(w); cnt.append(3)
graph = BipartiteMultigraph(8, 8, d_idx, w_idx, cnt)
result = fit(graph, InferenceConfig(mode="greedy", seed=1, n_sweeps=20))
groups = {}
for i, j, r, s in zip(result.state.i, result.state.j, result.state.r, result.state.s):
    groups.setdefault(int(i), []).append(int(r))
    groups.setdefault(int(j), []).append(int(s))
doc_labels = [max(set(groups[d]), key=groups[d].count) for d in range(8)]
print("planted recovery ARI:",
      adjusted_rand_index(doc_labels, [0] * 4 + [1] * 4))
print("sigma trace (monotone):", [round(s, 1) for s in result.sigma_trace])

## A corpus whose documents come from TWO Dirichlet components: the fitted
## topic mixtures keep both modes visible on the simplex.
alpha_vectors = np.array([
    [100 / 3, 100 / 3, 100 / 3],   # balanced component
    [10.0, 80.0, 10.0],            # skewed component
])
sample = sample_mixture_corpus(alpha_vectors, n_docs=300, n_words=100,
                               doc_lengths=300, beta_row=np.full(100, 0.01),
                               seed=5)
dense = np.zeros((300, 100), dtype=np.int64)
np.add.at(dense, (sample.labels.d, sample.labels.w), sample.labels.counts)

z, sigma_anchored, trace = fit_doc_anchored(dense, n_topics=3, seed=5,
                                            n_restarts=4, gibbs_sweeps=15)
theta_hat = topic_mixtures(LabeledCounts.from_dense(z))
print("fitted mixture modes on the simplex:", simplex_mode_count(theta_hat))

## One clustered search of the same counts (documents started in k-means
## groups, then merges, node moves and nested levels) usually compresses
## further than the anchored fit.
refined, _ = refine_doc_clusters(z, seed=5)
print(f"anchored {sigma_anchored:.0f} nats -> clustered {refined.sigma_nats:.0f} "
      f"nats ({refined.parametrization})")
