"""Bipartite word-document multigraphs and group-labeled half-edge states.

A corpus maps onto a multigraph whose nodes are the documents (indices
0..D-1) and the words (indices D..D+V-1); the multiplicity of the edge
between document d and word w is the count n_dw.  Group labels live on
half-edges: a bundle (i, j, r, s, m) records m parallel edges between nodes
i <= j whose endpoint at i carries group r and whose endpoint at j carries
group s.  All block-model likelihoods depend on the bundles only, never on
individual tokens.

Self-loop bundles (i == j, stored with r <= s) never occur for corpora but
are supported so the likelihood kernels can be validated on general
multigraphs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .util import IntegrityError, log_factorial, require_keys, whole_numbers


class BipartiteMultigraph:
    def __init__(self, n_docs: int, n_words: int, doc_idx, word_idx, counts):
        self.n_docs = int(n_docs)
        self.n_words = int(n_words)
        self.doc_idx = np.asarray(doc_idx, dtype=np.int64)
        self.word_idx = np.asarray(word_idx, dtype=np.int64)
        self.counts = np.asarray(counts, dtype=np.int64)
        if np.any(self.counts < 0):
            raise IntegrityError("edge multiplicities must be nonnegative")

    @property
    def n_nodes(self) -> int:
        return self.n_docs + self.n_words

    @property
    def n_edges(self) -> int:
        return int(self.counts.sum())

    def doc_degrees(self) -> np.ndarray:
        k = np.zeros(self.n_docs, dtype=np.int64)
        np.add.at(k, self.doc_idx, self.counts)
        return k

    def word_degrees(self) -> np.ndarray:
        k = np.zeros(self.n_words, dtype=np.int64)
        np.add.at(k, self.word_idx, self.counts)
        return k

    def coalesced(self) -> "BipartiteMultigraph":
        """The same multigraph with repeated (d, w) pairs summed and pairs of
        total 0 dropped, in the np.nonzero order of its count matrix."""
        key = self.doc_idx * self.n_words + self.word_idx
        uniq, inv = np.unique(key, return_inverse=True)
        total = np.bincount(inv, self.counts, len(uniq)).astype(np.int64)
        keep = total > 0
        return BipartiteMultigraph(self.n_docs, self.n_words, uniq[keep] // self.n_words,
                                   uniq[keep] % self.n_words, total[keep])


def from_counts(corpus: Corpus) -> BipartiteMultigraph:
    """Word-document multigraph equivalent to the corpus count matrix."""
    keep = corpus.counts > 0
    return BipartiteMultigraph(
        corpus.n_docs, corpus.n_words,
        corpus.doc_idx[keep], corpus.word_idx[keep], corpus.counts[keep],
    )


class LabeledGraph:
    """A multigraph together with a group label on every half-edge.

    Parameters
    ----------
    n_nodes : total node count.
    i, j, r, s, m : bundle arrays; i <= j elementwise, m >= 1.
    n_groups : number of group indices in play (occupied or not).
    side : optional per-node 0/1 array marking the bipartite side.
    group_side : optional per-group 0/1 array; required when `side` is given.
    """

    def __init__(self, n_nodes, i, j, r, s, m, n_groups, side=None, group_side=None):
        self.n_nodes = int(n_nodes)
        self.i = np.asarray(i, dtype=np.int64)
        self.j = np.asarray(j, dtype=np.int64)
        self.r = np.asarray(r, dtype=np.int64)
        self.s = np.asarray(s, dtype=np.int64)
        self.m = np.asarray(m, dtype=np.int64)
        self.n_groups = int(n_groups)
        self.side = None if side is None else np.asarray(side, dtype=np.int64)
        self.group_side = None if group_side is None else np.asarray(group_side, dtype=np.int64)
        if np.any(self.i > self.j):
            raise IntegrityError("bundles must satisfy i <= j")
        loops = self.i == self.j
        if np.any(self.r[loops] > self.s[loops]):
            raise IntegrityError("self-loop bundles must satisfy r <= s")
        if np.any(self.m < 1):
            raise IntegrityError("bundle multiplicities must be positive")
        if self.side is not None:
            if self.group_side is None:
                raise IntegrityError("bipartite states need group_side metadata")
            if np.any(self.side[self.i] == self.side[self.j]):
                bad = int(np.argmax(self.side[self.i] == self.side[self.j]))
                raise IntegrityError(
                    f"edge ({int(self.i[bad])}, {int(self.j[bad])}) joins two "
                    "nodes on the same side"
                )

    @property
    def n_edges(self) -> int:
        return int(self.m.sum())

    def check_against(self, graph: BipartiteMultigraph) -> None:
        """Verify the label decomposition sums back to the multigraph counts."""
        ref: dict[tuple[int, int], int] = {}
        for d, w, c in zip(graph.doc_idx, graph.word_idx, graph.counts):
            ref[(int(d), graph.n_docs + int(w))] = int(c)
        got: dict[tuple[int, int], int] = {}
        for ii, jj, mm in zip(self.i, self.j, self.m):
            key = (int(ii), int(jj))
            got[key] = got.get(key, 0) + int(mm)
        for key in set(ref) | set(got):
            if ref.get(key, 0) != got.get(key, 0):
                raise IntegrityError(
                    f"label counts for edge {key} sum to {got.get(key, 0)}, "
                    f"expected {ref.get(key, 0)}"
                )


def derive_counts(state: LabeledGraph) -> tuple[np.ndarray, np.ndarray]:
    """Group-pair edge counts e_rs and labeled degrees k_i^r.

    The e matrix is symmetric with within-group edges counted twice on the
    diagonal, so each row sums to the number of half-edges labeled r and the
    grand total is 2E.
    """
    B = state.n_groups
    e = np.zeros((B, B), dtype=np.int64)
    k = np.zeros((state.n_nodes, B), dtype=np.int64)
    r, s, m = state.r, state.s, state.m
    np.add.at(e, (r, s), m)
    np.add.at(e, (s, r), m)  # doubles the diagonal where r == s
    np.add.at(k, (state.i, r), m)
    np.add.at(k, (state.j, s), m)  # self-loops add both endpoint labels at i
    return e, k


@dataclass
class MixedMembershipParams:
    """Poisson mixed-membership rates: per-node group propensities kappa and a
    symmetric group-to-group intensity matrix omega."""

    kappa: np.ndarray
    omega: np.ndarray

    def validate(self, atol: float = 1e-9) -> None:
        if np.any(self.kappa < 0) or np.any(self.omega < 0):
            raise ValueError("kappa and omega must be nonnegative")
        if not np.allclose(self.kappa.sum(axis=1), 1.0, atol=atol):
            raise ValueError("kappa rows must sum to one")
        if not np.allclose(self.omega, self.omega.T, atol=atol):
            raise ValueError("omega must be symmetric")


def poisson_sbm_loglik(state: LabeledGraph, params: MixedMembershipParams) -> float:
    """Log-probability of a labeled multigraph under independent Poisson
    counts with rates kappa_ir * omega_rs * kappa_js.

    For i < j every ordered label pair (r at i, s at j) is a separate Poisson
    variable; at a node, loop bundles with labels r < s have rate
    kappa_ir * omega_rs * kappa_is and equal-label loops half of that.  A zero
    rate facing a positive count yields -inf.
    """
    kappa = np.asarray(params.kappa, dtype=float)
    omega = np.asarray(params.omega, dtype=float)
    g = kappa.sum(axis=0)
    total_rate = 0.5 * float(g @ omega @ g)
    ll = -total_rate
    loops = state.i == state.j
    rate = kappa[state.i, state.r] * omega[state.r, state.s] * kappa[state.j, state.s]
    rate = np.where(loops & (state.r == state.s), rate / 2.0, rate)
    if np.any((rate == 0) & (state.m > 0)):
        return float(-np.inf)
    ll += float((state.m * np.log(rate) - log_factorial(state.m)).sum())
    return ll


def plsi_to_sbm_params(eta_d, theta, phi):
    """Re-express token probabilities phi_rw * theta_dr in the symmetric form
    eta_w * theta_dr * phi'_wr.

    Returns (eta_w, phi_prime, lam) where phi_prime[w, r] is the probability
    that word w belongs to topic r, eta_w the word's overall propensity, and
    lam[d, w, r] = eta_d * eta_w * theta_dr * phi'_wr the Poisson rate tensor.
    Words unreachable under every topic get a zero phi_prime row and are
    reported in the flagged list.
    """
    eta_d = np.asarray(eta_d, dtype=float)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    eta_w = phi.sum(axis=0)
    unreachable = np.nonzero(eta_w == 0)[0]
    safe = np.where(eta_w > 0, eta_w, 1.0)
    phi_prime = (phi / safe[None, :]).T
    phi_prime[unreachable, :] = 0.0
    lam = (
        eta_d[:, None, None]
        * eta_w[None, :, None]
        * theta[:, None, :]
        * phi_prime[None, :, :]
    )
    return eta_w, phi_prime, lam, list(map(int, unreachable))


def poisson_bundle_loglik(lam: np.ndarray, labels: np.ndarray) -> float:
    """Log-probability of a label tensor under independent Poisson bundles
    with the given rate tensor (the product form of the token likelihood)."""
    lam = np.asarray(lam, dtype=float)
    labels = np.asarray(labels)
    if lam.shape != labels.shape:
        raise ValueError("rate and count tensors must share a shape")
    nz = labels > 0
    if np.any(lam[nz] == 0):
        return float(-np.inf)
    ll = -float(lam.sum())
    ll += float((labels[nz] * np.log(lam[nz]) - log_factorial(labels[nz])).sum())
    return ll


# --- constructors for corpus-shaped labeled states ------------------------


def state_from_label_arrays(n_docs, n_words, d, w, r_doc, r_word, counts,
                            n_groups, group_side) -> LabeledGraph:
    """Labeled bipartite state from parallel arrays over (doc, word) bundles.

    `w` holds word indices 0..V-1; node ids for words are offset by n_docs.
    """
    d = np.asarray(d, dtype=np.int64)
    w = np.asarray(w, dtype=np.int64)
    side = np.concatenate([
        np.zeros(n_docs, dtype=np.int64), np.ones(n_words, dtype=np.int64)
    ])
    return LabeledGraph(
        n_docs + n_words, d, w + n_docs, r_doc, r_word, counts,
        n_groups, side=side, group_side=group_side,
    )


def state_to_dict(state: LabeledGraph, n_docs: int) -> dict:
    return {
        "n_docs": int(n_docs),
        "n_words": int(state.n_nodes - n_docs),
        "n_groups": int(state.n_groups),
        "group_side": [int(x) for x in state.group_side],
        "bundles": [
            [int(ii), int(jj - n_docs), int(rr), int(ss), int(mm)]
            for ii, jj, rr, ss, mm in zip(state.i, state.j, state.r, state.s, state.m)
        ],
    }


def state_from_dict(payload: dict) -> LabeledGraph:
    """The state `state_to_dict` wrote.  A value that is not a whole number
    raises ValueError naming its key; a node id, group id or group side out
    of range raises IntegrityError naming its bundle or group."""
    keys = ("n_docs", "n_words", "n_groups", "group_side", "bundles")
    require_keys(payload, keys, "the state file")
    n_docs, n_words, n_groups, group_side, bundles = (
        whole_numbers(payload[key], f"the state file's {key!r}", ndim)
        for key, ndim in zip(keys, (0, 0, 0, 1, None)))
    d, w, r, s, m = bundles.reshape(-1, 5).T
    for where, what, ids, n in (("bundle", "document", d, n_docs), ("bundle", "word", w, n_words),
                                ("bundle", "group", r, n_groups), ("bundle", "group", s, n_groups),
                                ("group", "side", group_side, 2)):
        bad = np.flatnonzero((ids < 0) | (ids >= n))
        if len(bad):
            raise IntegrityError(f"{where} {bad[0]} has {what} {ids[bad[0]]}, outside 0..{n - 1}")
    if len(group_side) != n_groups:
        raise IntegrityError(f"group_side has {len(group_side)} entries for {n_groups} groups")
    return state_from_label_arrays(n_docs, n_words, d, w, r, s, m, n_groups, group_side)
