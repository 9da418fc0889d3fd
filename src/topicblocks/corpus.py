"""Corpus ingestion, token filtering, count matrices, and corpus statistics.

Documents are token-id sequences over a shared vocabulary; all downstream
models consume only the word-in-document count matrix n_dw.  The token filter
is deliberately minimal (lowercase, split on punctuation, keep pure a-z
words): no stemming and no stopword removal, since the block models are
expected to isolate function words on their own.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

_SEPARATORS = re.compile(r"[^a-z0-9]+")
_PURE_WORD = re.compile(r"[a-z]+\Z")


def tokenize(raw_text: str) -> list[str]:
    """Lowercase, replace punctuation and special characters by spaces, and
    keep only the resulting words made purely of letters a-z.

    Digits are not separators: a word like "a1b" stays in one piece through
    the splitting step and is then dropped by the letters-only filter.
    """
    lowered = raw_text.lower()
    return [t for t in _SEPARATORS.split(lowered) if t and _PURE_WORD.match(t)]


@dataclass
class Vocabulary:
    """Distinct word strings with contiguous integer ids in first-appearance order."""

    words: list[str] = field(default_factory=list)
    index: dict[str, int] = field(default_factory=dict)

    def add(self, word: str) -> int:
        wid = self.index.get(word)
        if wid is None:
            wid = len(self.words)
            self.index[word] = wid
            self.words.append(word)
        return wid

    def __len__(self) -> int:
        return len(self.words)

    def __getitem__(self, wid: int) -> str:
        return self.words[wid]


@dataclass
class Document:
    id: str
    tokens: list[int]

    @property
    def length(self) -> int:
        return len(self.tokens)


class Corpus:
    """Immutable bag-of-words corpus: vocabulary, documents, and sparse counts.

    Counts are stored as coordinate triples (doc index, word id, count); the
    dense matrix is only materialized for small vocabularies.
    """

    def __init__(self, vocab: Vocabulary, docs: list[Document]):
        self.vocab = vocab
        self.docs = docs
        rows, cols, vals = [], [], []
        for d, doc in enumerate(docs):
            if doc.tokens:
                wids, cnts = np.unique(np.asarray(doc.tokens, dtype=np.int64), return_counts=True)
                rows.append(np.full(len(wids), d, dtype=np.int64))
                cols.append(wids)
                vals.append(cnts)
        if rows:
            self.doc_idx = np.concatenate(rows)
            self.word_idx = np.concatenate(cols)
            self.counts = np.concatenate(vals)
        else:
            self.doc_idx = np.zeros(0, dtype=np.int64)
            self.word_idx = np.zeros(0, dtype=np.int64)
            self.counts = np.zeros(0, dtype=np.int64)

    @property
    def n_docs(self) -> int:
        return len(self.docs)

    @property
    def n_words(self) -> int:
        return len(self.vocab)

    @property
    def total_tokens(self) -> int:
        return int(self.counts.sum())

    def doc_lengths(self) -> np.ndarray:
        k = np.zeros(self.n_docs, dtype=np.int64)
        np.add.at(k, self.doc_idx, self.counts)
        return k

    def word_counts(self) -> np.ndarray:
        n_w = np.zeros(self.n_words, dtype=np.int64)
        np.add.at(n_w, self.word_idx, self.counts)
        return n_w


def build_corpus(doc_streams, pretokenized: bool = False, min_count: int = 1) -> Corpus:
    """Assemble a corpus from (id, raw_text) pairs, or (id, token list) pairs
    when `pretokenized` is set.

    Vocabulary ids follow first appearance across the stream, which makes the
    result deterministic for a fixed document order.  `min_count` > 1 drops
    words whose corpus-wide count falls below the threshold (the documents
    themselves are kept, possibly empty).
    """
    vocab = Vocabulary()
    docs: list[Document] = []
    seen_ids: set[str] = set()
    for doc_id, payload in doc_streams:
        doc_id = str(doc_id)
        if doc_id in seen_ids:
            raise ValueError(f"duplicate document id: {doc_id!r}")
        seen_ids.add(doc_id)
        tokens = list(payload) if pretokenized else tokenize(payload)
        docs.append(Document(doc_id, [vocab.add(t) for t in tokens]))
    corpus = Corpus(vocab, docs)
    if min_count > 1:
        corpus = _filter_min_count(corpus, min_count)
    return corpus


def _filter_min_count(corpus: Corpus, min_count: int) -> Corpus:
    n_w = corpus.word_counts()
    keep = n_w >= min_count
    vocab = Vocabulary()
    remap = {}
    for wid, word in enumerate(corpus.vocab.words):
        if keep[wid]:
            remap[wid] = vocab.add(word)
    docs = [
        Document(doc.id, [remap[t] for t in doc.tokens if keep[t]])
        for doc in corpus.docs
    ]
    return Corpus(vocab, docs)


def rank_frequency(corpus: Corpus) -> list[tuple[int, str, float]]:
    """(rank, word, p_w) with p_w = n_w / M sorted descending; rank 1 is the
    most frequent word.  Ties break by word id for determinism."""
    m_total = corpus.total_tokens
    if m_total == 0:
        raise ValueError("rank_frequency needs a corpus with at least one token")
    n_w = corpus.word_counts()
    wids = np.arange(corpus.n_words)
    present = wids[n_w > 0]
    order = present[np.lexsort((present, -n_w[present]))]
    return [
        (rank + 1, corpus.vocab[int(w)], float(n_w[w]) / m_total)
        for rank, w in enumerate(order)
    ]


def heaps_curve(corpus: Corpus, doc_order=None, seed: int | None = None):
    """Growth of the word-document network as documents accumulate.

    Returns one record per added document: (docs so far, distinct words so
    far, distinct words + docs, distinct word-document pairs so far).  Both
    node-count variants are reported; the pair count is the simple-graph edge
    count and ends at the number of nonzero n_dw entries in any order.
    """
    n_docs = corpus.n_docs
    if doc_order is None:
        if seed is None:
            doc_order = np.arange(n_docs)
        else:
            doc_order = np.random.default_rng(seed).permutation(n_docs)
    else:
        doc_order = np.asarray(doc_order)
        if sorted(doc_order.tolist()) != list(range(n_docs)):
            raise ValueError("doc_order must be a permutation of all document indices")
    seen_words: set[int] = set()
    seen_pairs = 0
    out = []
    by_doc: dict[int, np.ndarray] = {}
    for d, w in zip(corpus.doc_idx, corpus.word_idx):
        by_doc.setdefault(int(d), []).append(int(w))
    for step, d in enumerate(doc_order, start=1):
        words = by_doc.get(int(d), [])
        seen_pairs += len(words)
        seen_words.update(words)
        out.append((step, len(seen_words), len(seen_words) + step, seen_pairs))
    return out


def fit_heaps_exponent(curve, node_variant: str = "words_plus_docs", skip: int = 5) -> float:
    """Least-squares slope of log E against log N over a heaps growth curve.

    `node_variant` chooses N as "words" or "words_plus_docs"; the first few
    documents are skipped because the log-log relation stabilizes only once
    the vocabulary has a few hundred entries.
    """
    col = {"words": 1, "words_plus_docs": 2}[node_variant]
    pts = [(row[col], row[3]) for row in curve[skip:] if row[col] > 0 and row[3] > 0]
    if len(pts) < 2:
        raise ValueError("not enough points to fit a growth exponent")
    logn = np.log([p[0] for p in pts])
    loge = np.log([p[1] for p in pts])
    slope = np.polyfit(logn, loge, 1)[0]
    return float(slope)


# --- interchange formats -------------------------------------------------


def read_jsonl(path, min_count: int = 1) -> Corpus:
    """Read one JSON object per line: {"id":..., "text":...} for raw text or
    {"id":..., "tokens": [...]} for pre-tokenized input."""
    streams = []
    pretokenized = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if "tokens" in obj:
                this_pre = True
                payload = obj["tokens"]
            elif "text" in obj:
                this_pre = False
                payload = obj["text"]
            else:
                raise ValueError("each record needs a 'text' or 'tokens' field")
            if pretokenized is None:
                pretokenized = this_pre
            elif pretokenized != this_pre:
                raise ValueError("cannot mix raw-text and pre-tokenized records")
            streams.append((obj["id"], payload))
    return build_corpus(streams, pretokenized=bool(pretokenized), min_count=min_count)


def write_corpus_tsv(corpus: Corpus, edges_path, vocab_path, docs_path=None) -> None:
    n_w = corpus.word_counts()
    with open(edges_path, "w", encoding="utf-8") as fh:
        for d, w, c in zip(corpus.doc_idx, corpus.word_idx, corpus.counts):
            fh.write(f"{corpus.docs[int(d)].id}\t{corpus.vocab[int(w)]}\t{int(c)}\n")
    with open(vocab_path, "w", encoding="utf-8") as fh:
        for wid, word in enumerate(corpus.vocab.words):
            fh.write(f"{word}\t{wid}\t{int(n_w[wid])}\n")
    if docs_path is not None:
        lengths = corpus.doc_lengths()
        with open(docs_path, "w", encoding="utf-8") as fh:
            for d, doc in enumerate(corpus.docs):
                fh.write(f"{doc.id}\t{int(lengths[d])}\n")


def read_corpus_tsv(edges_path, vocab_path=None, docs_path=None) -> Corpus:
    """Rebuild a corpus from the TSV edge list `doc_id<TAB>word<TAB>count`.

    Token order inside a document is not recorded by the count matrix, so
    documents come back as runs of repeated tokens; every model in this
    package depends on counts only.
    """
    vocab = Vocabulary()
    if vocab_path is not None:
        with open(vocab_path, "r", encoding="utf-8") as fh:
            for line in fh:
                word, wid, _ = line.rstrip("\n").split("\t")
                got = vocab.add(word)
                if got != int(wid):
                    raise ValueError(f"vocabulary ids not contiguous at {word!r}")
    doc_tokens: dict[str, list[int]] = {}
    with open(edges_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            doc_id, word, cnt = line.rstrip("\n").split("\t")
            if int(cnt) < 1:
                raise ValueError(f"{edges_path} line {lineno}: count {cnt} is below 1")
            wid = vocab.add(word)
            doc_tokens.setdefault(doc_id, []).extend([wid] * int(cnt))
    if docs_path is not None:
        with open(docs_path, "r", encoding="utf-8") as fh:
            for line in fh:
                doc_id = line.rstrip("\n").split("\t")[0]
                doc_tokens.setdefault(doc_id, [])
    docs = [Document(doc_id, toks) for doc_id, toks in doc_tokens.items()]
    return Corpus(vocab, docs)


def corpus_from_counts(counts: np.ndarray, doc_ids=None, words=None) -> Corpus:
    """Corpus from a dense n_dw array (rows are documents)."""
    counts = np.asarray(counts)
    n_docs, n_words = counts.shape
    vocab = Vocabulary()
    for w in range(n_words):
        vocab.add(words[w] if words is not None else f"w{w}")
    docs = []
    for d in range(n_docs):
        toks: list[int] = []
        for w in counts[d].nonzero()[0]:
            toks.extend([int(w)] * int(counts[d, w]))
        docs.append(Document(doc_ids[d] if doc_ids is not None else f"d{d}", toks))
    return Corpus(vocab, docs)
