import numpy as np
import pytest

from topicblocks.corpus import (
    Corpus,
    build_corpus,
    corpus_from_counts,
    fit_heaps_exponent,
    heaps_curve,
    rank_frequency,
    read_corpus_tsv,
    read_jsonl,
    tokenize,
    write_corpus_tsv,
)
from topicblocks.lda import double_power_law_base


class TestTokenize:
    def test_basic_sentence(self):
        assert tokenize("The cat, the cat.") == ["the", "cat", "the", "cat"]

    def test_empty(self):
        assert tokenize("") == []

    def test_mixed_alphanumerics_dropped_whole(self):
        # digits are not separators, so "a1b" and "42" survive the split in
        # one piece and then fail the letters-only filter
        assert tokenize("a1b c-d 42") == ["c", "d"]

    def test_idempotent(self):
        text = "Punct!! marks; and CAPS? plus x9y tokens."
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once

    def test_accents_are_separators(self):
        assert tokenize("café") == ["caf"]


class TestBuildCorpus:
    def test_single_doc_counts(self):
        c = build_corpus([("d1", "a b a")])
        assert c.n_words == 2
        assert c.total_tokens == 3
        cells = {(int(d), int(w)): int(n)
                 for d, w, n in zip(c.doc_idx, c.word_idx, c.counts)}
        assert cells == {(0, c.vocab.index["a"]): 2, (0, c.vocab.index["b"]): 1}
        assert c.doc_lengths().tolist() == [3]

    def test_shared_vocabulary(self):
        c = build_corpus([("d1", "a b"), ("d2", "a c")])
        assert c.n_words == 3
        assert c.vocab.index["a"] == 0  # first appearance order

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValueError, match="dup"):
            build_corpus([("dup", "a"), ("dup", "b")])

    def test_token_sum_invariant(self):
        rng = np.random.default_rng(0)
        docs = [(f"d{i}", " ".join(rng.choice(list("abcdefg"), size=20)))
                for i in range(30)]
        c = build_corpus(docs)
        assert c.doc_lengths().sum() == c.total_tokens == c.counts.sum()

    def test_min_count_filter(self):
        c = build_corpus([("d1", "a a b"), ("d2", "a c")], min_count=2)
        assert set(c.vocab.words) == {"a"}
        assert c.doc_lengths().tolist() == [2, 1]

    def test_pretokenized(self):
        c = build_corpus([("d1", ["x", "y", "x"])], pretokenized=True)
        assert c.total_tokens == 3

    def test_empty_doc_kept(self):
        c = build_corpus([("d1", ""), ("d2", "a")])
        assert c.n_docs == 2
        assert c.doc_lengths().tolist() == [0, 1]


class TestRankFrequency:
    def test_simple(self):
        c = build_corpus([("d", "a a b")])
        rf = rank_frequency(c)
        assert rf[0] == (1, "a", 2 / 3)
        assert rf[1] == (2, "b", 1 / 3)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(1)
        docs = [(f"d{i}", " ".join(rng.choice(list("qwertyuiop"), size=50)))
                for i in range(20)]
        c = build_corpus(docs)
        total = sum(p for _, _, p in rank_frequency(c))
        assert abs(total - 1.0) < 1e-12

    def test_uniform_corpus_is_flat(self):
        rng = np.random.default_rng(2)
        vocab = [f"w{i}" for i in range(40)]
        docs = [(f"d{i}", rng.choice(vocab, size=500).tolist()) for i in range(40)]
        c = build_corpus(docs, pretokenized=True)
        probs = np.array([p for _, _, p in rank_frequency(c)])
        # multinomial noise around 1/V
        assert probs.max() < 3.0 / 40
        assert probs.min() > 1.0 / (3 * 40)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank_frequency(build_corpus([("d", "")]))


class TestHeapsCurve:
    def test_two_identical_docs(self):
        c = build_corpus([("d1", "a"), ("d2", "a")])
        curve = heaps_curve(c)
        assert curve[-1] == (2, 1, 3, 2)  # docs, words, words+docs, pairs

    def test_single_doc(self):
        c = build_corpus([("d1", "a b a c")])
        curve = heaps_curve(c)
        assert len(curve) == 1
        assert curve[0][3] == 3  # distinct words = distinct pairs

    def test_monotone_and_order_invariant_endpoint(self):
        rng = np.random.default_rng(3)
        vocab = [f"w{i}" for i in range(30)]
        docs = [(f"d{i}", " ".join(rng.choice(vocab, size=30))) for i in range(25)]
        c = build_corpus(docs)
        nnz = len(c.counts)
        for seed in (0, 1, 2):
            curve = heaps_curve(c, seed=seed)
            words = [r[1] for r in curve]
            pairs = [r[3] for r in curve]
            assert all(a <= b for a, b in zip(words, words[1:]))
            assert all(a <= b for a, b in zip(pairs, pairs[1:]))
            assert curve[-1][3] == nnz

    def test_bad_order_rejected(self):
        c = build_corpus([("d1", "a"), ("d2", "b")])
        with pytest.raises(ValueError):
            heaps_curve(c, doc_order=[0, 0])

    def test_zipf_corpus_superlinear(self):
        rng = np.random.default_rng(4)
        p_w = double_power_law_base(3000)
        docs = []
        for i in range(300):
            toks = rng.choice(3000, size=60, p=p_w)
            docs.append((f"d{i}", [f"w{t}" for t in toks]))
        c = build_corpus(docs, pretokenized=True)
        curve = heaps_curve(c, seed=0)
        delta = fit_heaps_exponent(curve, "words_plus_docs")
        assert delta > 1.0


class TestInterchange:
    def test_tsv_round_trip(self, tmp_path):
        c = build_corpus([("d1", "a b a"), ("d2", "b c"), ("d3", "")])
        write_corpus_tsv(c, tmp_path / "e.tsv", tmp_path / "v.tsv", tmp_path / "d.tsv")
        back = read_corpus_tsv(tmp_path / "e.tsv", tmp_path / "v.tsv", tmp_path / "d.tsv")
        assert back.n_docs == 3
        assert back.n_words == 3
        assert np.array_equal(np.sort(back.counts), np.sort(c.counts))
        assert back.total_tokens == c.total_tokens

    def test_jsonl_raw_and_tokens(self, tmp_path):
        p = tmp_path / "docs.jsonl"
        p.write_text('{"id": "a", "text": "X y x!"}\n{"id": "b", "text": "y"}\n')
        c = read_jsonl(p)
        assert c.total_tokens == 4
        p2 = tmp_path / "tok.jsonl"
        p2.write_text('{"id": "a", "tokens": ["x", "y"]}\n')
        c2 = read_jsonl(p2)
        assert c2.total_tokens == 2

    def test_jsonl_mixed_rejected(self, tmp_path):
        p = tmp_path / "docs.jsonl"
        p.write_text('{"id": "a", "text": "x"}\n{"id": "b", "tokens": ["y"]}\n')
        with pytest.raises(ValueError):
            read_jsonl(p)

    def test_corpus_from_counts(self):
        c = corpus_from_counts(np.array([[2, 0], [1, 3]]))
        assert c.total_tokens == 6
        assert c.doc_lengths().tolist() == [2, 4]
