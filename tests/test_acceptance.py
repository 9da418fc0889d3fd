"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines appear;
they are also appended to acceptance_report.txt in the working directory.
"""
import itertools
import json
import math
import os
import time
from collections import Counter

import numpy as np
import pytest

from topicblocks.corpus import build_corpus, fit_heaps_exponent, heaps_curve
from topicblocks.evaluation import (
    adjusted_rand_index,
    shuffled_dissemination_medians,
)
from topicblocks.graph import LabeledGraph, state_from_label_arrays
from topicblocks.inference import InferenceConfig, fit, mh_sweep
from topicblocks.lda import (
    LabeledCounts,
    double_power_law_base,
    lda_marginal_loglik,
    noninformative_hyper,
    plsi_loglik,
    sample_corpus,
)
from topicblocks.graph import plsi_to_sbm_params, poisson_bundle_loglik
from topicblocks.lda import LdaParams
from topicblocks.microcanonical import (
    CountTables,
    joint_logp,
    logp_degrees_flat,
    logp_edge_matrix_geometric,
    logp_graph_given_ke,
    logp_marginal_flat,
)
from topicblocks.partition_counts import count_partitions
from topicblocks.presets import bimodal_recovery, four_model_curves, hyper_sweep
from test_microcanonical import SideStats, logp_degrees_given_mixtures, logp_overlap_partition

REPORT = os.path.join(os.path.dirname(__file__), "..", "acceptance_report.txt")
_started = False


def report(criterion: int, ok: bool, detail: str):
    global _started
    mode = "a" if _started else "w"
    _started = True
    line = f"ACCEPTANCE {criterion:2d} {'PASS' if ok else 'FAIL'}  {detail}"
    print("\n" + line)
    with open(REPORT, mode, encoding="utf-8") as fh:
        fh.write(line + "\n")
    assert ok, line


def random_labeled_state(rng, n_max=6, e_max=8, b_max=3):
    n = int(rng.integers(2, n_max + 1))
    b = int(rng.integers(1, b_max + 1))
    n_edges = int(rng.integers(1, e_max + 1))
    bundles = Counter()
    for _ in range(n_edges):
        i, j = sorted(rng.integers(n, size=2))
        r, s = rng.integers(b, size=2)
        if i == j:
            r, s = min(r, s), max(r, s)
        bundles[(int(i), int(j), int(r), int(s))] += 1
    keys = sorted(bundles)
    i, j, r, s = zip(*keys)
    return LabeledGraph(n, i, j, r, s, [bundles[k] for k in keys], b)


def test_criterion_1_microcanonical_identity():
    """Closed-form marginal equals the three-piece microcanonical product on
    100 random labeled multigraphs within 1e-9, in under 10 seconds."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        st = random_labeled_state(rng)
        tables = CountTables(st)
        omega = float(rng.uniform(0.05, 4.0))
        lhs = logp_marginal_flat(st, omega)
        rhs = (logp_graph_given_ke(tables) + logp_degrees_flat(tables)
               + logp_edge_matrix_geometric(tables, omega))
        worst = max(worst, abs(lhs - rhs))
    elapsed = time.time() - t0
    report(1, worst < 1e-9 and elapsed < 10,
           f"identity max |delta log P| = {worst:.2e} over 100 states "
           f"(N<=6, E<=8, B<=3) in {elapsed:.1f}s")


def test_criterion_2_normalization_suite():
    t0 = time.time()
    failures = []
    # (i) geometric edge-count prior per entry, analytic tail
    for omega in (0.5, 1.0, 2.5):
        head = sum(omega ** x / (omega + 1) ** (x + 1) for x in range(400))
        tail = (omega / (omega + 1)) ** 400
        if abs(head + tail - 1.0) > 1e-9:
            failures.append(f"geometric omega={omega}")
    # (ii) flat degree prior given (e, N)
    for n in (2, 3):
        for e_r in range(0, 5):
            st = None
            total = 0.0
            for ks in itertools.product(range(e_r + 1), repeat=n):
                if sum(ks) == e_r:
                    total += math.exp(-float(
                        np.log(math.comb(e_r + n - 1, e_r))))
            if abs(total - 1.0) > 1e-9:
                failures.append(f"flat degrees N={n} e={e_r}")
    # (iii) overlapping partition prior
    for (n, b, q) in [(1, 1, 1), (2, 1, 1), (2, 2, 2), (3, 2, 2), (3, 2, 1)]:
        options = []
        for size in range(1, q + 1):
            options.extend(itertools.combinations(range(b), size))
        total = 0.0
        for combo in itertools.product(options, repeat=n):
            st = SideStats(n_groups=b)
            st.n_eff = n
            for mix in combo:
                st.size_hist[len(mix)] += 1
                st.mixture_count[tuple(mix)] += 1
            total += math.exp(logp_overlap_partition(st, q))
        if abs(total - 1.0) > 1e-9:
            failures.append(f"overlap N={n} B={b} Q={q}")
    # (iv) degree prior given (e, b)
    def compositions(total, parts):
        if parts == 1:
            if total >= 1:
                yield (total,)
            return
        for first in range(1, total - parts + 2):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    cases = [
        ([(0,), (0,)], {0: 5}),
        ([(0,), (0,), (0, 1)], {0: 5, 1: 2}),
        ([(0, 1), (0,), (1,)], {0: 4, 1: 3}),
        ([(0,), (1,), (0, 1)], {0: 3, 1: 4}),
    ]
    for mixtures, e_r in cases:
        groups = sorted(e_r)
        members = {g: [i for i, mix in enumerate(mixtures) if g in mix]
                   for g in groups}
        total = 0.0
        for pick in itertools.product(*[list(compositions(e_r[g], len(members[g])))
                                        for g in groups]):
            st = SideStats(n_groups=max(groups) + 1)
            st.n_eff = len(mixtures)
            k_table = {}
            for g, degs in zip(groups, pick):
                for i, kv in zip(members[g], degs):
                    k_table[(i, g)] = kv
            for i, mix in enumerate(mixtures):
                mix = tuple(sorted(mix))
                st.size_hist[len(mix)] += 1
                st.mixture_count[mix] += 1
                for g in mix:
                    kv = k_table[(i, g)]
                    st.e_mix[(mix, g)] = st.e_mix.get((mix, g), 0) + kv
                    st.deg_freq.setdefault((mix, g), Counter())[kv] += 1
                    st.members_with[g] += 1
            for mix in st.mixture_count:
                for g in mix:
                    st.m_r[g] += 1
            for g in groups:
                st.e_r[g] = e_r[g]
            total += math.exp(logp_degrees_given_mixtures({0: st}))
        if abs(total - 1.0) > 1e-9:
            failures.append(f"degrees given (e,b) {mixtures}")
    elapsed = time.time() - t0
    report(2, not failures and elapsed < 60,
           f"all prior normalizations sum to 1 within 1e-9 in {elapsed:.1f}s"
           + (f"; failures: {failures}" if failures else ""))


def test_criterion_3_partition_counts():
    t0 = time.time()

    def brute(m, n):
        if n == 0:
            return 1 if m == 0 else 0
        found = 0

        def rec(rem, parts, cap):
            nonlocal found
            if parts == 0:
                found += rem == 0
                return
            for first in range(1, min(rem, cap) + 1):
                if first * parts >= rem:
                    rec(rem - first, parts - 1, first)

        rec(m, n, m)
        return found

    ok = all(count_partitions(m, n) == brute(m, n)
             for m in range(31) for n in range(m + 1))
    spots = (count_partitions(0, 0) == 1 and count_partitions(4, 2) == 2
             and count_partitions(7, 3) == 4)
    elapsed = time.time() - t0
    report(3, ok and spots and elapsed < 5,
           f"exact counts match enumeration for all m <= 30; "
           f"p(0,0)=1, p(4,2)=2, p(7,3)=4 in {elapsed:.1f}s")


def test_criterion_4_marginal_vs_monte_carlo():
    """Collapsed marginal equals Monte Carlo integration of the token
    likelihood over the priors on 10 tiny instances within 3 s.e."""
    t0 = time.time()
    rng = np.random.default_rng(404)
    S = 1_000_000
    worst_z = 0.0
    for trial in range(10):
        D = int(rng.integers(1, 4))
        V = int(rng.integers(2, 5))
        K = 2
        n_tok = int(rng.integers(1, 7))
        rows = Counter()
        for _ in range(n_tok):
            rows[(int(rng.integers(D)), int(rng.integers(V)),
                  int(rng.integers(K)))] += 1
        keys = sorted(rows)
        d, w, r = (np.array(col) for col in zip(*keys))
        labels = LabeledCounts(D, V, K, d, w, r, np.array([rows[k] for k in keys]))
        hyper = noninformative_hyper(K, V)
        exact = lda_marginal_loglik(labels, hyper)
        k_d = labels.doc_lengths().astype(float)
        theta = rng.dirichlet(hyper.alpha_row, size=(S, D))
        phi = rng.dirichlet(hyper.beta_row, size=(S, K))
        terms = np.zeros(S)
        for dd, ww, rr, cc in zip(labels.d, labels.w, labels.r, labels.counts):
            terms += cc * np.log(phi[:, rr, ww] * theta[:, dd, rr]) \
                - math.lgamma(cc + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            const = float(np.where(k_d > 0, k_d * np.log(k_d), 0.0).sum() - k_d.sum())
        mx = terms.max()
        weights = np.exp(terms - mx)
        est = const + mx + math.log(weights.mean())
        se = weights.std() / (weights.mean() * math.sqrt(S))
        worst_z = max(worst_z, abs(est - exact) / max(se, 1e-300))
    elapsed = time.time() - t0
    report(4, worst_z < 3 and elapsed < 120,
           f"10 instances at 1e6 draws: worst |z| = {worst_z:.2f} "
           f"in {elapsed:.0f}s")


def test_criterion_5_token_product_identity():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(100):
        D, K, V = 3, 3, 5
        theta = rng.dirichlet(np.ones(K), size=D)
        phi = rng.dirichlet(np.ones(V), size=K)
        eta_d = rng.uniform(0.5, 4.0, size=D)
        rows = Counter()
        for _ in range(int(rng.integers(1, 9))):
            rows[(int(rng.integers(D)), int(rng.integers(V)),
                  int(rng.integers(K)))] += 1
        keys = sorted(rows)
        d, w, r = (np.array(col) for col in zip(*keys))
        labels = LabeledCounts(D, V, K, d, w, r, np.array([rows[k] for k in keys]))
        params = LdaParams(eta_d, theta, phi)
        lhs = plsi_loglik(labels, params)
        _, _, lam, _ = plsi_to_sbm_params(eta_d, theta, phi)
        rhs = poisson_bundle_loglik(lam, labels.to_dense())
        worst = max(worst, abs(lhs - rhs))
    report(5, worst < 1e-10,
           f"mixture vs Poisson-product log-likelihoods agree to {worst:.2e} "
           "over 100 random parameter sets")


def test_criterion_6_four_curve_reproduction():
    """Four parametrizations on corpora drawn at D = 2000 with a heavy-tailed
    word base, per text length, across 10 seeds."""
    t0 = time.time()
    m_values = (8, 32, 128, 512)
    per_seed_ok = []
    sample_rows = None
    for seed in range(10):
        rows = four_model_curves(n_docs=2000, m_values=m_values, seed=seed)
        if sample_rows is None:
            sample_rows = rows
        ok = True
        for row in rows:
            if row["m"] < 32:
                continue
            below_noninf = row["sbm_clust"] < row["lda_noninf"]
            below_true = row["sbm_clust"] < row["lda_true"]
            signs = (row["delta_lda_noninf"] > 0
                     and row["delta_sbm_noclust"] > 0
                     and row["delta_sbm_clust"] < 0)
            ok = ok and below_noninf and below_true and signs
        per_seed_ok.append(ok)
    n_ok = sum(per_seed_ok)
    elapsed = time.time() - t0
    lines = "; ".join(
        f"m={r['m']}: true={r['lda_true']:.3f} noninf={r['lda_noninf']:.3f} "
        f"noclust={r['sbm_noclust']:.3f} clust={r['sbm_clust']:.3f}"
        for r in sample_rows)
    report(6, n_ok >= 9 and elapsed < 600,
           f"{n_ok}/10 seeds satisfy [clustered below BOTH collapsed-Dirichlet "
           f"curves and sign ordering] for m >= 32 in {elapsed:.0f}s "
           f"(seed 0 per-token values: {lines})")


def test_criterion_7_hyperparameter_sweep():
    t0 = time.time()
    rows = hyper_sweep(n_docs=500, m=128, seed=7)
    bad = [(r["K"], r["alpha"], r["beta"]) for r in rows
           if not r["sbm_clust"] < r["lda_noninf"]]
    elapsed = time.time() - t0
    report(7, not bad and elapsed < 1200,
           f"clustered labeled-graph score beats the noninformative collapsed "
           f"score in {len(rows) - len(bad)}/{len(rows)} sweep cells "
           f"(K in {{2,10}}, strengths in {{0.01,1,100}}^2, m=128) in {elapsed:.0f}s"
           + (f"; failing cells: {bad}" if bad else ""))


def test_criterion_8_bimodal_recovery():
    t0 = time.time()
    mode_ok = 0
    sigma_ok = 0
    details = []
    for seed in range(10):
        out = bimodal_recovery(seed=seed, fit_restarts=4, gibbs_sweeps=20)
        mode_ok += out["mode_count"] == 2
        sigma_ok += out["sigma_sbm"] < out["sigma_lda_noninf"]
        details.append(
            f"s{seed}: modes={out['mode_count']} "
            f"dSigma={out['sigma_sbm'] - out['sigma_lda_noninf']:+.0f}")
    elapsed = time.time() - t0
    report(8, mode_ok >= 9 and sigma_ok >= 9 and elapsed < 900,
           f"two-component mixture: {mode_ok}/10 seeds bimodal, "
           f"{sigma_ok}/10 seeds with fitted score below the noninformative "
           f"collapsed baseline in {elapsed:.0f}s ({'; '.join(details)})")


def _planted_graph(mult=3):
    from topicblocks.graph import BipartiteMultigraph

    d_idx, w_idx, cnt = [], [], []
    for d in range(4):
        for w in range(4):
            d_idx.append(d); w_idx.append(w); cnt.append(mult)
    for d in range(4, 8):
        for w in range(4, 8):
            d_idx.append(d); w_idx.append(w); cnt.append(mult)
    return BipartiteMultigraph(8, 8, d_idx, w_idx, cnt)


def test_criterion_9_inference_sanity():
    t0 = time.time()
    problems = []
    # greedy traces nonincreasing on the test corpora
    for seed in (0, 1):
        cfg = InferenceConfig(mode="greedy", doc_clustering="clustered",
                              seed=seed, n_restarts=2, n_sweeps=20)
        result = fit(_planted_graph(), cfg)
        trace = result.sigma_trace
        if not all(a >= b - 1e-6 for a, b in zip(trace, trace[1:])):
            problems.append(f"trace increased (seed {seed})")
    # planted recovery with adjusted rand 1.0 within 10 restarts
    cfg = InferenceConfig(mode="greedy", doc_clustering="clustered",
                          seed=9, n_restarts=10, n_sweeps=20)
    result = fit(_planted_graph(), cfg)
    groups = {}
    for i, j, r, s in zip(result.state.i, result.state.j,
                          result.state.r, result.state.s):
        groups.setdefault(int(i), []).append(int(r))
        groups.setdefault(int(j), []).append(int(s))
    doc_labels = [max(set(groups[d]), key=groups[d].count) for d in range(8)]
    word_labels = [max(set(groups[8 + w]), key=groups[8 + w].count)
                   for w in range(8)]
    truth = [0] * 4 + [1] * 4
    ari = min(adjusted_rand_index(doc_labels, truth),
              adjusted_rand_index(word_labels, truth))
    if ari < 1.0:
        problems.append(f"planted ARI {ari}")

    # Metropolis chain vs enumerated posterior (relabeling-invariant states)
    edges = [(0, 0), (0, 1), (1, 1), (2, 2), (1, 2)]
    DOC_LABELS, WORD_LABELS = [0, 1], [2, 3]
    pairs = [(rd, rw) for rd in DOC_LABELS for rw in WORD_LABELS]

    def canonical(bundle_key):
        doc_map, word_map = {}, {}
        out = []
        for (dw, plist) in bundle_key:
            row = []
            for (pr, mm) in plist:
                rd, rw = pr
                doc_map.setdefault(rd, len(doc_map))
                word_map.setdefault(rw, len(word_map))
                row.append(((doc_map[rd], word_map[rw]), mm))
            out.append((dw, tuple(sorted(row))))
        return tuple(out)

    post = {}
    for combo in itertools.product(pairs, repeat=len(edges)):
        bk = {}
        for (dd, ww), pr in zip(edges, combo):
            bk.setdefault((dd, ww), Counter())[pr] += 1
        key = tuple(sorted((k, tuple(sorted(v.items()))) for k, v in bk.items()))
        if key in post:
            continue
        st = state_from_label_arrays(
            3, 3, [e[0] for e in edges], [e[1] for e in edges],
            [p[0] for p in combo], [p[1] for p in combo], [1] * len(edges),
            4, np.array([0, 0, 1, 1]))
        post[key] = joint_logp(st).sigma_nats
    mn = min(post.values())
    canon_w = {}
    for bk, sg in post.items():
        ck = canonical(bk)
        canon_w[ck] = canon_w.get(ck, 0.0) + math.exp(-(sg - mn))
    tot = sum(canon_w.values())
    p_exact = {k: v / tot for k, v in canon_w.items()}

    def state_key(st):
        bk = {}
        for d, j, rd, rw, m in zip(st.i, st.j, st.r, st.s, st.m):
            bk.setdefault((int(d), int(j) - 3), Counter())[(int(rd), int(rw))] += int(m)
        return canonical(tuple(sorted((k, tuple(sorted(v.items()))) for k, v in bk.items())))

    counts = {}
    n_chains, n_sweeps, burn = 8, 1500, 150
    for chain in range(n_chains):
        st = state_from_label_arrays(
            3, 3, [e[0] for e in edges], [e[1] for e in edges], [0] * len(edges),
            [2] * len(edges), [1] * len(edges), 4, np.array([0, 0, 1, 1]))
        rng = np.random.default_rng(9000 + chain)
        sigma = None  # each sweep starts from the sigma the previous one returned
        for _ in range(20):
            st, stats = mh_sweep(st, rng, temperature=10.0, doc_labels=DOC_LABELS,
                                 word_labels=WORD_LABELS, sigma=sigma)
            sigma = stats["sigma"]
        for i in range(n_sweeps):
            st, stats = mh_sweep(st, rng, temperature=1.0, doc_labels=DOC_LABELS,
                                 word_labels=WORD_LABELS, sigma=sigma)
            sigma = stats["sigma"]
            if i >= burn:
                k = state_key(st)
                counts[k] = counts.get(k, 0) + 1
    total = sum(counts.values())
    tv = 0.5 * sum(abs(counts.get(k, 0) / total - pv)
                   for k, pv in p_exact.items())
    tv += 0.5 * sum(counts.get(k, 0) / total
                    for k in counts if k not in p_exact)
    if tv > 0.05:
        problems.append(f"TV {tv:.3f}")
    elapsed = time.time() - t0
    report(9, not problems and elapsed < 300,
           f"greedy traces monotone, planted blocks recovered (ARI {ari:.1f}), "
           f"chain TV = {tv:.3f} vs enumerated posterior in {elapsed:.0f}s"
           + (f"; problems: {problems}" if problems else ""))


def test_criterion_10_growth_and_dissemination():
    t0 = time.time()
    rng = np.random.default_rng(1010)
    p_w = double_power_law_base(20000)
    docs = []
    for i in range(800):
        toks = rng.choice(20000, size=150, p=p_w)
        docs.append((f"d{i}", [f"t{j}" for j in toks]))
    corpus = build_corpus(docs, pretokenized=True)
    curve = heaps_curve(corpus, seed=1)
    delta = fit_heaps_exponent(curve, "words_plus_docs")

    vocab = [f"tok{chr(97 + i // 26)}{chr(97 + i % 26)}" for i in range(50)]
    docs2 = [(f"d{i}", rng.choice(vocab, size=100).tolist()) for i in range(80)]
    corpus2 = build_corpus(docs2, pretokenized=True)
    medians = shuffled_dissemination_medians(corpus2, n_shuffles=10, seed=2)
    spread = max(float(medians.std()), 1e-6)
    centered = abs(float(medians.mean()) - 1.0) <= 2 * spread + 0.02
    elapsed = time.time() - t0
    report(10, delta > 1.05 and centered and elapsed < 120,
           f"edge growth exponent {delta:.2f} > 1.05; shuffled-corpus median "
           f"dissemination {medians.mean():.4f} +- {spread:.4f} in {elapsed:.0f}s")


def test_criterion_11_pipeline_determinism(tmp_path):
    from topicblocks.cli import main as cli_main

    t0 = time.time()
    sigmas = {"synth": [], "fit": []}
    for rep in ("one", "two"):
        base = tmp_path / rep
        sample = base / "sample"
        cli_main(["synth", "--K", "2", "--D", "12", "--V", "25", "--m", "18",
                  "--seed", "21", "--out", str(sample)])
        score_path = base / "score.json"
        cli_main(["score", "--model", "hsbm", "--variant", "doc-clustering",
                  "--labels", str(sample / "labels.tsv"),
                  "--out", str(score_path)])
        sigmas["synth"].append(json.loads(score_path.read_text())["sigma_nats"])
        model = base / "model"
        cli_main(["fit", "--corpus", str(sample), "--mode", "greedy",
                  "--restarts", "2", "--sweeps", "10", "--seed", "5",
                  "--out", str(model)])
        sigmas["fit"].append(
            json.loads((model / "score.json").read_text())["sigma_nats"])
    ok = (sigmas["synth"][0] == sigmas["synth"][1]
          and sigmas["fit"][0] == sigmas["fit"][1])
    elapsed = time.time() - t0
    report(11, ok,
           f"reruns reproduce description lengths bit-for-bit "
           f"(score {sigmas['synth'][0]!r}, fit {sigmas['fit'][0]!r}) "
           f"in {elapsed:.0f}s")
