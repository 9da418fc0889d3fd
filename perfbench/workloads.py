"""The benchmark's three workloads: how each builds its inputs, what it times,
and how its outputs are checked.

Every workload exposes

* ``pool(seed)``: the inputs one run cycles through, as JSON-able dicts
  derived from the run seed alone;
* ``setup(spec, workdir)``: input generation, timed as part of ``setup_s``;
* ``run(inputs)``: the timed pipeline, calling the package's public API;
* ``check(inputs, outputs)``: ``(problems, sigma_nats)``, where an empty
  problem list means the outputs are correct.

The run seed HELD_OUT_SEED maps to inputs that no other seed reaches: a
claimed gain must also hold on it, so it is kept out of the runs made while a
change is written.

Functions of the package are always reached through their module at call
time (``inference.fit(...)``), never bound here by name, so that the tracing
shim's patched bindings are the ones that run.
"""
from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

from topicblocks import cli, evaluation, graph, inference, lda, microcanonical, presets

HELD_OUT_SEED = 1000

# --- bimodal-refine ------------------------------------------------------------
#
# Criterion 8's pipeline (two-component Dirichlet mixture, K=3, V=100,
# fit_restarts=4, gibbs_sweeps=20) at D=100 and document length 200: one
# pipeline takes about 3 s instead of the full-size minute, so a run holds
# several.  At this size the node-move polish is about a tenth of the time
# (half at full size, where its cost grows with D times the group count).
# The corpora are fixed (criterion-8 sample seeds 0-2; 3-5 for the held-out
# seed) and the run seed chooses the fit seeds: the pipeline's cost follows
# the corpus' bundle count, which varies twofold between sample seeds, while
# the fit seed only moves the search path.

BIMODAL = dict(n_docs=100, doc_length=200, vocab_size=100, n_topics=3,
               word_pseudocount=0.01, fit_restarts=4, gibbs_sweeps=20)
BIMODAL_CORPUS_SEEDS = (0, 1, 2)
BIMODAL_HELD_OUT_CORPUS_SEEDS = (3, 4, 5)


def bimodal_pool(seed: int) -> list[dict]:
    corpora = (BIMODAL_HELD_OUT_CORPUS_SEEDS if seed == HELD_OUT_SEED
               else BIMODAL_CORPUS_SEEDS)
    return [{"corpus_seed": c, "fit_seed": seed * 1000 + j}
            for j, c in enumerate(corpora)]


def bimodal_setup(spec: dict, workdir: str) -> dict:
    D, V = BIMODAL["n_docs"], BIMODAL["vocab_size"]
    sample = lda.sample_mixture_corpus(
        np.asarray(presets.BIMODAL_ALPHA_VECTORS, dtype=float),
        D, V, BIMODAL["doc_length"], np.full(V, BIMODAL["word_pseudocount"]),
        seed=spec["corpus_seed"],
    )
    dense = np.zeros((D, V), dtype=np.int64)
    np.add.at(dense, (sample.labels.d, sample.labels.w), sample.labels.counts)
    return {"sample": sample, "dense": dense, "fit_seed": spec["fit_seed"]}


def bimodal_run(inputs: dict) -> dict:
    """The steps of `presets.bimodal_recovery`, one public call at a time."""
    seed = inputs["fit_seed"]
    z, sigma_anchored, trace = inference.fit_doc_anchored(
        inputs["dense"], BIMODAL["n_topics"], seed=seed,
        n_restarts=BIMODAL["fit_restarts"], gibbs_sweeps=BIMODAL["gibbs_sweeps"],
    )
    refined, _ = inference.refine_doc_clusters(z, seed=seed)
    theta = evaluation.topic_mixtures(lda.LabeledCounts.from_dense(z))
    mode_count = evaluation.simplex_mode_count(theta)
    baseline = presets._lda_noninformative_score(inputs["sample"].labels)
    return {
        "labels_dense": z,
        "theta_hat": theta,
        "mode_count": mode_count,
        "sigma_anchored": sigma_anchored,
        "sigma_sbm": min(refined.sigma_nats, sigma_anchored),
        "sigma_lda_noninf": baseline.sigma_nats,
        "trace": trace,
    }


def bimodal_check(inputs: dict, out: dict):
    problems = []
    if out["mode_count"] != 2:
        problems.append(f"mode count {out['mode_count']}, expected 2")
    if not out["sigma_sbm"] < out["sigma_lda_noninf"]:
        problems.append(f"sigma_sbm {out['sigma_sbm']!r} not below the collapsed "
                        f"baseline {out['sigma_lda_noninf']!r}")
    trace = out["trace"]
    if any(b > a for a, b in zip(trace, trace[1:])):
        problems.append("anchored trace increases")
    return problems, float(out["sigma_sbm"])


# --- fig4-score ----------------------------------------------------------------
#
# Criterion 6's scoring: D=2000, V=10000, K=10, alpha=beta=1, Zipf base, four
# text lengths.  Sample seeds come from a universe of FIG4_UNIVERSE seeds, or
# for the held-out seed from FIG4_HELD_OUT outside it; the per-token values of
# all of them are recorded in reference/fig4.json, so every operation's output
# is checked against a reference.

FIG4 = dict(n_docs=2000, vocab_size=10000, n_topics=10, alpha=1.0, beta=1.0,
            m_values=(8, 32, 128, 512))
FIG4_UNIVERSE = 32
FIG4_POOL = 2
FIG4_HELD_OUT = (1000, 1001)
FIG4_MODELS = ("lda_true", "lda_noninf", "sbm_noclust", "sbm_clust")
FIG4_REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference", "fig4.json")


def fig4_pool(seed: int) -> list[dict]:
    if seed == HELD_OUT_SEED:
        return [{"sample_seed": s} for s in FIG4_HELD_OUT]
    return [{"sample_seed": (seed * FIG4_POOL + j) % FIG4_UNIVERSE}
            for j in range(FIG4_POOL)]


def fig4_setup(spec: dict, workdir: str) -> dict:
    K, V = FIG4["n_topics"], FIG4["vocab_size"]
    hyper = lda.make_hyper(FIG4["alpha"], FIG4["beta"], np.full(K, 1.0 / K),
                           lda.double_power_law_base(V))
    samples = [lda.sample_corpus(K, FIG4["n_docs"], V, m, hyper,
                                 seed=spec["sample_seed"])
               for m in FIG4["m_values"]]
    return {"sample_seed": spec["sample_seed"], "samples": samples}


@contextlib.contextmanager
def _capture_scores(module, names):
    """Record the ModelScore every call through `module.<name>` returns."""
    captured = []
    originals = {name: getattr(module, name) for name in names}

    def recording(fn):
        def call(*args, **kwargs):
            score = fn(*args, **kwargs)
            captured.append(score)
            return score
        return call

    for name, fn in originals.items():
        setattr(module, name, recording(fn))
    try:
        yield captured
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)


def fig4_run(inputs: dict) -> dict:
    rows, scores = [], []
    with _capture_scores(presets, ("lda_description_length",
                                   "fixed_label_score")) as captured:
        for sample in inputs["samples"]:
            rows.append(presets.score_four_models(sample))
            scores.append(list(captured))
            captured.clear()
    return {"rows": rows, "scores": scores}


def load_fig4_reference() -> dict:
    with open(FIG4_REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def fig4_check(inputs: dict, out: dict, reference: dict | None = None):
    reference = load_fig4_reference() if reference is None else reference
    ref = reference["per_token"].get(str(inputs["sample_seed"]))
    problems = []
    if ref is None:
        problems.append(f"no reference for sample seed {inputs['sample_seed']}")
    sigma = 0.0
    for m, row, scores in zip(FIG4["m_values"], out["rows"], out["scores"]):
        if len(scores) != len(FIG4_MODELS):
            problems.append(f"m={m}: {len(scores)} scores, expected 4")
        for score in scores:
            total = sum(score.breakdown.values())
            if abs(total - score.sigma_nats) > 1e-9:
                problems.append(f"m={m} {score.parametrization}: breakdown sums "
                                f"to {total!r}, sigma is {score.sigma_nats!r}")
        for model in FIG4_MODELS:
            if ref is not None and abs(row[model] - ref[str(m)][model]) > 1e-9:
                problems.append(f"m={m} {model}: {row[model]!r} differs from the "
                                f"reference {ref[str(m)][model]!r}")
        sigma += row["sbm_clust"] * row["n_tokens"]
    return problems, sigma


# --- cli-fit-clustered -----------------------------------------------------------
#
# A clustered greedy fit through the CLI, in process, on one fixed synthetic
# corpus (synth seed 21; 22 for the held-out seed); the run seed chooses the
# fit seeds.  At D=30, V=40 one fit takes 17-22 s and repeats of one fit seed
# differ by as much as fit seeds do, so the spread comes from the machine; at
# D=20, V=30 a fit takes about 5 s and a run holds four to six, whose median
# is steadier.  Every fit runs all ten rounds.

SYNTH_ARGS = ["--K", "2", "--D", "20", "--V", "30", "--m", "20",
              "--alpha", "0.05", "--beta", "0.05", "--p-w", "uniform"]
SYNTH_SEED, SYNTH_HELD_OUT_SEED = 21, 22
FIT_ARGS = ["--mode", "greedy", "--restarts", "2", "--sweeps", "10"]
TRACE_TOL = 1e-9


def cli_pool(seed: int) -> list[dict]:
    synth = SYNTH_HELD_OUT_SEED if seed == HELD_OUT_SEED else SYNTH_SEED
    return [{"synth_seed": synth, "fit_seed": seed * 1000 + j} for j in range(2)]


def _cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def cli_setup(spec: dict, workdir: str) -> dict:
    corpus_dir = os.path.join(workdir, "corpus")
    code = _cli(["synth", *SYNTH_ARGS, "--seed", str(spec["synth_seed"]),
                 "--out", corpus_dir])
    if code != 0:
        raise RuntimeError(f"synth exited with {code}")
    return {"corpus": corpus_dir, "out": os.path.join(workdir, "fit"),
            "fit_seed": spec["fit_seed"]}


def cli_run(inputs: dict) -> dict:
    code = _cli(["fit", "--corpus", inputs["corpus"], *FIT_ARGS,
                 "--seed", str(inputs["fit_seed"]), "--out", inputs["out"]])
    return {"exit_code": code}


def cli_check(inputs: dict, out: dict):
    if out["exit_code"] != 0:
        return [f"fit exited with {out['exit_code']}"], float("nan")
    out_dir = inputs["out"]

    def load(name):
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            return json.load(fh)

    sigma = float(load("score.json")["sigma_nats"])
    state = graph.state_from_dict(load("state.json"))
    hierarchy = microcanonical.Hierarchy(
        [np.asarray(a, dtype=np.int64) for a in load("hierarchy.json")["assignments"]])
    oracle = microcanonical.joint_logp(state, hierarchy).sigma_nats
    problems = []
    if abs(oracle - sigma) > 1e-9:
        problems.append(f"score.json sigma {sigma!r} differs from joint_logp of the "
                        f"saved state {oracle!r}")
    with open(os.path.join(out_dir, "sigma_trace.tsv"), encoding="utf-8") as fh:
        trace = [float(line.split("\t")[1]) for line in fh if line.strip()]
    # the engine's running total drifts by about 1e-12 nats per round
    if any(b > a + TRACE_TOL for a, b in zip(trace, trace[1:])):
        problems.append("sigma_trace.tsv increases")
    return problems, sigma


WORKLOADS = {
    "bimodal-refine": (bimodal_pool, bimodal_setup, bimodal_run, bimodal_check),
    "fig4-score": (fig4_pool, fig4_setup, fig4_run, fig4_check),
    "cli-fit-clustered": (cli_pool, cli_setup, cli_run, cli_check),
}
