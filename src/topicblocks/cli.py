"""Command-line front door: ingestion, synthesis, fitting, scoring,
comparison, summaries, corpus statistics, and model export.

Every command that writes an output directory drops a manifest recording the
full configuration, seeds, input digests, and tool version; reruns with the
same manifest inputs reproduce the outputs (timestamps aside).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .corpus import (
    Corpus,
    fit_heaps_exponent,
    heaps_curve,
    rank_frequency,
    read_corpus_tsv,
    read_jsonl,
    write_corpus_tsv,
)
from .evaluation import dissemination_all, group_summaries
from .graph import from_counts, state_from_dict, state_to_dict
from .inference import InferenceConfig, fit, fixed_label_score
from .lda import (
    DirichletHyper,
    LabeledCounts,
    double_power_law_base,
    harmonic_base,
    lda_description_length,
    make_hyper,
    noninformative_hyper,
    sample_corpus,
)
from .microcanonical import Hierarchy, joint_logp
from .presets import bimodal_recovery, four_model_curves, hyper_sweep
from .util import IntegrityError, require_keys, whole_numbers

EXIT_USAGE = 2
EXIT_INTEGRITY = 3


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, command, args_dict, inputs=()):
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "command": command,
        "config": {k: v for k, v in sorted(args_dict.items()) if k != "func"},
        "inputs": {str(p): _sha256(p) for p in inputs if os.path.isfile(p)},
        "tool_version": __version__,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return path


def _load_corpus_dir(path) -> Corpus:
    edges = os.path.join(path, "edges.tsv")
    vocab = os.path.join(path, "vocab.tsv")
    docs = os.path.join(path, "docs.tsv")
    return read_corpus_tsv(
        edges,
        vocab if os.path.exists(vocab) else None,
        docs if os.path.exists(docs) else None,
    )


def _write_corpus_dir(corpus: Corpus, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    write_corpus_tsv(
        corpus,
        os.path.join(out_dir, "edges.tsv"),
        os.path.join(out_dir, "vocab.tsv"),
        os.path.join(out_dir, "docs.tsv"),
    )


def _write_labels_tsv(path, labels: LabeledCounts, doc_ids, words):
    with open(path, "w", encoding="utf-8") as fh:
        for d, w, r, c in zip(labels.d, labels.w, labels.r, labels.counts):
            fh.write(f"{doc_ids[int(d)]}\t{words[int(w)]}\t{int(r)}\t{int(c)}\n")


def _read_labels_tsv(path):
    doc_ids, words = {}, {}
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            doc_id, word, r, c = line.rstrip("\n").split("\t")
            if int(r) < 0:
                raise ValueError(f"{path} line {lineno}: topic {r} is negative")
            d = doc_ids.setdefault(doc_id, len(doc_ids))
            w = words.setdefault(word, len(words))
            rows.append((d, w, int(r), int(c)))
    if not rows:
        raise ValueError(f"{path} holds no labels")
    d, w, r, c = (np.asarray(col, dtype=np.int64) for col in zip(*rows))
    labels = LabeledCounts(len(doc_ids), len(words), int(r.max()) + 1, d, w, r, c)
    return labels, list(doc_ids), list(words)


# --- subcommands -------------------------------------------------------------


def cmd_ingest(args):
    corpus = read_jsonl(args.input, min_count=args.min_count)
    _write_corpus_dir(corpus, args.out)
    write_manifest(args.out, "ingest", vars(args), [args.input])
    print(f"ingested D={corpus.n_docs} V={corpus.n_words} M={corpus.total_tokens}")
    return 0


def cmd_synth(args):
    if args.p_w == "uniform":
        p_w = np.full(args.V, 1.0 / args.V)
    elif args.p_w == "zipf":
        p_w = double_power_law_base(args.V)
    else:
        items = []
        with open(args.p_w, "r", encoding="utf-8") as fh:
            for line in fh:
                _, prob = line.rstrip("\n").split("\t")
                items.append(float(prob))
        p_w = np.asarray(items)
        args.V = len(p_w)
    p_r = harmonic_base(args.K) if args.p_r == "harmonic" else np.full(args.K, 1.0 / args.K)
    hyper = make_hyper(args.alpha, args.beta, p_r, p_w)
    sample = sample_corpus(args.K, args.D, args.V, args.m, hyper, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    doc_ids = [f"d{i}" for i in range(args.D)]
    words = [f"w{i}" for i in range(args.V)]
    labels = sample.labels
    d, w, tot = labels.word_doc_counts()
    with open(os.path.join(args.out, "edges.tsv"), "w", encoding="utf-8") as fh:
        for dd, ww, cc in zip(d, w, tot):
            fh.write(f"{doc_ids[int(dd)]}\t{words[int(ww)]}\t{int(cc)}\n")
    n_word = np.zeros(args.V, dtype=np.int64)
    np.add.at(n_word, labels.w, labels.counts)
    with open(os.path.join(args.out, "vocab.tsv"), "w", encoding="utf-8") as fh:
        for wid in range(args.V):
            fh.write(f"{words[wid]}\t{wid}\t{int(n_word[wid])}\n")
    with open(os.path.join(args.out, "docs.tsv"), "w", encoding="utf-8") as fh:
        for dd, k in enumerate(labels.doc_lengths()):
            fh.write(f"{doc_ids[dd]}\t{int(k)}\n")
    _write_labels_tsv(os.path.join(args.out, "labels.tsv"), labels, doc_ids, words)
    params = {
        "K": args.K, "D": args.D, "V": args.V, "m": args.m,
        "alpha": args.alpha, "beta": args.beta, "p_r": args.p_r, "p_w_kind": str(args.p_w),
        "seed": args.seed,
        "alpha_row": hyper.alpha_row.tolist(),
        "beta_row": hyper.beta_row.tolist(),
    }
    with open(os.path.join(args.out, "params.json"), "w", encoding="utf-8") as fh:
        json.dump(params, fh, sort_keys=True)
        fh.write("\n")
    write_manifest(args.out, "synth", vars(args))
    print(f"synthesized D={args.D} V={args.V} M={labels.total_tokens} -> {args.out}")
    return 0


def cmd_score(args):
    labels, doc_ids, words = _read_labels_tsv(args.labels)
    if args.model == "lda":
        if args.hyper == "noninformative":
            hyper = noninformative_hyper(labels.n_topics, labels.n_words)
            tag = "noninformative"
        elif args.hyper == "true":
            params_path = os.path.join(os.path.dirname(args.labels), "params.json")
            with open(params_path, "r", encoding="utf-8") as fh:
                params = json.load(fh)
            full_beta = np.asarray(params["beta_row"])
            word_ids = [int(w[1:]) if w.startswith("w") else i
                        for i, w in enumerate(words)]
            hyper = DirichletHyper(np.asarray(params["alpha_row"]), full_beta[word_ids])
            tag = "true-prior"
        else:
            raise ValueError(f"unknown hyper {args.hyper!r}")
        score = lda_description_length(labels, hyper, model_id="lda", parametrization=tag)
    elif args.model == "hsbm":
        score = fixed_label_score(labels, args.variant)
    else:
        raise ValueError(f"unknown model {args.model!r}")
    payload = score.to_dict()
    payload["n_tokens"] = labels.total_tokens
    out = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out + "\n")
    print(out)
    return 0


def cmd_fit(args):
    if args.preset == "fig2-mode":
        if args.K is None:
            raise ValueError("fit --preset fig2-mode needs --K, the number of topics")
        args.doc_clustering, args.max_levels = "per-doc-group", 0
    config = InferenceConfig(
        mode=args.mode, doc_clustering=args.doc_clustering,
        overlap=args.overlap, n_word_groups=args.K, seed=args.seed,
        n_sweeps=args.sweeps, n_restarts=args.restarts,
        max_levels=args.max_levels,
    )
    corpus = _load_corpus_dir(args.corpus)
    result = fit(from_counts(corpus), config)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "state.json"), "w", encoding="utf-8") as fh:
        json.dump(state_to_dict(result.state, corpus.n_docs), fh, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(args.out, "hierarchy.json"), "w", encoding="utf-8") as fh:
        json.dump({"assignments": [a.tolist() for a in result.hierarchy.assignments]}, fh)
        fh.write("\n")
    with open(os.path.join(args.out, "sigma_trace.tsv"), "w", encoding="utf-8") as fh:
        for i, s in enumerate(result.sigma_trace):
            fh.write(f"{i}\t{s!r}\n")
    with open(os.path.join(args.out, "score.json"), "w", encoding="utf-8") as fh:
        json.dump(result.score.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_manifest(args.out, "fit", {**vars(args), "converged": result.converged,
                                     "acceptance": result.acceptance,
                                     "wall_time": result.wall_time},
                   [os.path.join(args.corpus, "edges.tsv")])
    print(f"fitted sigma={result.sigma!r} -> {args.out}")
    return 0


def load_model(model_dir):
    with open(os.path.join(model_dir, "state.json"), "r", encoding="utf-8") as fh:
        state = state_from_dict(json.load(fh))
    hpath = os.path.join(model_dir, "hierarchy.json")
    hierarchy = Hierarchy()
    if os.path.exists(hpath):
        with open(hpath, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        require_keys(payload, ("assignments",), "the hierarchy file")
        hierarchy = Hierarchy([whole_numbers(a, "the hierarchy file's 'assignments'")
                               for a in payload["assignments"]])
    _check_levels(hierarchy, state.n_groups)
    return state, hierarchy


def _check_levels(hierarchy: Hierarchy, n_groups: int) -> None:
    """Each level must map every group of the level below it onto ids
    0..n-1, each used."""
    below = n_groups
    for level, assignment in enumerate(hierarchy.assignments, start=2):
        if assignment.ndim != 1:
            raise IntegrityError(f"hierarchy level {level} is not a flat list of group ids")
        if assignment.size != below:
            raise IntegrityError(f"hierarchy level {level} assigns {assignment.size} groups, "
                                 f"but level {level - 1} has {below}")
        n = int(assignment.max(initial=-1)) + 1
        if not np.array_equal(np.unique(assignment), np.arange(n)):
            raise IntegrityError(f"hierarchy level {level} group ids are not exactly "
                                 f"0..{n - 1}, each used")
        below = n


def cmd_compare(args):
    rows = []
    if args.preset == "fig4":
        rows = four_model_curves(n_docs=args.D, seed=args.seed)
    elif args.preset == "sm-sweep":
        rows = hyper_sweep(n_docs=args.D, seed=args.seed)
    elif args.preset == "fig2":
        out = bimodal_recovery(n_docs=args.D, seed=args.seed)
        rows = [{
            "model": "hsbm-fitted", "sigma_nats": out["sigma_sbm"],
            "mode_count": out["mode_count"],
        }, {
            "model": "lda-noninformative", "sigma_nats": out["sigma_lda_noninf"],
        }]
    elif args.spec:
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        require_keys(spec, ("labels", "models"), "the spec file")
        labels, _, _ = _read_labels_tsv(spec["labels"])
        from .evaluation import compare_models
        table = compare_models(labels, spec["models"], baseline_id=spec.get("baseline"))
        rows = table.rows
    else:
        raise ValueError("compare needs --preset or --spec")
    if not rows:
        raise ValueError("nothing to compare")
    cols = sorted({k for row in rows for k in row})
    lines = ["\t".join(cols)]
    for row in rows:
        lines.append("\t".join(
            repr(row[c]) if isinstance(row.get(c), float) else str(row.get(c, ""))
            for c in cols
        ))
    text = "\n".join(lines) + "\n"
    if args.out:
        out_dir = os.path.dirname(args.out) or "."
        os.makedirs(out_dir, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        write_manifest(out_dir, "compare", vars(args),
                       [args.spec] if args.spec else [])
    print(text)
    return 0


def cmd_summarize(args):
    corpus = _load_corpus_dir(args.corpus)
    state, hierarchy = load_model(args.model)
    listing = group_summaries(corpus, state, hierarchy, level=args.level)
    out = json.dumps(listing, indent=2, sort_keys=True, default=str)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out + "\n")
    if args.simplex:
        from .evaluation import topic_mixtures, write_simplex_tsv

        word_groups, topic = np.unique(state.s, return_inverse=True)
        labels = LabeledCounts(
            corpus.n_docs, state.n_nodes - corpus.n_docs, len(word_groups),
            state.i, state.j - corpus.n_docs, topic, state.m,
        )
        if labels.n_topics != 3:
            raise ValueError(
                f"the simplex export needs exactly 3 word groups, "
                f"found {labels.n_topics}"
            )
        write_simplex_tsv(topic_mixtures(labels), args.simplex)
    print(out)
    return 0


def cmd_stats(args):
    corpus = _load_corpus_dir(args.corpus)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "rank_frequency.tsv"), "w", encoding="utf-8") as fh:
        for rank, word, p in rank_frequency(corpus):
            fh.write(f"{rank}\t{word}\t{p!r}\n")
    curve = heaps_curve(corpus, seed=args.seed)
    with open(os.path.join(args.out, "heaps.tsv"), "w", encoding="utf-8") as fh:
        fh.write("docs\twords\twords_plus_docs\tedges\n")
        for row in curve:
            fh.write("\t".join(str(x) for x in row) + "\n")
    u = dissemination_all(corpus)
    with open(os.path.join(args.out, "dissemination.tsv"), "w", encoding="utf-8") as fh:
        for wid in range(corpus.n_words):
            if not np.isnan(u[wid]):
                fh.write(f"{corpus.vocab[wid]}\t{u[wid]!r}\n")
    info = {"D": corpus.n_docs, "V": corpus.n_words, "M": corpus.total_tokens}
    if corpus.n_docs >= 2:
        try:
            info["heaps_exponent"] = fit_heaps_exponent(curve)
        except ValueError:
            pass
    write_manifest(args.out, "stats", vars(args),
                   [os.path.join(args.corpus, "edges.tsv")])
    print(json.dumps(info, sort_keys=True))
    return 0


def _tree_text(hierarchy: Hierarchy, n_base_groups: int, group_side) -> str:
    """Indented tree of the nested group hierarchy, leaves at the base level."""
    levels = [np.arange(n_base_groups)]
    for assignment in hierarchy.assignments:
        levels.append(np.asarray(assignment))
    lines = []

    def descend(level_idx, coarse_id, prefix):
        if level_idx == 0:
            side = "doc" if group_side[coarse_id] == 0 else "word"
            lines.append(f"{prefix}{side}-group {int(coarse_id)}")
            return
        members = np.nonzero(levels[level_idx] == coarse_id)[0]
        lines.append(f"{prefix}level-{level_idx} group {int(coarse_id)}")
        for mm in members:
            descend(level_idx - 1, int(mm), prefix + "  ")

    for g in np.unique(levels[-1]):
        descend(len(levels) - 1, int(g), "")
    return "\n".join(lines) + "\n"


def cmd_export(args):
    if not os.path.isdir(args.model):
        raise IntegrityError(f"model directory {args.model!r} does not exist")
    state, hierarchy = load_model(args.model)
    os.makedirs(args.out, exist_ok=True)
    n_docs = int(np.count_nonzero(state.side == 0))
    with open(os.path.join(args.out, "bundles.tsv"), "w", encoding="utf-8") as fh:
        for i, j, r, s, m in zip(state.i, state.j, state.r, state.s, state.m):
            fh.write(f"{int(i)}\t{int(j - n_docs)}\t{int(r)}\t{int(s)}\t{int(m)}\n")
    nested = {"n_groups": int(state.n_groups),
              "levels": [a.tolist() for a in hierarchy.assignments]}
    with open(os.path.join(args.out, "hierarchy.json"), "w", encoding="utf-8") as fh:
        json.dump(nested, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(args.out, "tree.txt"), "w", encoding="utf-8") as fh:
        fh.write(_tree_text(hierarchy, state.n_groups, state.group_side))
    write_manifest(args.out, "export", vars(args),
                   [os.path.join(args.model, "state.json")])
    score = joint_logp(state, hierarchy if hierarchy.assignments else None)
    print(json.dumps({"sigma_nats": score.sigma_nats}, sort_keys=True))
    return 0


# --- dispatch ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topicblocks",
        description="Topic modeling on word-document multigraphs with exact "
                    "description-length model selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="build a corpus from JSON lines")
    p.add_argument("--input", required=True)
    p.add_argument("--min-count", type=int, default=1, dest="min_count")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="draw an artificial labeled corpus")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--V", type=int, default=10000)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--p-r", default="uniform", dest="p_r",
                   choices=["uniform", "harmonic"])
    p.add_argument("--p-w", default="uniform", dest="p_w",
                   help="'uniform', 'zipf', or a TSV base-measure file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("score", help="description length of fixed labels")
    p.add_argument("--model", required=True, choices=["lda", "hsbm"])
    p.add_argument("--hyper", default="noninformative",
                   choices=["noninformative", "true"])
    p.add_argument("--variant", default="doc-clustering",
                   choices=["per-doc-group", "doc-clustering"])
    p.add_argument("--labels", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("fit", help="posterior maximization over labeled states")
    p.add_argument("--corpus", required=True)
    p.add_argument("--mode", default="greedy", choices=["greedy", "anneal", "mcmc"])
    p.add_argument("--doc-clustering", default="clustered", dest="doc_clustering",
                   choices=["per-doc-group", "clustered"])
    p.add_argument("--overlap", type=int, default=None)
    p.add_argument("--K", type=int, default=None,
                   help="word-group cap in per-doc-group mode (default 2)")
    p.add_argument("--restarts", type=int, default=10,
                   help="independent restarts (a greedy clustered fit runs one)")
    p.add_argument("--sweeps", type=int, default=200,
                   help="cap per descent: node-move polish sweeps (clustered), "
                        "descent rounds (per-doc-group); anneal and mcmc fits "
                        "then run min(sweeps, 20) tempered sweeps or rounds "
                        "and descend again")
    p.add_argument("--max-levels", type=int, default=5, dest="max_levels")
    p.add_argument("--preset", default=None, choices=["fig2-mode"],
                   help="fig2-mode: --doc-clustering per-doc-group "
                        "--max-levels 0, with --K required")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("compare", help="model comparison tables")
    p.add_argument("--preset", choices=["fig4", "sm-sweep", "fig2"])
    p.add_argument("--spec", help="JSON file with labels path and model specs")
    p.add_argument("--D", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("summarize", help="per-group listings of a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--simplex", help="write a 2-simplex mixture histogram TSV "
                                     "(requires exactly 3 word groups)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("stats", help="corpus statistics (rank-frequency, growth)")
    p.add_argument("--corpus", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("export", help="hierarchy tree and bundle tables")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    error_json = os.environ.get("TOPICBLOCKS_ERROR_JSON")
    try:
        return args.func(args)
    except IntegrityError as exc:
        if error_json:
            print(json.dumps({"error": "integrity", "message": str(exc)}),
                  file=sys.stderr)
        else:
            print(f"integrity error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except (ValueError, OSError) as exc:
        if error_json:
            print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
                  file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
