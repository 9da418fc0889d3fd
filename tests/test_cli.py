import json
import os

import numpy as np
import pytest

from topicblocks.cli import load_model, main
from topicblocks.microcanonical import joint_logp


@pytest.fixture()
def docs_jsonl(tmp_path):
    p = tmp_path / "docs.jsonl"
    lines = [
        '{"id": "alpha", "text": "Stars shine bright; stars burn."}',
        '{"id": "beta", "text": "Cells divide and cells grow."}',
        '{"id": "gamma", "text": "Stars and cells, light and life."}',
    ]
    p.write_text("\n".join(lines) + "\n")
    return p


def run(argv):
    return main([str(a) for a in argv])


class TestDispatch:
    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["ingest", "--bogus", "x"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2

    def test_integrity_failure_exits_three(self, tmp_path):
        assert run(["export", "--model", tmp_path / "missing", "--out",
                    tmp_path / "out"]) == 3

    def test_error_json_on_demand(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TOPICBLOCKS_ERROR_JSON", "1")
        code = run(["export", "--model", tmp_path / "missing", "--out",
                    tmp_path / "o"])
        assert code == 3
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "integrity"

    def test_missing_corpus_exits_two(self, tmp_path, capsys):
        assert run(["fit", "--corpus", tmp_path / "missing", "--out",
                    tmp_path / "o"]) == 2
        assert "missing" in capsys.readouterr().err

    def test_non_integer_count_exits_two(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "edges.tsv").write_text("doc0\twa\t3\ndoc1\twb\tmany\n")
        assert run(["stats", "--corpus", corpus, "--out", tmp_path / "o"]) == 2
        assert "many" in capsys.readouterr().err

    def test_fig2_preset_without_k_exits_two(self, tmp_path, capsys):
        sample = tmp_path / "sample"
        run(["synth", "--K", 2, "--D", 4, "--V", 6, "--m", 5, "--out", sample])
        assert run(["fit", "--preset", "fig2-mode", "--corpus", sample,
                    "--out", tmp_path / "o"]) == 2
        assert "--K" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--doc-clustering", "per-doc-group", "--K", 0],
        ["--doc-clustering", "per-doc-group", "--K", -1],
        ["--preset", "fig2-mode", "--K", 0],
    ])
    def test_fit_with_word_group_count_below_one_exits_two(self, tmp_path, capsys, argv):
        sample = tmp_path / "sample"
        run(["synth", "--K", 2, "--D", 6, "--V", 8, "--m", 5, "--out", sample])
        capsys.readouterr()
        assert run(["fit", "--corpus", sample, *argv, "--out", tmp_path / "o"]) == 2
        assert "word-group count must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_fit_with_overlap_cap_below_one_exits_two(self, tmp_path, capsys):
        sample = tmp_path / "sample"
        run(["synth", "--K", 2, "--D", 4, "--V", 6, "--m", 5, "--out", sample])
        assert run(["fit", "--corpus", sample, "--overlap", 0,
                    "--out", tmp_path / "o"]) == 2
        assert "overlap cap must be at least 1" in capsys.readouterr().err

    def test_export_of_mixed_side_state_exits_three(self, tmp_path, capsys):
        model = tmp_path / "model"
        model.mkdir()
        # the word half-edge carries group 0, a document group
        (model / "state.json").write_text(json.dumps({
            "n_docs": 1, "n_words": 1, "n_groups": 2, "group_side": [0, 1],
            "bundles": [[0, 0, 0, 0, 1]],
        }))
        assert run(["export", "--model", model, "--out", tmp_path / "o"]) == 3
        assert "side" in capsys.readouterr().err


@pytest.fixture(scope="module")
def two_group_model(tmp_path_factory):
    """A fitted model with one document group and one word group, and its
    corpus."""
    root = tmp_path_factory.mktemp("two_group")
    run(["synth", "--K", 2, "--D", 4, "--V", 6, "--m", 5, "--out", root / "corpus"])
    run(["fit", "--corpus", root / "corpus", "--restarts", 2, "--sweeps", 10,
         "--out", root / "model"])
    state, hierarchy = load_model(root / "model")
    assert state.n_groups == 2 and not hierarchy.assignments
    return root


def drop_key(payload, key):
    return {k: v for k, v in payload.items() if k != key}


def edit_bundle(payload, column, value):
    bundles = [list(b) for b in payload["bundles"]]
    bundles[0][column] = value
    return {**payload, "bundles": bundles}


class TestMalformedFiles:
    @pytest.mark.parametrize("name, edit, command, code, message", [
        ("hierarchy.json", lambda p: {"assignments": [[0] * 9]}, "export", 3,
         "hierarchy level 2 assigns 9 groups, but level 1 has 2"),
        ("hierarchy.json", lambda p: {"assignments": [[0, 5]]}, "export", 3,
         "hierarchy level 2 group ids are not exactly 0..5, each used"),
        ("hierarchy.json", lambda p: {"assignments": [[[0], [0]]]}, "export", 3,
         "hierarchy level 2 is not a flat list of group ids"),
        ("hierarchy.json", lambda p: [[0, 1]], "summarize", 2,
         "the hierarchy file must hold a JSON object"),
        ("state.json", lambda p: drop_key(p, "n_words"), "summarize", 2,
         "the state file lacks the key 'n_words'"),
        ("state.json", lambda p: drop_key(p, "n_words"), "export", 2,
         "the state file lacks the key 'n_words'"),
        ("spec.json", lambda p: {"models": []}, "compare", 2,
         "the spec file lacks the key 'labels'"),
        ("state.json", lambda p: edit_bundle(p, 4, 3.7), "export", 2,
         "the state file's 'bundles' must be whole numbers"),
        ("state.json", lambda p: {**p, "n_groups": 2.5}, "summarize", 2,
         "the state file's 'n_groups' must be one whole number"),
        ("state.json", lambda p: {**p, "n_docs": [4]}, "export", 2,
         "the state file's 'n_docs' must be one whole number"),
        ("state.json", lambda p: edit_bundle(p, 0, 9), "export", 3,
         "bundle 0 has document 9, outside 0..3"),
        ("state.json", lambda p: edit_bundle(p, 2, 5), "export", 3,
         "bundle 0 has group 5, outside 0..1"),
        ("state.json", lambda p: {**p, "group_side": [0, 2]}, "export", 3,
         "group 1 has side 2, outside 0..1"),
        ("hierarchy.json", lambda p: {"assignments": [[0.9, 0.2]]}, "export", 2,
         "the hierarchy file's 'assignments' must be whole numbers"),
        ("edges.tsv", lambda p: "d0\tw0\t-3\n", "fit", 2,
         "{path} line 1: count -3 is below 1"),
        ("labels.tsv", lambda p: "", "score", 2, "{path} holds no labels"),
        ("labels.tsv", lambda p: "d0\tw0\t0\t2\nd0\tw1\t-1\t1\n", "score", 2,
         "{path} line 2: topic -1 is negative"),
    ])
    def test_refused_with_one_line(self, two_group_model, tmp_path, capsys,
                                   name, edit, command, code, message):
        model, corpus = tmp_path / "model", tmp_path / "corpus"
        model.mkdir()
        corpus.mkdir()
        for stored in ("state.json", "hierarchy.json"):
            (model / stored).write_text((two_group_model / "model" / stored).read_text())
        path = {"spec.json": tmp_path / "spec.json", "labels.tsv": tmp_path / "labels.tsv",
                "edges.tsv": corpus / "edges.tsv"}.get(name, model / name)
        payload = json.loads(path.read_text()) if path.exists() else {}
        content = edit(payload)
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        argv = {"export": ["export", "--model", model, "--out", tmp_path / "out"],
                "summarize": ["summarize", "--model", model,
                              "--corpus", two_group_model / "corpus"],
                "compare": ["compare", "--spec", path],
                "fit": ["fit", "--corpus", corpus, "--out", tmp_path / "out"],
                "score": ["score", "--model", "lda", "--labels", path]}[command]
        capsys.readouterr()
        assert run(argv) == code
        err = capsys.readouterr().err
        assert err.strip() == (f"{'integrity error' if code == 3 else 'error'}: "
                               f"{message.format(path=path)}")


class TestIngestStats:
    def test_ingest_writes_corpus_and_manifest(self, docs_jsonl, tmp_path):
        out = tmp_path / "corpus"
        assert run(["ingest", "--input", docs_jsonl, "--out", out]) == 0
        for name in ("edges.tsv", "vocab.tsv", "docs.tsv", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "ingest"
        assert str(docs_jsonl) in manifest["inputs"]

    def test_min_count(self, docs_jsonl, tmp_path):
        out = tmp_path / "c2"
        assert run(["ingest", "--input", docs_jsonl, "--min-count", 2,
                    "--out", out]) == 0
        vocab = (out / "vocab.tsv").read_text().strip().splitlines()
        words = {line.split("\t")[0] for line in vocab}
        assert "stars" in words and "bright" not in words

    def test_stats_outputs(self, docs_jsonl, tmp_path):
        corpus = tmp_path / "corpus"
        run(["ingest", "--input", docs_jsonl, "--out", corpus])
        out = tmp_path / "stats"
        assert run(["stats", "--corpus", corpus, "--out", out]) == 0
        for name in ("rank_frequency.tsv", "heaps.tsv", "dissemination.tsv"):
            assert (out / name).exists()
        probs = [float(line.split("\t")[2])
                 for line in (out / "rank_frequency.tsv").read_text().splitlines()]
        assert abs(sum(probs) - 1.0) < 1e-9


class TestSynthScore:
    def test_synth_then_scores(self, tmp_path):
        sample = tmp_path / "sample"
        assert run(["synth", "--K", 2, "--D", 12, "--V", 30, "--m", 15,
                    "--seed", 3, "--p-w", "zipf", "--out", sample]) == 0
        assert run(["score", "--model", "lda", "--hyper", "noninformative",
                    "--labels", sample / "labels.tsv",
                    "--out", tmp_path / "s1.json"]) == 0
        assert run(["score", "--model", "lda", "--hyper", "true",
                    "--labels", sample / "labels.tsv",
                    "--out", tmp_path / "s2.json"]) == 0
        assert run(["score", "--model", "hsbm", "--variant", "doc-clustering",
                    "--labels", sample / "labels.tsv",
                    "--out", tmp_path / "s3.json"]) == 0
        sigmas = [json.loads((tmp_path / f"s{i}.json").read_text())["sigma_nats"]
                  for i in (1, 2, 3)]
        assert all(np.isfinite(s) for s in sigmas)
        assert len(set(sigmas)) == 3

    def test_synth_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run(["synth", "--K", 2, "--D", 10, "--V", 20, "--m", 12,
                 "--seed", 9, "--out", out])
        assert (a / "labels.tsv").read_text() == (b / "labels.tsv").read_text()
        assert (a / "edges.tsv").read_text() == (b / "edges.tsv").read_text()


class TestFitPipeline:
    def _corpus(self, tmp_path):
        # two planted blocks written directly as an edge list
        corpus = tmp_path / "corpus"
        os.makedirs(corpus, exist_ok=True)
        lines = []
        for d in range(4):
            for w in range(4):
                lines.append(f"doc{d}\tw{chr(97 + w)}\t3")
        for d in range(4, 8):
            for w in range(4, 8):
                lines.append(f"doc{d}\tw{chr(97 + w)}\t3")
        (corpus / "edges.tsv").write_text("\n".join(lines) + "\n")
        return corpus

    def test_fit_export_roundtrip(self, tmp_path):
        corpus = self._corpus(tmp_path)
        model = tmp_path / "model"
        assert run(["fit", "--corpus", corpus, "--mode", "greedy",
                    "--restarts", 2, "--sweeps", 15, "--seed", 4,
                    "--out", model]) == 0
        score = json.loads((model / "score.json").read_text())
        state, hierarchy = load_model(model)
        rescored = joint_logp(state, hierarchy if hierarchy.assignments else None)
        assert rescored.sigma_nats == pytest.approx(score["sigma_nats"], abs=1e-9)
        export = tmp_path / "export"
        assert run(["export", "--model", model, "--out", export]) == 0
        assert (export / "tree.txt").exists()
        assert (export / "hierarchy.json").exists()
        assert (export / "bundles.tsv").exists()

    def test_fit_rerun_bit_identical_sigma(self, tmp_path):
        corpus = self._corpus(tmp_path)
        sig = []
        for name in ("m1", "m2"):
            model = tmp_path / name
            run(["fit", "--corpus", corpus, "--mode", "greedy", "--restarts", 2,
                 "--sweeps", 15, "--seed", 4, "--out", model])
            sig.append(json.loads((model / "score.json").read_text())["sigma_nats"])
        assert sig[0] == sig[1]

    def test_summarize(self, tmp_path):
        corpus = self._corpus(tmp_path)
        model = tmp_path / "model"
        run(["fit", "--corpus", corpus, "--mode", "greedy", "--restarts", 2,
             "--sweeps", 15, "--seed", 4, "--out", model])
        assert run(["summarize", "--model", model, "--corpus", corpus,
                    "--level", 1, "--out", tmp_path / "sum.json"]) == 0
        listing = json.loads((tmp_path / "sum.json").read_text())
        assert any("top_words" in v for v in listing.values())

    def test_overlap_one_fit(self, tmp_path):
        corpus = tmp_path / "corpus"
        run(["synth", "--K", 2, "--D", 20, "--V", 30, "--m", 20, "--alpha", 0.05,
             "--beta", 0.05, "--p-w", "uniform", "--seed", 21, "--out", corpus])
        model = tmp_path / "model"
        assert run(["fit", "--corpus", corpus, "--overlap", 1, "--restarts", 2,
                    "--sweeps", 10, "--out", model]) == 0
        state, hierarchy = load_model(model)
        score = json.loads((model / "score.json").read_text())
        rescored = joint_logp(state, hierarchy if hierarchy.assignments else None,
                              max_overlap=1)
        assert rescored.sigma_nats == pytest.approx(score["sigma_nats"], abs=1e-9)

    @pytest.mark.parametrize("mode", ["anneal", "mcmc"])
    def test_tempered_clustered_fit(self, tmp_path, mode):
        corpus = tmp_path / "corpus"
        run(["synth", "--K", 2, "--D", 20, "--V", 30, "--m", 20, "--alpha", 0.05,
             "--beta", 0.05, "--p-w", "uniform", "--seed", 21, "--out", corpus])
        for doc_clustering, extra in (("clustered", []), ("per-doc-group", ["--K", 2])):
            model = tmp_path / doc_clustering
            assert run(["fit", "--corpus", corpus, "--mode", mode, "--restarts", 2,
                        "--sweeps", 10, "--doc-clustering", doc_clustering, *extra,
                        "--out", model]) == 0
            state, hierarchy = load_model(model)
            if doc_clustering == "clustered":
                groups = {}
                for node, g in zip(np.concatenate([state.i, state.j]),
                                   np.concatenate([state.r, state.s])):
                    groups.setdefault(int(node), set()).add(int(g))
                assert all(len(gs) == 1 for gs in groups.values())
            else:
                # documents stay in their own groups
                assert np.array_equal(state.r, np.flatnonzero(state.group_side == 0)[state.i])
            score = json.loads((model / "score.json").read_text())
            rescored = joint_logp(state, hierarchy if hierarchy.assignments else None)
            assert rescored.sigma_nats == pytest.approx(score["sigma_nats"], abs=1e-9)

    def test_corpus_without_tokens(self, tmp_path):
        # every word occurs once, so --min-count 5 leaves two empty documents
        docs = tmp_path / "docs.jsonl"
        docs.write_text('{"id": "a", "text": "red fox"}\n{"id": "b", "text": "blue owl"}\n')
        corpus = tmp_path / "corpus"
        assert run(["ingest", "--input", docs, "--min-count", 5, "--out", corpus]) == 0
        for name, argv in (("clustered", []),
                           ("per-doc-group", ["--doc-clustering", "per-doc-group"]),
                           ("fig2-mode", ["--preset", "fig2-mode", "--K", 2])):
            model = tmp_path / name
            assert run(["fit", "--corpus", corpus, *argv, "--restarts", 2,
                        "--out", model]) == 0
            assert json.loads((model / "score.json").read_text())["sigma_nats"] == 0.0

    def test_fig2_preset(self, tmp_path):
        sample = tmp_path / "sample"
        run(["synth", "--K", 2, "--D", 10, "--V", 15, "--m", 20, "--seed", 1,
             "--out", sample])
        model = tmp_path / "anchored"
        assert run(["fit", "--preset", "fig2-mode", "--K", 2, "--corpus", sample,
                    "--restarts", 2, "--seed", 2, "--out", model]) == 0
        state, _ = load_model(model)
        # documents stay in their own groups
        assert np.array_equal(np.sort(np.unique(state.r)), np.unique(state.i))

    def test_fig2_preset_is_a_per_doc_group_fit_without_levels(self, tmp_path):
        sample = tmp_path / "sample"
        run(["synth", "--K", 3, "--D", 12, "--V", 20, "--m", 15, "--seed", 3,
             "--out", sample])
        common = ["--K", 3, "--corpus", sample, "--restarts", 2, "--seed", 1]
        preset, plain = tmp_path / "preset", tmp_path / "plain"
        assert run(["fit", "--preset", "fig2-mode", *common, "--out", preset]) == 0
        assert run(["fit", "--doc-clustering", "per-doc-group", "--max-levels", 0,
                    *common, "--out", plain]) == 0
        assert sorted(os.listdir(preset)) == sorted(os.listdir(plain))
        for name in os.listdir(preset):
            if name != "manifest.json":
                assert (preset / name).read_text() == (plain / name).read_text(), name
        configs = [json.loads((d / "manifest.json").read_text())["config"]
                   for d in (preset, plain)]
        for config in configs:
            del config["preset"], config["out"], config["wall_time"]
        assert configs[0] == configs[1]
        state, hierarchy = load_model(preset)
        assert hierarchy.assignments == []
        score = json.loads((preset / "score.json").read_text())
        assert joint_logp(state).sigma_nats == pytest.approx(score["sigma_nats"], abs=1e-9)

    def test_fig2_preset_past_the_dense_cell_count(self, tmp_path):
        # 10**4 + 1 documents with one distinct word each: D * V > 10**8 cells
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        n = 10**4 + 1
        (corpus / "edges.tsv").write_text("".join(f"d{i}\tw{i}\t1\n" for i in range(n)))
        model = tmp_path / "model"
        assert run(["fit", "--preset", "fig2-mode", "--K", 2, "--restarts", 1,
                    "--corpus", corpus, "--out", model]) == 0
        state, _ = load_model(model)
        assert state.n_nodes == 2 * n and state.n_edges == n


class TestComparePreset:
    def test_fig4_desk_scale(self, tmp_path):
        out = tmp_path / "table.tsv"
        assert run(["compare", "--preset", "fig4", "--D", 60, "--seed", 0,
                    "--out", out]) == 0
        header, *rows = out.read_text().strip().splitlines()
        assert "sbm_clust" in header
        assert len(rows) == 4  # one per text length

    def test_spec_file(self, tmp_path):
        sample = tmp_path / "sample"
        run(["synth", "--K", 2, "--D", 10, "--V", 20, "--m", 12, "--seed", 5,
             "--out", sample])
        spec = tmp_path / "specs.json"
        spec.write_text(json.dumps({
            "labels": str(sample / "labels.tsv"),
            "models": [
                {"model": "lda", "hyper": "noninformative", "id": "lda"},
                {"model": "hsbm", "variant": "doc-clustering", "id": "hsbm"},
            ],
            "baseline": "lda",
        }))
        out = tmp_path / "t.tsv"
        assert run(["compare", "--spec", spec, "--out", out]) == 0
        assert "delta_sigma" in out.read_text()
