import copy
import json

import numpy as np

import workloads
from topicblocks.presets import bimodal_recovery


def test_bimodal_steps_match_the_preset(tmp_path):
    size = workloads.BIMODAL
    inputs = workloads.bimodal_setup({"corpus_seed": 0, "fit_seed": 0}, str(tmp_path))
    out = workloads.bimodal_run(inputs)
    ref = bimodal_recovery(
        n_docs=size["n_docs"], doc_length=size["doc_length"],
        vocab_size=size["vocab_size"], n_topics=size["n_topics"],
        word_pseudocount=size["word_pseudocount"], seed=0,
        fit_restarts=size["fit_restarts"], gibbs_sweeps=size["gibbs_sweeps"],
    )
    for key in ("mode_count", "sigma_anchored", "sigma_sbm", "sigma_lda_noninf",
                "trace"):
        assert out[key] == ref[key], key
    for key in ("labels_dense", "theta_hat"):
        assert np.array_equal(out[key], ref[key]), key
    problems, sigma = workloads.bimodal_check(inputs, out)
    assert problems == [] and sigma == ref["sigma_sbm"]


def test_fig4_check_uses_the_reference(tmp_path):
    inputs = workloads.fig4_setup({"sample_seed": 3}, str(tmp_path))
    out = workloads.fig4_run(inputs)
    reference = workloads.load_fig4_reference()
    problems, sigma = workloads.fig4_check(inputs, out, reference)
    assert problems == [] and sigma > 0
    assert [len(s) for s in out["scores"]] == [4, 4, 4, 4]

    tampered = copy.deepcopy(reference)
    tampered["per_token"]["3"]["128"]["sbm_clust"] += 1e-6
    problems, _ = workloads.fig4_check(inputs, out, tampered)
    assert len(problems) == 1 and "m=128 sbm_clust" in problems[0]


def test_held_out_seed_has_inputs_of_its_own():
    reference = workloads.load_fig4_reference()
    for name, (pool, *_rest) in workloads.WORKLOADS.items():
        def inputs(seed):
            return {json.dumps({k: v for k, v in spec.items() if k != "fit_seed"},
                               sort_keys=True) for spec in pool(seed)}
        held_out = inputs(workloads.HELD_OUT_SEED)
        for seed in range(200):
            assert not held_out & inputs(seed), (name, seed)
    for spec in workloads.fig4_pool(workloads.HELD_OUT_SEED):
        assert str(spec["sample_seed"]) in reference["per_token"]
