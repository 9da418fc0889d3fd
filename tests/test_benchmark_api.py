"""The package API that the benchmark calls keeps working: each workload
that BENCHMARK.json declares runs the setup, pipeline and check of
`perfbench/workloads.py` on the first input of run seed 1, and the check
finds no problem."""
import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    WORKLOAD_NAMES = [w["name"] for w in json.load(fh)["workloads"]]


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_runs_and_checks_clean(name, tmp_path):
    pool, setup, run, check = load_workloads().WORKLOADS[name]
    inputs = setup(pool(1)[0], str(tmp_path))
    problems, sigma = check(inputs, run(inputs))
    assert problems == [] and sigma > 0
