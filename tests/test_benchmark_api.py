"""The package API that the benchmark calls keeps working: each workload
that BENCHMARK.json declares runs the setup, pipeline and check of
`perfbench/workloads.py` on the first input of run seed 1, and the check
finds no problem.  fig4-score's check also passes on every sample seed of
its universe, so a change that moves any recorded per-token value by more
than 1e-9 fails here.  No timed pipeline imports a module its setup did
not."""
import importlib.util
import json
import os
import subprocess
import sys

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


@pytest.fixture(scope="module")
def workloads():
    return load_workloads()


@pytest.mark.parametrize("sample_seed", range(load_workloads().FIG4_UNIVERSE))
def test_fig4_matches_reference_on_every_universe_seed(workloads, sample_seed, tmp_path):
    inputs = workloads.fig4_setup({"sample_seed": sample_seed}, str(tmp_path))
    problems, _ = workloads.fig4_check(inputs, workloads.fig4_run(inputs))
    assert problems == []


# setup, then the timed pipeline, in a fresh process: prints the modules the pipeline loaded
PIPELINE_IMPORTS = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_workloads", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
pool, setup, run, check = module.WORKLOADS[sys.argv[2]]
inputs = setup(pool(1)[0], sys.argv[3])
loaded = set(sys.modules)
run(inputs)
print(json.dumps(sorted(set(sys.modules) - loaded)))
"""


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_pipeline_loads_no_module(name, tmp_path):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                      os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", PIPELINE_IMPORTS, os.path.join(ROOT, "perfbench", "workloads.py"),
         name, str(tmp_path)], env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []
