"""Record fig4-score's reference per-token description lengths.

    python3 perfbench/record_reference.py

Scores the four corpora of every sample seed in the fig4-score universe and
of the held-out sample seeds, and writes the per-token values of the four models to reference/fig4.json.  The
benchmark checks every fig4-score operation against this file, so rerun it
only when a change is meant to alter the scores, and say so.
"""
from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402


def main() -> int:
    per_token = {}
    for seed in (*range(workloads.FIG4_UNIVERSE), *workloads.FIG4_HELD_OUT):
        out = workloads.fig4_run(workloads.fig4_setup({"sample_seed": seed}, HERE))
        per_token[str(seed)] = {
            str(m): {model: row[model] for model in workloads.FIG4_MODELS}
            for m, row in zip(workloads.FIG4["m_values"], out["rows"])
        }
        print(f"sample seed {seed}: done", flush=True)
    os.makedirs(os.path.dirname(workloads.FIG4_REFERENCE), exist_ok=True)
    with open(workloads.FIG4_REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"workload": "fig4-score", "params": workloads.FIG4,
                   "per_token": per_token}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
