#!/usr/bin/env python3
"""Regenerate every results file from one table of CLI runs.

    PYTHONPATH=src python3 scripts/run_experiments.py [NAME ...]

Each run writes ``results/<name>.json`` (its config) and
``results/<name>.csv`` (plus ``<name>.csv.json`` where the experiment
has a sidecar).  With names given, only those runs are made.

* ``fidelity_sweep_long`` extends the h = 1 series to T = 1e6, where the
  toy2 ground overlap finally clears 0.9.
* ``spectrum_toy1`` sits slightly off its degeneracy so all four bands
  stay resolvable; toy2 is scanned exactly at the crossing it is built
  around.
* The linear Volterra control uses the ladder 400..6400: its boundary
  term only settles onto the 1/td envelope from a few hundred steps up.
"""

import json
import pathlib
import sys

from adiawalk.cli import main

RESULTS = pathlib.Path("results")

# (output name, experiment, parameter overrides, seed)
RUNS = (
    ("fidelity_sweep", "fidelity-sweep", {}, 0),
    ("fidelity_sweep_long", "fidelity-sweep", {"t_list": [1e6], "h_list": [1.0]}, 0),
    ("gap_table_toy1", "gap-table", {"model": "toy1"}, 0),
    ("gap_table_toy2", "gap-table", {"model": "toy2"}, 0),
    ("grover_scaling_n", "grover-scaling",
     {"n_list": [256, 4096, 65536, 1048576], "m_list": [1]}, 0),
    ("grover_scaling_m", "grover-scaling", {"n_list": [4096], "m_list": [1, 2, 4, 8]}, 0),
    ("qaoa_angles", "qaoa-export", {"n": 1024, "m": 1, "p": 1.0, "t": 64}, 0),
    ("spectrum_toy1", "spectrum-scan", {"model": "toy1", "eps": 0.05, "grid": 800}, 0),
    ("spectrum_toy2", "spectrum-scan", {"model": "toy2", "eps": 0.0, "grid": 800}, 0),
    ("step_size_grover", "step-size-report", {"source": "grover", "n": 1024, "m": 1}, 7),
    ("step_size_toy1", "step-size-report", {"source": "toy1", "eps": 0.05}, 7),
    ("step_size_random", "step-size-report", {"source": "random", "dim": 8}, 7),
    ("volterra_glue", "volterra", {"schedule": "glue", "td_list": [100, 200, 400, 800, 1600]}, 0),
    ("volterra_linear", "volterra",
     {"schedule": "linear", "td_list": [400, 800, 1600, 3200, 6400]}, 0),
)


def run(names=()) -> int:
    unknown = set(names) - {name for name, *_ in RUNS}
    if unknown:
        print(f"unknown runs: {sorted(unknown)}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    for name, experiment, overrides, seed in RUNS:
        if names and name not in names:
            continue
        cfg = RESULTS / f"{name}.json"
        cfg.write_text(json.dumps({
            "experiment": experiment,
            "parameters": overrides,
            "seed": seed,
            "output": str(RESULTS / f"{name}.csv"),
        }, indent=2) + "\n")
        code = main([experiment, "--config", str(cfg)])
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
