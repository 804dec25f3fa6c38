"""Committed golden outputs: the engine must reproduce them bit for bit.

``data/golden_trace.csv`` is the criterion-9 run (300 rounds, 16 bits,
seed 7) and ``data/golden_ensemble.npz`` holds the raw per-replica arrays of
a small Monte Carlo ensemble. A change that moves output bits on purpose
re-pins these files and says so.
"""
from pathlib import Path

import numpy as np

from qdgm.algorithm import collect_ensemble
from qdgm.cli import main as cli_main
from qdgm.graph import lazy_metropolis, path_topology
from qdgm.objective import well_conditioned_instance

DATA = Path(__file__).parent / "data"


def test_criterion_9_trace_matches_golden_bytes(tmp_path):
    args = ["run", "--iterations", "300", "--bits", "16", "--seed", "7",
            "--output-dir", str(tmp_path)]
    assert cli_main(args) == 0
    golden = (DATA / "golden_trace.csv").read_bytes()
    assert (tmp_path / "trace.csv").read_bytes() == golden


def test_ensemble_matches_golden_arrays():
    objective = well_conditioned_instance(4, 2)
    ens = collect_ensemble(objective, lazy_metropolis(path_topology(4)),
                           iterations=50, seed=7, bits=6, replicas=20)
    golden = np.load(DATA / "golden_ensemble.npz")
    for name in ("consensus_sq", "r_sq", "f_worst"):
        assert np.array_equal(getattr(ens, name), golden[name]), name
