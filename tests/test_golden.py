"""Committed golden outputs: the engine must reproduce them bit for bit.

``data/golden_trace.csv`` is the criterion-9 run (300 rounds, 16 bits,
seed 7) and ``data/golden_baseline_trace.csv`` the exact twin of that run.
``data/golden_partial_trace.csv`` is the trace of seed 20, which stops at
round 4 on a gradient-bound violation and ends with the error line.
``data/golden_ensemble.npz`` holds the raw per-replica arrays of a small
Monte Carlo ensemble. ``LONG_RUN`` pins, by sha256, both traces of a
3000-round run: 1,001 rows recorded every round, then 23 on the geometric
record grid. ``LARGE_SEED_TRACE`` pins the trace of a 50-round run whose
seed needs more than one 32-bit word, so the per-replica keying of seeds of
2^32 and above stays fixed. ``data/golden_verify.json`` is the stdout of the
default ``qdgm verify`` and ``data/golden_bound.csv`` that of
``qdgm bound --T 10,100,1000,5000``, so the Monte Carlo checks and the decay
envelope keep their constants to the last bit. A change that moves output bits on
purpose re-pins these files and digests and says so. A golden file that
differs fails naming each value that moved, a CSV column or a JSON leaf, with
its max relative change.
"""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from qdgm.algorithm import collect_ensemble
from qdgm.cli import main as cli_main
from qdgm.graph import lazy_metropolis, path_topology
from qdgm.objective import well_conditioned_instance

DATA = Path(__file__).parent / "data"
LONG_RUN = {
    "trace.csv": "37ebf2fbcee1daa93bc54abb63819d1c6854c2943e0f1da118b0ef658c6e7207",
    "baseline_trace.csv": "cb7cc3df26ee0002ffb42d890f97b6bdb31e3b137f8cac0aa43e9af6582f53c7",
}
LARGE_SEED_TRACE = "223a962518fe1329eaa5536926ec19d1ac45de303f61d39cde4a6052f09e5826"


def _values(data: bytes) -> dict:
    """A golden output's values by name: a CSV's columns, or a JSON document's numeric
    leaves by their path."""
    text = data.decode()
    if text.startswith("{"):
        leaves = {}

        def walk(node, path):
            items = node.items() if isinstance(node, dict) else (
                enumerate(node) if isinstance(node, list) else ())
            for key, value in items:
                walk(value, f"{path}/{key}")
            if isinstance(node, (int, float)):
                leaves[path] = np.array([float(node)])
        walk(json.loads(text), "")
        return leaves
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    table = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    return dict(zip(lines[0].split(","), table.T))


def _assert_same_bytes(written: bytes, golden: str) -> None:
    """Fail unless ``written`` equals the golden file's bytes, naming what moved."""
    expected = (DATA / golden).read_bytes()
    if written == expected:
        return
    try:
        new, old = _values(written), _values(expected)
    except ValueError as exc:
        pytest.fail(f"{golden} differs and the output does not parse like it: {exc}")
    moved = []
    for name in {**old, **new}:
        a, b = new.get(name), old.get(name)
        if a is None or b is None or a.shape != b.shape:
            moved.append(f"{name} (not in both, or a different row count)")
        elif not np.array_equal(a, b, equal_nan=True):
            change = np.abs(a - b) / np.maximum(np.abs(b), np.finfo(float).tiny)
            moved.append(f"{name} {np.nanmax(change):.2g}")
    pytest.fail(f"{golden} differs; max relative change per value: "
                + (", ".join(moved) or "none: only the text differs"))


def test_criterion_9_trace_matches_golden_bytes(tmp_path):
    args = ["run", "--iterations", "300", "--bits", "16", "--seed", "7",
            "--output-dir", str(tmp_path)]
    assert cli_main(args) == 0
    _assert_same_bytes((tmp_path / "trace.csv").read_bytes(), "golden_trace.csv")


@pytest.mark.parametrize("args,code,written,golden", [
    (["--iterations", "300", "--bits", "16", "--seed", "7", "--baseline"], 0,
     "baseline_trace.csv", "golden_baseline_trace.csv"),
    (["--seed", "20", "--iterations", "50"], 2,
     "trace.csv", "golden_partial_trace.csv"),
], ids=["exact-twin", "partial-seed-20"])
def test_run_trace_matches_golden_bytes(tmp_path, args, code, written, golden):
    assert cli_main(["run", *args, "--output-dir", str(tmp_path)]) == code
    _assert_same_bytes((tmp_path / written).read_bytes(), golden)


def test_long_run_traces_match_golden_digest(tmp_path):
    args = ["run", "--seed", "7", "--iterations", "3000", "--baseline",
            "--output-dir", str(tmp_path)]
    assert cli_main(args) == 0
    for name, digest in LONG_RUN.items():
        data = (tmp_path / name).read_bytes()
        assert data.count(b"\r\n") == 1 + 1024, name
        assert hashlib.sha256(data).hexdigest() == digest, name


def test_ensemble_matches_golden_arrays():
    objective = well_conditioned_instance(4, 2)
    ens = collect_ensemble(objective, lazy_metropolis(path_topology(4)),
                           iterations=50, seed=7, bits=6, replicas=20)
    golden = np.load(DATA / "golden_ensemble.npz")
    for name in ("consensus_sq", "r_sq", "f_worst"):
        assert np.array_equal(getattr(ens, name), golden[name]), name


def test_large_seed_trace_matches_golden_digest(tmp_path):
    args = ["run", "--seed", str(2**32 + 5), "--iterations", "50",
            "--output-dir", str(tmp_path)]
    assert cli_main(args) == 0
    data = (tmp_path / "trace.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == LARGE_SEED_TRACE


@pytest.mark.parametrize("args,golden", [
    (["verify"], "golden_verify.json"),
    (["bound", "--T", "10,100,1000,5000"], "golden_bound.csv"),
], ids=["verify", "bound"])
def test_cli_stdout_matches_golden_bytes(capsys, args, golden):
    assert cli_main(args) == 0
    _assert_same_bytes(capsys.readouterr().out.encode(), golden)
