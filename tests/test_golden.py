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
2^32 and above stays fixed. Beside each whole-file digest sits one sha256
per CSV column, so a digest test names the columns that moved. ``data/golden_verify.json`` is the stdout of the
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
    "trace.csv": "125f5921c78927f6c29b73e975c643269a8bf2234aa65cdc34e90c58f68e68d5",
    "baseline_trace.csv": "a72d1f82832d2e61bd0c14225fe9b586edfbb3b3859ad2b74ef8d33614a0cb08",
}
LARGE_SEED_TRACE = "4bf33d8dc577d20a093908b5ddcd4802383c7d1265e25328b557e78027ba1d81"
# each CSV column's sha256, its fields joined by newlines: a digest test names what moved
LONG_RUN_COLUMNS = {
    "trace.csv": {
        "k": "3387e8d018d14daa3bccc6c4b2f1a68c2ff0233cdb9ffd20eaee3ec102fa9959",
        "f_gap_last": "38348ab4afece6f831ffd901fde357a82c70da9e193c576f1dc8ea627d9eacdf",
        "f_gap_avg_min": "305bfbf1576fc74799c493bd3f693b8b6ea753d927a9b5ae6453e9f7f2f33e09",
        "f_gap_avg_max": "3cd888b2bcf900dca4517d72a4374867a67a3f9d7556a7a630bedaec0dcac6fd",
        "consensus_sq": "0f118843255d6423ace17ec589deb5f20071acd005283933977942f1412bc9d0",
        "r_sq": "8fee8e9aaac5a6dc84652f4851ef5b7397e2cac64e4e8f9dd053203c67cf9c8f",
        "lyapunov": "ce3c94d7c5a035cd2c62a9b84467c04e72fb66784a1ce18b31c3bbbaf407732b",
        "delta_k": "b5cd0e32d5427de36746c7cbc7eb818301f4f5c7a64d77351e4b5f2cba465ded",
        "range_k": "24c6d050985cc0a29f9f169c38d438218d46abda34035d31eb2a0c13fbf2eb22",
        "max_coord": "ab0e6671ad1dabd22c14f580a7ee7f0d08d94e4e2ebbfec2f223fc8534302809",
        "gamma_k": "8857a5860e3838a1df4c20872ed95e8add05283b6cbcb783d821999ab0f5b36b",
    },
    "baseline_trace.csv": {
        "k": "3387e8d018d14daa3bccc6c4b2f1a68c2ff0233cdb9ffd20eaee3ec102fa9959",
        "f_gap_last": "12f40eb5e1040116140b83cdf1e28044042647d2f857e7740e753f9846a9a0ce",
        "f_gap_avg_min": "d2cff3b6b9b6aaf8e43da5091c347bd52c12aa71008a2d5855b63fef3b9dd13d",
        "f_gap_avg_max": "090d0f4b8669ea48e98cdd54a2bbf3096b1bac51eaf69f95f8bfd6cb0b1c700b",
        "consensus_sq": "7235f75c6cf479e0a90a39011dd1cea68de9907f7e076aa7a585b13843b6b95a",
        "r_sq": "38e19dbb7f16642188b090fa5e36bb46b2939161be0b7711ca3717ab5b17a788",
        "lyapunov": "42b21bc57a1e9023e49528b7c8214bbfaf1e84d0ae9f14cc32a44f6cfb456ee1",
        "delta_k": "b5cd0e32d5427de36746c7cbc7eb818301f4f5c7a64d77351e4b5f2cba465ded",
        "range_k": "24c6d050985cc0a29f9f169c38d438218d46abda34035d31eb2a0c13fbf2eb22",
        "max_coord": "bb6a275f848f269e9f665c294370c642375916535482dfa942f16d3291faa2ed",
        "gamma_k": "8857a5860e3838a1df4c20872ed95e8add05283b6cbcb783d821999ab0f5b36b",
    },
}
LARGE_SEED_TRACE_COLUMNS = {
    "k": "eeab13db0435ae36361d92add9415b042e1de2fa41d53e8ab3b69708eda1c919",
    "f_gap_last": "e5a29db11b4d8331bc6830b2cf87edc5a32f74614c1abf7ae277e9e347dd01e2",
    "f_gap_avg_min": "ebd4cc7d77a7cff495c868ca80b43eb31dbfdb76e1abd87e6201f5cd4a081640",
    "f_gap_avg_max": "198e788970e812f17e8f3af517f5769d79a4251f84f65278a0541fc411b41389",
    "consensus_sq": "eda3d800e7f7244ebb8ea2a90c322420676c9c140b05a2b393b167ebdf07d65e",
    "r_sq": "fb4fd451427892131fa079b52f4ad052230347375561f239ec2ee2fe335a41df",
    "lyapunov": "176847f15e372c4231b8b55c7ae8831cadc24be5574c609a6ee0c90e7a579f18",
    "delta_k": "e6ea7cef3946c4aca6557a51992375d3082b871ca3833b21e91040e2525bc70d",
    "range_k": "df9b5ef3a3264209742a70082de9e070634e6a725679014735799b6dfb68aba3",
    "max_coord": "3a8409b9fadcb9d2191ce7e175f7fb82ed579d649e31e3e56a0bb11f77f5b796",
    "gamma_k": "9dc1f65fb3a93a063043b3b7350de20903e9576a92667f39db7f83204719716e",
}


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


def _column_digests(data: bytes) -> dict:
    """The sha256 of each CSV column's fields, joined by newlines, by column name."""
    header, *rows = [line for line in data.decode().splitlines()
                     if line and not line.startswith("#")]
    return {name: hashlib.sha256("\n".join(fields).encode()).hexdigest()
            for name, fields in zip(header.split(","), zip(*(row.split(",") for row in rows)))}


def _assert_digests(data: bytes, digest: str, columns: dict, name: str) -> None:
    """Fail unless the CSV ``data`` has the sha256 ``digest`` and each column its
    sha256 in ``columns``, naming each column that moved."""
    found = _column_digests(data)
    moved = [column for column in {**columns, **found} if found.get(column) != columns.get(column)]
    assert hashlib.sha256(data).hexdigest() == digest and not moved, (
        f"{name} differs; columns moved: {', '.join(moved) or 'none: only the text differs'}")


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
        _assert_digests(data, digest, LONG_RUN_COLUMNS[name], name)


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
    _assert_digests((tmp_path / "trace.csv").read_bytes(), LARGE_SEED_TRACE,
                    LARGE_SEED_TRACE_COLUMNS, "trace.csv")


@pytest.mark.parametrize("args,golden", [
    (["verify"], "golden_verify.json"),
    (["bound", "--T", "10,100,1000,5000"], "golden_bound.csv"),
], ids=["verify", "bound"])
def test_cli_stdout_matches_golden_bytes(capsys, args, golden):
    assert cli_main(args) == 0
    _assert_same_bytes(capsys.readouterr().out.encode(), golden)
