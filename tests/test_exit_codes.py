"""Exit codes by property: every input to ``run``, ``bound``, ``verify`` and ``graph``
ends in 0, 1, 2 or 64, never in 70, an exit 64 leaves the output directory as it
was, and a ``run`` that ends in 0 writes no infinite trace value; ``bound`` ends the
same, with the same stdout, with or without values of a valid type in the fields
only ``run`` reads. Edge values (signed zeros, subnormals, 1e300, the largest double,
inf, NaN, 2^63, 2^64, beta clamps of 1e-304 and 1e-302, and wrong types) go only to fields
that do not set the amount of work; n, d, the round, replica and retry counts stay
small. QDGM_EXIT_CODE_EXAMPLES
sets the examples per command (default 40) for a longer run."""
import contextlib
import copy
import io
import json
import os
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qdgm.cli import main

ALLOWED = {0, 1, 2, 64}
EXAMPLES = int(os.environ.get("QDGM_EXIT_CODE_EXAMPLES", "40"))
FUZZ = settings(max_examples=EXAMPLES, derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

EDGE_FLOATS = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
    1.7976931348623157e308, float("inf"), float("-inf"), float("nan"), 0.5, 1.0, 2.0])
EDGE_INTS = st.sampled_from([0, 1, -1, 7, 16, 32, 33, 2**63 - 1, 2**63, 2**64, -2**63])
WRONG_TYPES = st.sampled_from(["x", "16", True, False, None, [1], {"a": 1}, 1.5])


def small(lo, hi):
    """A field that sets the amount of work: a small int or a wrong type."""
    return st.one_of(st.integers(lo, hi), WRONG_TYPES)


def edge(values):
    """A field that sets no work: an edge value or a wrong type."""
    return st.one_of(values, WRONG_TYPES)


def mutated(valid: dict, edges: dict):
    """Dicts of ``valid``'s values with one or two fields set to an edge value from
    ``edges``; a key with a dot sets that field of a group."""
    def apply(base, changes):
        out = copy.deepcopy(base)
        for key, value in changes:
            group, _, field = key.rpartition(".")
            target = out.setdefault(group, {}) if group else out
            if isinstance(target, dict):
                target[field] = copy.deepcopy(value)  # sampled values are shared
        return out

    change = st.sampled_from(sorted(edges)).flatmap(
        lambda key: st.tuples(st.just(key), edges[key]))
    return st.builds(apply, st.fixed_dictionaries(valid),
                     st.lists(change, min_size=1, max_size=2))


CONFIG = mutated({
    "n": st.integers(2, 8), "d": st.integers(1, 3), "iterations": st.integers(1, 40),
    "replicas": st.integers(1, 3), "bits": st.integers(1, 16), "seed": st.integers(0, 99),
    "graph": st.fixed_dictionaries({"edge_probability": st.sampled_from([0.5, 1.0])}),
}, {
    "n": small(-1, 8), "d": small(-1, 4), "iterations": small(-1, 40),
    "replicas": small(-1, 3), "bits": edge(EDGE_INTS), "seed": edge(EDGE_INTS),
    "beta_clamp": st.one_of(EDGE_FLOATS, st.sampled_from([1e-304, 1e-302]), st.just("off"),
                            WRONG_TYPES),
    "eta_mode": st.sampled_from(["body", "appendix", "", "BODY", 3]),
    "baseline": st.one_of(st.booleans(), WRONG_TYPES),
    "record_stride": edge(EDGE_INTS), "unknown": st.just(1),
    "graph": WRONG_TYPES, "data": WRONG_TYPES,
    "graph.edge_probability": edge(EDGE_FLOATS), "graph.retry_limit": small(-1, 50),
    "graph.edges_file": st.sampled_from([None, "missing.edges", 3]),
    "data.feature_high": edge(EDGE_FLOATS), "data.target_high": edge(EDGE_FLOATS),
})
# the fields only run reads, with values of a valid type that run may refuse
RUN_ONLY = st.fixed_dictionaries({}, optional={
    "iterations": EDGE_INTS, "replicas": EDGE_INTS,
    "record_stride": st.one_of(st.none(), EDGE_INTS), "baseline": st.booleans(),
    "output_dir": st.sampled_from(["", ".", "missing/out"])})
ARG_FLOATS = st.sampled_from(["0", "-0.0", "5e-324", "1e300", "1.7976931348623157e308",
                              "inf", "-inf", "nan", "x", ""])
ARG_INTS = st.sampled_from(["0", "-1", "33", str(2**63), str(2**64), str(-2**63), "1.5",
                            "x", ""])
BAD_SMALL = st.sampled_from(["-1", "0", "x", "1.5", ""])
VERIFY = mutated({
    "--n": st.integers(2, 6).map(str), "--dims": st.integers(1, 2).map(str),
    "--rounds": st.integers(1, 5).map(str), "--replicas": st.just("100"),
    "--bits": st.integers(1, 16).map(str), "--seed": st.integers(0, 99).map(str),
}, {"--n": BAD_SMALL, "--dims": BAD_SMALL, "--rounds": BAD_SMALL,
    "--replicas": st.sampled_from(["99", "0", "-1", "x", "1e2"]),
    "--bits": ARG_INTS, "--seed": ARG_INTS})
GRAPH = mutated({
    "--n": st.integers(2, 8).map(str), "--edge-probability": st.sampled_from(["0.5", "1"]),
    "--seed": st.integers(0, 99).map(str), "--retry-limit": st.integers(1, 50).map(str),
    "--out": st.just("graph.edges"),
}, {"--n": BAD_SMALL, "--edge-probability": ARG_FLOATS, "--seed": ARG_INTS,
    "--retry-limit": BAD_SMALL,
    "--out": st.sampled_from(["", ".", "missing/graph.edges", "kept.txt/graph.edges"]),
    "--load": st.sampled_from(["kept.txt", "missing.edges", "loaded.edges"])})


def _snapshot(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


def _run(argv) -> tuple:
    """The exit code and the stdout of ``qdgm argv``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


def _check(root: Path, argv) -> tuple:
    before = _snapshot(root)
    code, out = _run(argv)
    assert code in ALLOWED, (code, argv)
    if code == 64:
        assert _snapshot(root) == before, argv
    return code, out


@FUZZ
@given(config=st.one_of(CONFIG, WRONG_TYPES), horizons=st.one_of(
    st.lists(st.integers(-2, 40), min_size=1, max_size=3).map(
        lambda ts: ",".join(map(str, ts))),
    st.sampled_from(["1,abc", "1e3", ""])), run_only=RUN_ONLY)
def test_run_and_bound_end_in_a_known_exit_code(config, horizons, run_only):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "config.json").write_text(json.dumps(config))
        (root / "out").mkdir()
        (root / "out" / "kept.txt").write_text("kept")
        flags = ["--config", str(root / "config.json")]
        if _check(root, ["run", *flags, "--output-dir", str(root / "out")])[0] == 0:
            for trace in (root / "out").glob("*trace*.csv"):  # no infinite V_k or other value
                assert b"inf" not in trace.read_bytes(), config
        _check(root, ["bound", *flags, "--T", horizons])
        if isinstance(config, dict):
            base = {key: value for key, value in config.items() if key not in run_only}
            (root / "base.json").write_text(json.dumps(base))
            (root / "more.json").write_text(json.dumps({**base, **run_only}))
            bound = [_check(root, ["bound", "--config", str(root / name), "--T", horizons])
                     for name in ("base.json", "more.json")]
            assert bound[0] == bound[1], run_only


@FUZZ
@given(args=VERIFY)
def test_verify_ends_in_a_known_exit_code(args):
    with tempfile.TemporaryDirectory() as tmp:
        _check(Path(tmp), ["verify", *(item for pair in args.items() for item in pair)])


@FUZZ
@given(args=GRAPH)
def test_graph_ends_in_a_known_exit_code(args):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "kept.txt").write_text("kept")
        (root / "loaded.edges").write_text("3 2\n0 1\n1 2\n")
        args = {key: str(root / value) if key in ("--out", "--load") else value
                for key, value in args.items()}
        _check(root, ["graph", *(item for pair in args.items() for item in pair)])
