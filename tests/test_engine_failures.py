"""A failure anywhere in one of the engine's blocks ends a run as a check of each
round's iterate, made as soon as the round makes it, ends it.

``conftest.reference_rounds`` is that per-round loop. Against it, the engine must
give the same error class and text, the same rows before the failure, the same
`qdgm run` exit code, partial trace bytes and stderr, and no warning of its own:
an exact block computes the rounds after a bad iterate and then discards them, so
a +inf gradient there leads to inf - inf that nothing may report.
"""
import warnings

import numpy as np
import pytest

from conftest import reference_rounds
from qdgm import algorithm, cli
from qdgm.config import ExperimentConfig
from qdgm.errors import GradientBoundError, NonFiniteIterateError
from qdgm.graph import NetworkTopology, lazy_metropolis, path_topology
from qdgm.objective import build_objective, well_conditioned_instance

ITERATIONS = 70
# the poisoned round: the first, a middle and the last round of the block of rounds
# 33..64, and the run's final round, in the partial block of rounds 65..69
ROUNDS = [33, 48, 64, 69]
# and, in a run of CHUNK_ITERATIONS rounds with constants evaluated SMALL_CHUNK rounds
# at a time (chunks of rounds 0..96 and 97..109), the last round of the first chunk and
# the first of the second: the boundaries do not depend on CHUNK's value
SMALL_CHUNK = 3 * algorithm.RECORD_BLOCK
CHUNK_ITERATIONS = 110
CHUNK_ROUNDS = [96, 97]
VALUES = [1e6, np.nan, np.inf, -np.inf]
ENGINES = [algorithm._run_rounds, reference_rounds]


def _poison_gradient(monkeypatch, where, value, call):
    """Make the ``call``-th gradient call, counted from 1, and every later one set
    entry ``where`` to ``value``."""
    gradient, calls = algorithm.gradient_matrix, []

    def poisoned(objective, x):
        calls.append(None)
        grads = gradient(objective, x)
        if len(calls) >= call:
            grads[where] = value
        return grads

    monkeypatch.setattr(algorithm, "gradient_matrix", poisoned)


def _run_length(patch, at):
    """The length of the runs poisoned at round ``at``, with ``patch`` setting the
    engine's chunk of constants to SMALL_CHUNK rounds for the longer runs."""
    if at < ITERATIONS:
        return ITERATIONS
    patch.setattr(algorithm, "CHUNK", SMALL_CHUNK)
    return CHUNK_ITERATIONS


def _run_cli(tmp_path, capsys, engine, baseline, at, value):
    """`qdgm run` of the default instance for _run_length(at) rounds with the gradient
    of round ``at`` of its last run (the exact twin with ``baseline``) poisoned: the exit
    code, stderr, that run's trace bytes and every warning raised."""
    out = tmp_path / engine.__name__
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        iterations = _run_length(patch, at)
        _poison_gradient(patch, (0, 3, 1), value, (iterations if baseline else 0) + at + 1)
        patch.setattr(algorithm, "_run_rounds", engine)
        code = cli.main(["run", "--iterations", str(iterations), "--output-dir", str(out)]
                        + ["--baseline"] * baseline)
    trace = out / ("baseline_trace.csv" if baseline else "trace.csv")
    return code, capsys.readouterr().err, trace.read_bytes(), [
        (w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("value", VALUES, ids=["escape", "nan", "inf", "-inf"])
@pytest.mark.parametrize("at", ROUNDS + CHUNK_ROUNDS)
@pytest.mark.parametrize("baseline", [False, True], ids=["quantized", "exact"])
def test_run_fails_as_a_per_round_check_fails(tmp_path, capsys, baseline, at, value):
    engine, reference = (_run_cli(tmp_path, capsys, engine, baseline, at, value)
                         for engine in ENGINES)
    code, err, trace, caught = engine
    assert (code, trace, caught) == (reference[0], reference[2], reference[3])
    finite = np.isfinite(value)
    assert code == (2 if finite else 70) and caught == []
    expected = (f"at round {at + 1}, outside" if finite else
                f"non-finite iterate at round {at}")
    assert expected in err.splitlines()[-1] == reference[1].splitlines()[-1]
    # an exit 70 prints its traceback, which names the code that raised
    assert err == reference[1] if finite else "GradientBoundError" not in err


def _stack_blocks(engine, quantized, iterations, replicas=3):
    """The iterates a 3-replica stack of the small instance yields for ``iterations``
    rounds, joined, and the error that ends it."""
    objective = well_conditioned_instance(4, 2)
    mixing = lazy_metropolis(path_topology(4))
    sched = algorithm._schedule(objective, mixing, 6, 1.0, iterations, 3)
    blocks = []
    with pytest.raises((GradientBoundError, NonFiniteIterateError)) as excinfo:
        for _, xs in engine(objective, mixing, sched, iterations=iterations, seed=3, first=0,
                            replicas=replicas, quantized=quantized):
            blocks.append(xs.copy())
    return np.concatenate(blocks), excinfo.value


@pytest.mark.parametrize("value", VALUES, ids=["escape", "nan", "inf", "-inf"])
@pytest.mark.parametrize("at", ROUNDS + CHUNK_ROUNDS)
@pytest.mark.parametrize("quantized", [True, False], ids=["quantized", "exact"])
def test_stack_fails_as_a_per_round_check_fails(quantized, at, value):
    # replica 1 fails; the error names it by its slice index, as check_range does
    results = []
    for engine in ENGINES:
        with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings(
                record=True) as caught:
            warnings.simplefilter("always")
            _poison_gradient(patch, (1, 2, 0), value, at + 1)
            results.append((*_stack_blocks(engine, quantized, _run_length(patch, at)),
                            caught))
    (xs, error, caught), (ref_xs, ref_error, _) = results
    assert xs.shape == ref_xs.shape == (at + 1, 3, 4, 2)
    assert xs.tobytes() == ref_xs.tobytes()
    assert (type(error), str(error)) == (type(ref_error), str(ref_error))
    if np.isfinite(value):
        assert str(error).startswith("gradient-bound violation: agent 2 of replica 1 ")
        assert f"at round {at + 1}, outside" in str(error)
    else:
        assert str(error) == f"non-finite iterate at round {at}"
    assert caught == []


@pytest.mark.parametrize("seed, stop", [(20, 4), (159, 6), (169, 7)])
def test_exact_twins_that_leave_the_range(monkeypatch, seed, stop):
    # the exact twins of three default seeds leave the range within their first block
    cfg = ExperimentConfig(seed=seed)
    objective = cli.build_objective_from_config(cfg)
    mixing = lazy_metropolis(cli.build_topology(cfg))
    results = []
    for engine in ENGINES:
        monkeypatch.setattr(algorithm, "_run_rounds", engine)
        with pytest.raises(GradientBoundError) as excinfo:
            algorithm.run_experiment(objective, mixing, iterations=64, seed=seed,
                                     bits=cfg.bits, quantized=False)
        results.append(excinfo.value)
    error, reference = results
    assert str(error) == str(reference) and f"at round {stop}, outside" in str(error)
    assert error.partial_trace.table.tobytes() == reference.partial_trace.table.tobytes()
    assert len(error.partial_trace.records) == stop


@pytest.mark.parametrize("at", [0, 5])
def test_a_failing_round_keeps_its_own_warnings(at):
    # a single agent of curvature 0.02 steps alpha_k = 200 / (k + 1): a gradient of
    # 1e308 overflows once scaled, in round 0 (a block of its own) or round 5 (mid
    # block). That round's overflow warning is the per-round loop's, from the same
    # line; the rounds after it, on an infinite iterate, warn of nothing
    objective = build_objective(np.array([[0.1]]), np.array([0.08]))
    mixing = lazy_metropolis(NetworkTopology.from_edges(1, []))
    results = []
    for engine in ENGINES:
        with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings(
                record=True) as caught:
            warnings.simplefilter("always")
            _poison_gradient(patch, (0, 0, 0), 1e308, at + 1)
            patch.setattr(algorithm, "_run_rounds", engine)
            with pytest.raises(NonFiniteIterateError,
                               match=f"^non-finite iterate at round {at}$"):
                algorithm.run_experiment(objective, mixing, iterations=40, seed=0, bits=8,
                                         quantized=False)
        results.append([(w.category, str(w.message), w.filename, w.lineno) for w in caught])
    assert results[0] == results[1]
    assert [entry[:2] for entry in results[0]] == [
        (RuntimeWarning, "overflow encountered in multiply")]
