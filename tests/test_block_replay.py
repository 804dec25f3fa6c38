"""The engine rounds a quantized block bare and checks it whole; a block that fails a
check is replayed, from its first round that failed, through the checked path.

Replaying every block changes no bit. A trigger placed in the middle of a block
(a clamp-band input, a due one-ulp guard flip, one replica of a stack leaving the
range, a NaN) replays that block from the trigger's round and gives the bits, the
error, the partial trace and the warnings of ``conftest.reference_rounds``, which
quantizes every round on the checked path.
"""
import warnings

import numpy as np
import pytest

from conftest import reference_rounds
from qdgm import algorithm, quantizer
from qdgm.cli import build_objective_from_config, build_topology
from qdgm.config import ExperimentConfig
from qdgm.errors import GradientBoundError, NonFiniteIterateError
from qdgm.graph import lazy_metropolis, path_topology
from qdgm.objective import well_conditioned_instance

SEED, BITS, ITERATIONS = 3, 6, 70
# the round whose new iterate a trigger edits: x_41, the input of round 41, in the
# middle of the block of rounds 33..64
EDITED = 40
ENGINES = [algorithm._run_rounds, reference_rounds]


def _checked_rounds(patch):
    """The rounds quantized on the checked path, in order, as a list filled later."""
    quantize, rounds = quantizer._quantize_values, []

    def recorded(x, grid, complements):
        rounds.append(grid.k)
        return quantize(x, grid, complements)

    patch.setattr(quantizer, "_quantize_values", recorded)
    return rounds


def test_replaying_every_block_changes_no_bit():
    # with the rounding check failing every block at its first round, every round is
    # quantized on the checked path, and the trace and the ensemble keep their bits
    cfg = ExperimentConfig()
    objective = build_objective_from_config(cfg)
    mixing = lazy_metropolis(build_topology(cfg))
    small, path = well_conditioned_instance(4, 2), lazy_metropolis(path_topology(4))
    results = []
    for replayed in (False, True):
        with pytest.MonkeyPatch.context() as patch:
            if replayed:
                patch.setattr(algorithm, "_check_rounding", lambda *args: 0)
            checked = _checked_rounds(patch)
            trace = algorithm.run_experiment(objective, mixing, iterations=300, seed=cfg.seed,
                                             bits=cfg.bits)
            assert checked == (list(range(300)) if replayed else [0])
            ensemble = algorithm.collect_ensemble(small, path, iterations=50, seed=7, bits=6,
                                                  replicas=20)
        results.append([trace.table.tobytes()] + [getattr(ensemble, name).tobytes() for name
                                                  in ("consensus_sq", "r_sq", "f_worst")])
    assert results[0] == results[1]


class ZeroDraw:
    """A generator that reads ``real`` in order, but gives its draw number ``at``,
    counted from 0, as u = 0: the complement 1 - u = 1."""

    def __init__(self, real, at):
        self.real, self.at, self.read = real, at, 0

    def random(self, size=None, out=None):
        values = self.real.random(size, out=out)
        flat = values.reshape(-1)
        if 0 <= self.at - self.read < flat.size:
            flat[self.at - self.read] = 0.0
        self.read += flat.size
        return values


def _edit_iterate(patch, sched, edit):
    """Make the new iterate of round EDITED, known by its alpha, go through ``edit``
    with round EDITED + 1's grid, in place, however often the round runs."""
    run_round, alpha_k = algorithm.run_round, float(sched.alpha(EDITED))

    def edited(x, mixing, objective, alpha, *args, **kwargs):
        x_next = run_round(x, mixing, objective, alpha, *args, **kwargs)
        if alpha == alpha_k:
            edit(x_next, sched.grid(EDITED + 1))
        return x_next

    patch.setattr(algorithm, "run_round", edited)


def clamp_band(patch, sched, n, d):
    """An input just inside the clamp band, which round EDITED + 1 snaps."""
    def edit(x, grid):
        x[0, 1, 0] = grid.range * (1.0 + 0.5 * quantizer.CLAMP_BAND)
    _edit_iterate(patch, sched, edit)


def guard_flip(patch, sched, n, d):
    """An input one ulp of t below 32 bins, and its uniform u = 0: the rounding picks
    floor(t) + 2, more than one bin width away, and the guard flips it."""
    grid = sched.grid(EDITED + 1)
    lower, t = -grid.range, np.nextafter(32.0, 0.0)
    guess = lower + t * grid.delta
    near = guess + np.spacing(guess) * np.arange(-64.0, 65.0)
    value = near[(near - lower) / grid.delta == t][0]
    _, q = quantizer._round_values(np.array([value]), lower, grid.delta, grid.bins,
                                   np.ones(1))
    assert np.abs(q - value)[0] > grid.delta  # the guard is due

    def edit(x, grid):
        x[0, 2, 1] = value
    _edit_iterate(patch, sched, edit)
    default_rng = np.random.default_rng  # replica 0's draw of agent 2, coordinate 1
    at = EDITED * n * d + 2 * d + 1
    patch.setattr(np.random, "default_rng", lambda seed: ZeroDraw(default_rng(seed), at))


def replica_escape(patch, sched, n, d):
    """Replica 1 of the stack twice its range out, which round EDITED + 1 refuses."""
    def edit(x, grid):
        x[1, 2, 0] = 2.0 * grid.range
    _edit_iterate(patch, sched, edit)


def nan_iterate(patch, sched, n, d):
    """A NaN, which ends the run as a non-finite iterate of round EDITED."""
    def edit(x, grid):
        x[0, 3, 1] = np.nan
    _edit_iterate(patch, sched, edit)


def _outcome(engine, trigger, replicas):
    """What ``engine`` makes of a ``replicas`` stack of the small instance with
    ``trigger`` set: its iterates, joined, its error's class and text, its warnings and
    the rounds it quantized on the checked path; for one replica also the table of
    run_experiment's trace, partial on a failure."""
    objective, mixing = well_conditioned_instance(4, 2), lazy_metropolis(path_topology(4))
    sched = algorithm._schedule(objective, mixing, BITS, 1.0, ITERATIONS, SEED)
    blocks, error, table = [], None, None
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        trigger(patch, sched, objective.n, objective.dims)
        checked = _checked_rounds(patch)
        try:
            for _, xs in engine(objective, mixing, sched, iterations=ITERATIONS, seed=SEED,
                                first=0, replicas=replicas, quantized=True):
                blocks.append(xs.copy())
        except (GradientBoundError, NonFiniteIterateError) as exc:
            error = (type(exc), str(exc))
        checked = list(checked)
        if replicas == 1:
            patch.setattr(algorithm, "_run_rounds", engine)
            try:
                table = algorithm.run_experiment(objective, mixing, iterations=ITERATIONS,
                                                 seed=SEED, bits=BITS).table
            except (GradientBoundError, NonFiniteIterateError) as exc:
                table = exc.partial_trace.table
    return (np.concatenate(blocks), error, [(w.category, str(w.message)) for w in caught],
            checked, table)


@pytest.mark.parametrize("trigger, replicas, error", [
    (clamp_band, 1, None),
    (guard_flip, 1, None),
    (replica_escape, 3, (GradientBoundError, "agent 2 of replica 1 reached")),
    (nan_iterate, 1, (NonFiniteIterateError, f"non-finite iterate at round {EDITED}")),
], ids=["clamp-band", "guard-flip", "replica-escape", "nan"])
def test_a_trigger_mid_block_replays_as_the_checked_path(trigger, replicas, error):
    (xs, raised, caught, checked, table), reference = (
        _outcome(engine, trigger, replicas) for engine in ENGINES)
    assert xs.tobytes() == reference[0].tobytes()
    assert raised == reference[1] and caught == reference[2] == []
    assert (table is None) == (replicas > 1)
    if table is not None:
        assert table.tobytes() == reference[4].tobytes()
    # the block of rounds 33..64 stands to round EDITED and replays from the next one
    assert checked[0] == 0 and checked[1] == EDITED + 1
    assert checked == [0, *range(EDITED + 1, EDITED + len(checked))]
    if error is None:
        assert raised is None and len(xs) == ITERATIONS + 1
    else:
        assert raised[0] is error[0] and error[1] in raised[1]
