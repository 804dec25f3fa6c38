"""Synchronized round-based two-time-scale iteration.

Every round k each agent quantizes its iterate onto the shared round-k
grid and applies

    x_{k+1} = (1 - beta_k) x_k + beta_k * (A q_k) - alpha_k * grad_i(x_k)

where the mixing row includes the agent's own weight applied to its own
*quantized* value, so the doubly stochastic matrix acts on the decoded
matrix as a whole. The reported output per agent is the (t+1)-weighted
running average of its past iterates, which :func:`run_experiment` keeps as a sum.

A round advances a stack of R replicas held as (R, n, d) arrays, and one
generator of round states drives it: a single run or its exact twin is the
stack with R = 1, the Monte Carlo ensemble the stack of all replicas. A state
holds k, x and checked_max, the max |x| of the one range check per round. The
hot loop takes the quantizer's one quantize step, which the wire codec runs
too, and never packs; the codec tests and ``qdgm verify`` check the packing.

A round reads its constants as arguments: alpha_k, beta_k, its Grid and
range(k + 1). The loop evaluates them once per block of rounds (round 0 alone,
then RECORD_BLOCK at a time) by the Schedule's array methods, as the records
do; a value depends only on its round, so the blocks change no bit.

Replica r's uniforms u are the PCG64 stream of default_rng([seed, r]), read
in order: each quantized round k >= 1 reads one per (agent, coordinate), in
row-major order, and round 0 reads none. A run keys one generator per
replica and draws RECORD_BLOCK rounds at a time, held as the complements
1 - u that the rounding reads; replica r depends neither on its stack's size
nor on the other replicas.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, pairwise, repeat

import numpy as np

from . import diagnostics, quantizer
from .errors import GradientBoundError, NonFiniteIterateError
from .graph import MixingMatrix, spectral_gap
from .objective import RegressionObjective, gradient_matrix
# the per-round invariant is the quantizer's own range check; bench/child.py
# traces it under this name
from .quantizer import Grid, check_range as _check_range_invariant
from .schedules import Schedule

RECORD_BLOCK = 32  # rounds per block of uniforms and constants; rows per make_record call
# stack elements (S n d) per ensemble_statistics call at most; 2^14 ran R = 100 slower at 4 x 2
ENSEMBLE_BLOCK = 2 ** 13


@dataclass
class RoundState:
    """Lockstep (R, n, d) iterates after ``k`` rounds, in fresh arrays never written again."""

    k: int
    x: np.ndarray
    checked_max: float  # max |x| per its range check; inf: unchecked


def initial_state(n: int, d: int, replicas: int = 1) -> RoundState:
    """All iterates start at exactly zero; the range schedule depends on it."""
    return RoundState(0, np.zeros((replicas, n, d)), 0.0)


def run_round(state: RoundState, mixing: MixingMatrix, objective: RegressionObjective,
              alpha: float, beta: float, grid: Grid, next_range: float,
              complements: np.ndarray | None) -> RoundState:
    """Advance every agent of every replica one synchronized round.

    ``alpha`` and ``beta`` are round k's steps, ``grid`` its quantizer grid and
    ``next_range`` range(k + 1), which the new iterates must stay within.
    ``complements`` holds 1 - u for slice r's round-k draws u in slice r; round 0
    reads none. With ``complements=None`` the exchanged values are the raw iterates
    (infinite-bandwidth twin) and ``grid`` is not read; everything else is identical.
    The quantize step refuses values that break their support bound. A range error
    in a stack names the replica by its slice index.
    """
    k, x = state.k, state.x
    if complements is None:
        q = x
    else:
        q = quantizer._quantize_values(x, grid, complements, state.checked_max)[1]
    grads = gradient_matrix(objective, x)
    # (1 - beta) x + beta (W q) - alpha grads, in place, in the same order
    x_next = mixing.entries @ q
    x_next *= beta
    x_next += (1.0 - beta) * x
    grads *= alpha
    x_next -= grads
    try:
        checked_max = _check_range_invariant(x_next, next_range, k + 1)
    except GradientBoundError:
        if np.isfinite(x_next).all():  # a NaN or inf iterate fails the check too
            raise
        raise NonFiniteIterateError(f"non-finite iterate at round {k}") from None
    return RoundState(k + 1, x_next, checked_max)


def record_points(iterations: int, stride: int | None = None) -> list[int]:
    """The rounds a run records by default, or every ``stride``-th round.

    Default policy: every round up to 1000, then geometrically thinned on a
    factor-1.05 grid; 0 and the final round are always included.
    """
    if stride is not None:
        pts = set(range(0, iterations + 1, stride))
    else:
        pts = set(range(0, min(iterations, 1000) + 1))
        g = 1000.0
        while g < iterations:
            g *= 1.05
            pts.add(min(iterations, math.ceil(g)))
    pts.update((0, iterations))
    return sorted(pts)


def _schedule(objective: RegressionObjective, mixing: MixingMatrix, bits: int,
              beta_clamp: float | None, iterations: int, seed: int | None) -> Schedule:
    """A run's schedule, built once, after the checks of the round count and
    of the seed (None: an exact run, which draws nothing)."""
    if iterations < 0:
        raise ValueError("iterations must be nonnegative")
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return Schedule.of(objective, spectral_gap(mixing), bits, beta_clamp)


def _round_constants(schedule: Schedule, first: int, stop: int, quantized: bool) -> list:
    """run_round's (alpha, beta, grid, next_range) of rounds ``first`` to ``stop - 1``
    in Python floats, by one evaluation of the schedule; exact rounds get no grid."""
    ks = np.arange(first, stop + 1)
    grid = schedule.grid(ks)
    ranges = grid.range.tolist()
    grids = (map(Grid, ks.tolist(), ranges, grid.delta.tolist(), repeat(grid.bins))
             if quantized else repeat(None))
    return list(zip(schedule.alpha(ks[:-1]).tolist(), schedule.beta(ks[:-1]).tolist(),
                    grids, ranges[1:]))


def _run_rounds(objective: RegressionObjective, mixing: MixingMatrix, schedule: Schedule, *,
                iterations: int, seed: int, first: int, replicas: int, quantized: bool):
    """The one round loop: yields the states of rounds 0 to ``iterations`` of
    replicas ``first`` on, ``replicas`` of them, started from zero."""
    state = initial_state(objective.n, objective.dims, replicas)
    yield state
    # round 0 runs alone on complements 1 (it reads no uniforms), then each block of
    # RECORD_BLOCK rounds reads one; a run of no rounds or the exact twin keys no stream.
    keyed = range(first, first + replicas) if quantized and iterations else ()
    streams = [np.random.default_rng([seed, r]) for r in keyed]
    block = np.ones((len(streams), RECORD_BLOCK, objective.n, objective.dims))
    for lo, hi in pairwise(chain((0,), range(1, iterations, RECORD_BLOCK), (iterations,))):
        if streams and lo:
            for stream, out in zip(streams, block):
                stream.random(out=out)
            np.subtract(1.0, block, out=block)  # the rounding reads 1 - u
        for j, constants in enumerate(_round_constants(schedule, lo, hi, quantized)):
            complements = block[:, j] if streams else None
            state = run_round(state, mixing, objective, *constants, complements)
            yield state


def run_experiment(objective: RegressionObjective, mixing: MixingMatrix, *,
                   iterations: int, seed: int, bits: int,
                   beta_clamp: float | None = 1.0, eta_mode: str = "body",
                   quantized: bool = True, replica: int = 0,
                   record_at=None) -> diagnostics.Trace:
    """Run one replica through the full iteration, returning its trace of the rounds
    ``record_at`` holds (default ``record_points(iterations)``) up to ``iterations``.

    Deterministic for fixed arguments. A row's z_k = U_k / (k (k+1) / 2), z_0 = 0: U_k =
    sum_{t<k} (t+1) x_t added in round order, folded every RECORD_BLOCK rounds and divided
    once per record block, as bench/oracle.py does (k (k+1) / 2 is exact below k = 1.3e8).
    On a failure the rows recorded so far are attached to the exception as ``partial_trace``.
    """
    # held: recorded (k, x); sums: blocks of their U_k, copied so that no fold stays alive
    blocks, held, sums = [np.empty((0, len(diagnostics.TRACE_COLUMNS)))], [], []
    unfolded, first = [np.zeros((1, objective.n, objective.dims))], 0  # U_first, x_first, ...

    def fold():
        nonlocal first
        running = np.concatenate(unfolded)
        running[1:] *= np.arange(first + 1, first + len(running))[:, None, None]
        np.add.accumulate(running, axis=0, out=running)  # U_first, U_first+1, ...
        if fresh := [k - first for k, _ in held if k >= first]:
            sums.append(running[fresh])
        unfolded[:], first = [running[-1:]], first + len(running) - 1

    def flush():
        fold()
        if held:
            ks, xs = zip(*held)
            weights = np.array([k * (k + 1) // 2 or 1 for k in ks], float)[:, None, None]
            blocks.append(diagnostics.make_record(ks, np.concatenate(xs), np.concatenate(sums)
                                                  / weights, objective, schedule, eta))
            del held[:], sums[:]

    try:
        schedule = _schedule(objective, mixing, bits, beta_clamp, iterations,
                             seed if quantized else None)
        eta = diagnostics.eta_coupling(objective.mu, objective.lipschitz,
                                       schedule.spectral_gap, eta_mode)
        points = set(record_points(iterations) if record_at is None else record_at)
        for state in _run_rounds(objective, mixing, schedule, iterations=iterations,
                                 seed=seed, first=replica, replicas=1, quantized=quantized):
            if state.k in points:
                held.append((state.k, state.x))
            unfolded.append(state.x)  # the last round's too: no row reads its U_{k+1}
            if len(held) == RECORD_BLOCK:
                flush()
            elif len(unfolded) > RECORD_BLOCK:
                fold()
        flush()
    except Exception as exc:
        flush()
        exc.partial_trace = diagnostics.Trace(np.concatenate(blocks), str(exc))
        raise
    return diagnostics.Trace(np.concatenate(blocks))


def collect_ensemble(objective: RegressionObjective, mixing: MixingMatrix, *,
                     iterations: int, seed: int, bits: int,
                     replicas: int) -> diagnostics.EnsembleTrace:
    """Run Monte Carlo replicas of the clamped (beta_clamp = 1) schedule differing only in
    quantizer randomness, as one stack, and collect their ``ensemble_statistics`` one call
    per block of at most RECORD_BLOCK rounds and ENSEMBLE_BLOCK stack elements, transposed
    once into [replica, round] arrays: consensus_sq and r_sq are the stack_statistics a
    run's trace rows take, and every sum adds in order."""
    schedule = _schedule(objective, mixing, bits, 1.0, iterations, seed)
    size = max(1, replicas * objective.n * objective.dims)
    per_block = max(1, min(RECORD_BLOCK, ENSEMBLE_BLOCK // size))
    stats, held = np.empty((3, iterations + 1, replicas)), []  # [round, replica] rows
    for state in _run_rounds(objective, mixing, schedule, iterations=iterations,
                             seed=seed, first=0, replicas=replicas, quantized=True):
        held.append(state.x)
        if len(held) == per_block or state.k == iterations:
            first = state.k + 1 - len(held)
            block = diagnostics.ensemble_statistics(np.concatenate(held), objective)
            stats[:, first:state.k + 1] = np.reshape(block, (3, len(held), replicas))
            held.clear()
    stats = np.ascontiguousarray(stats.transpose(0, 2, 1))
    return diagnostics.EnsembleTrace(*stats, f_star=objective.f_star, schedule=schedule)
