"""Synchronized round-based two-time-scale iteration.

Every round k each agent quantizes its iterate onto the shared round-k
grid and applies

    x_{k+1} = (1 - beta_k) x_k + beta_k * (A q_k) - alpha_k * grad_i(x_k)

where the mixing row includes the agent's own weight applied to its own
*quantized* value, so the doubly stochastic matrix acts on the decoded
matrix as a whole. The reported output per agent is the (t+1)-weighted
running average of its past iterates, which :func:`run_experiment` keeps as a sum.

A round advances a stack of R replicas held as (R, n, d) arrays, and one loop drives
them, carrying the round k itself: a single run or its exact twin is the stack with
R = 1, the Monte Carlo ensemble the stack of all replicas. The hot loop takes the
quantizer's one quantize step, which the wire codec runs too, and never packs. It runs
round 0 alone, then RECORD_BLOCK rounds at a time, whose iterates it writes into one
(B, R, n, d) array, checks against the growing range at once and yields whole. A
round reads its constants, alpha_k, beta_k and its Grid (none if exact), as arguments,
evaluated CHUNK rounds at a time by the Schedule's array methods, so a value depends
only on its round.

Replica r's uniforms u are the PCG64 stream of default_rng([seed, r]), read in order:
each quantized round k >= 1 reads one per (agent, coordinate), in row-major order, and
round 0 reads none. A run keys one generator per replica and draws RECORD_BLOCK rounds
at a time, held as the complements 1 - u that the rounding reads; replica r depends
neither on its stack's size nor on the other replicas.
"""
from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from itertools import chain, pairwise, repeat
from types import SimpleNamespace

import numpy as np

from . import diagnostics, quantizer
from .errors import NonFiniteIterateError
from .graph import MixingMatrix, spectral_gap
from .objective import RegressionObjective, gradient_matrix
from .quantizer import CLAMP_BAND, Grid
from .schedules import Schedule

RECORD_BLOCK = 32  # rounds per block of the engine; rows per make_record call
CHUNK = 1024  # rounds per evaluation of the round constants: 32 blocks
# stack elements (S n d) per ensemble_statistics call at most; 2^14 ran R = 100 slower at 4 x 2
ENSEMBLE_BLOCK = 2 ** 13


def run_round(x: np.ndarray, mixing: MixingMatrix, objective: RegressionObjective,
              alpha: float, beta: float, grid: Grid | None, complements: np.ndarray | None,
              out: np.ndarray | None = None) -> np.ndarray:
    """Advance every agent of every replica of the (R, n, d) iterates ``x`` of round k one
    synchronized round, returning the new iterates (in ``out`` if given).

    ``alpha`` and ``beta`` are round k's steps and ``grid`` its quantizer grid.
    ``complements`` holds 1 - u for slice r's round-k draws u in slice r; round 0
    reads none. With ``complements=None`` the exchanged values are the raw iterates
    (infinite-bandwidth twin) and ``grid`` is not read; everything else is identical.
    The quantize step checks its input's range and support bound; the new iterates
    are checked by the engine, a block at a time.
    """
    q = x if complements is None else quantizer._quantize_values(x, grid, complements)[1]
    grads = gradient_matrix(objective, x)
    # (1 - beta) x + beta (W q) - alpha grads, in place, in the same order
    x_next = np.matmul(mixing.entries, q, out=out)
    x_next *= beta
    x_next += (1.0 - beta) * x
    grads *= alpha
    x_next -= grads
    return x_next


def _check_range_invariant(xs: np.ndarray, ranges: np.ndarray) -> int:
    """How many leading iterates of the block ``xs`` lie within their ``ranges`` and the
    clamp band: one max |x| per round, in a fixed number of numpy calls."""
    within = np.maximum.reduce(np.abs(xs), axis=(1, 2, 3)) <= ranges * (1.0 + CLAMP_BAND)
    return len(xs) if within.all() else int(within.argmin())  # NaN fails too


def record_points(iterations: int, stride: int | None = None) -> list[int]:
    """The rounds a run records by default, every round up to 1000 and then a factor-1.05
    geometric grid, or every ``stride``-th round; 0 and the final round always."""
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


def _run_rounds(objective: RegressionObjective, mixing: MixingMatrix, schedule: Schedule, *,
                iterations: int, seed: int, first: int, replicas: int, quantized: bool):
    """The one round loop: yields rounds 0 to ``iterations`` of ``replicas`` replicas from
    ``first`` on as blocks (first round, (B, R, n, d) iterates, never written again). At the
    first iterate out of range, or failed round, it yields the rounds before it and raises."""
    x = np.zeros((replicas, objective.n, objective.dims))  # the range schedule needs x_0 = 0
    yield 0, x[None]
    # round 0 runs alone on complements 1 (it reads no uniforms), then each block of
    # RECORD_BLOCK rounds reads one; a run of no rounds or the exact twin keys no stream.
    keyed = range(first, first + replicas) if quantized and iterations else ()
    streams = [np.random.default_rng([seed, r]) for r in keyed]
    uniforms = np.ones((len(streams), RECORD_BLOCK, objective.n, objective.dims))
    rows = uniforms.swapaxes(0, 1) if streams else repeat(None)  # a block's rounds' 1 - u

    def float_event(message):  # numpy's warning in round k, unheard past a failure
        if _check_range_invariant(xs[:k - lo], ranges[:k - lo]) < k - lo:
            raise FloatingPointError(message)
        warnings.warn(message.removeprefix("Warning: ").rstrip(), RuntimeWarning, stacklevel=2)

    logged = {kind: "log" for kind, mode in np.geterr().items() if mode == "warn"}
    base, end = 0, -1  # the chunk's constants: of rounds base..end - 1, ranges of base..end
    for lo, hi in pairwise(chain((0,), range(1, iterations, RECORD_BLOCK), (iterations,))):
        if streams and lo:
            for stream, out in zip(streams, uniforms):
                stream.random(out=out)
            np.subtract(1.0, uniforms, out=uniforms)  # the rounding reads 1 - u
        if hi > end:  # by one evaluation, the next CHUNK rounds' (round 0's chunk: one more)
            base, end = lo, min((lo or 1) + CHUNK, iterations)
            ks = np.arange(base, end + 1)
            alphas, betas = schedule.alpha(ks[:-1]).tolist(), schedule.beta(ks[:-1]).tolist()
            chunk = schedule.grid(ks)
            grids = list(map(Grid, ks[:-1].tolist(), chunk.range.tolist(), chunk.delta.tolist(),
                             repeat(chunk.bins))) if quantized else [None] * len(ks)
        part, xs, failure = slice(lo - base, hi - base), np.empty((hi - lo, *x.shape)), None
        ranges = chunk.range[lo - base + 1:hi - base + 1]
        table = zip(range(lo, hi), alphas[part], betas[part], grids[part], rows, xs)
        try:
            with np.errstate(call=SimpleNamespace(write=float_event), **logged):
                for k, alpha, beta, grid, complements, out in table:
                    x = run_round(x, mixing, objective, alpha, beta, grid, complements, out)
        except Exception as exc:  # the rounds before it stand if they are in range
            failure = exc
        done = k - lo if failure else hi - lo
        if good := _check_range_invariant(xs[:done], ranges[:done]):
            yield lo + 1, xs[:good]
        if good < done and np.isfinite(xs[good]).all():  # raises, as the max is the same
            quantizer.check_range(xs[good], float(ranges[good]), lo + good + 1)
        if good < done:
            failure = NonFiniteIterateError(f"non-finite iterate at round {lo + good}")
        if failure:
            raise failure


def run_experiment(objective: RegressionObjective, mixing: MixingMatrix, *,
                   iterations: int, seed: int, bits: int,
                   beta_clamp: float | None = 1.0, eta_mode: str = "body",
                   quantized: bool = True, replica: int = 0,
                   record_at=None) -> diagnostics.Trace:
    """Run one replica through the full iteration, returning its trace of the rounds
    ``record_at`` holds (default ``record_points(iterations)``) up to ``iterations``.

    Deterministic for fixed arguments. A row's z_k = U_k / (k (k+1) / 2), z_0 = 0: U_k =
    sum_{t<k} (t+1) x_t added in round order, as bench/oracle.py does: accumulated to a
    block's last recorded round, and the rest by one outer-axis reduce (k (k+1) / 2 is exact
    below k = 1.3e8). On a failure the rows so far are attached as ``partial_trace``.
    """
    n, d = objective.n, objective.dims
    blocks = [np.empty((0, len(diagnostics.TRACE_COLUMNS)))]
    ks, held = [], np.empty((2, RECORD_BLOCK, n, d))  # recorded rounds, their x_k and U_k
    total = np.zeros((n, d))  # U_k of the next block's first round k

    def flush():
        if ks:
            weights = np.array([k * (k + 1) // 2 or 1 for k in ks], float)[:, None, None]
            blocks.append(diagnostics.make_record(ks, held[0, :len(ks)], held[1, :len(ks)]
                                                  / weights, objective, schedule, eta))
            ks.clear()

    try:
        schedule = _schedule(objective, mixing, bits, beta_clamp, iterations,
                             seed if quantized else None)
        eta = diagnostics.eta_coupling(objective.mu, objective.lipschitz,
                                       schedule.spectral_gap, eta_mode)
        pts = sorted(set(record_points(iterations) if record_at is None else record_at))
        for first, xs in _run_rounds(objective, mixing, schedule, replicas=1, first=replica,
                                     iterations=iterations, seed=seed, quantized=quantized):
            xs, stop = xs[:, 0], first + len(xs)
            rows = [k - first for k in pts[bisect_left(pts, first):bisect_left(pts, stop)]]
            running = np.empty_like(xs, shape=(len(xs) + 1, n, d))  # U_first, (t+1) x_t, ...
            running[0] = total
            np.multiply(xs, np.arange(first + 1, stop + 1)[:, None, None], out=running[1:])
            last = rows[-1] if rows else 0
            if last:  # U_first, ..., U_last, in order
                np.add.accumulate(running[:last + 1], out=running[:last + 1])
            # numpy adds a lone element's column pairwise: it is accumulated instead
            total = (np.add.reduce(running[last:]) if n * d > 1
                     else np.add.accumulate(running[last:])[-1])
            while rows:  # into the record block, flushed when full
                take, rows = rows[:RECORD_BLOCK - len(ks)], rows[RECORD_BLOCK - len(ks):]
                held[:, len(ks):len(ks) + len(take)] = xs[take], running[take]
                ks.extend(first + i for i in take)
                if len(ks) == RECORD_BLOCK:
                    flush()
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
    per at most ENSEMBLE_BLOCK stack elements of a block, transposed once into [replica,
    round] arrays: consensus_sq and r_sq are a trace row's, every sum added in order."""
    schedule = _schedule(objective, mixing, bits, 1.0, iterations, seed)
    n, d = objective.n, objective.dims
    per_call = max(1, min(RECORD_BLOCK, ENSEMBLE_BLOCK // max(1, replicas * n * d)))
    stats = np.empty((3, iterations + 1, replicas))  # [round, replica] rows
    for first, xs in _run_rounds(objective, mixing, schedule, iterations=iterations,
                                 seed=seed, first=0, replicas=replicas, quantized=True):
        for lo in range(first, first + len(xs), per_call):
            part = xs[lo - first:lo - first + per_call]
            block = diagnostics.ensemble_statistics(part.reshape(-1, n, d), objective)
            stats[:, lo:lo + len(part)] = np.reshape(block, (3, len(part), replicas))
    stats = np.ascontiguousarray(stats.transpose(0, 2, 1))
    return diagnostics.EnsembleTrace(*stats, f_star=objective.f_star, schedule=schedule)
