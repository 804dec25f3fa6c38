"""Synchronized round-based two-time-scale iteration.

Every round k each agent quantizes its iterate onto the shared round-k
grid and applies

    x_{k+1} = (1 - beta_k) x_k + beta_k * (A q_k) - alpha_k * grad_i(x_k)

where the mixing row includes the agent's own weight applied to its own
*quantized* value, so the doubly stochastic matrix acts on the decoded
matrix as a whole. The hot loop carries the round as the (n, d) endpoint
index matrix and never packs bytes: the packed MSB-first indices are the
wire contract, checked at the boundary by the codec tests and ``qdgm
verify``, and decoding them gives the same values bit for bit. The
reported output per agent is the (t+1)-weighted running average of its
past iterates.

All quantization randomness for round k of replica r comes from one
generator keyed by (seed, r, k) and is consumed in fixed
(agent, coordinate) order, so results are independent of any scheduling
of per-agent work within a round.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diagnostics, quantizer
from .errors import NonFiniteIterateError, QuantizationSupportError
from .graph import MixingMatrix, spectral_gap
from .objective import RegressionObjective, gradient_matrix
from .quantizer import QuantizerConfig, QuantizerSchedule
# the per-round invariant is the quantizer's own range check; bench/child.py
# traces it under this name
from .quantizer import check_range as _check_range_invariant
from .schedules import StepSchedule


@dataclass
class RoundState:
    """Lockstep snapshot of all agents after ``k`` completed rounds."""

    k: int
    x: np.ndarray
    z: np.ndarray
    weight_sum: int

    @property
    def n(self) -> int:
        return self.x.shape[0]


def initial_state(n: int, d: int) -> RoundState:
    """All iterates start at exactly zero; the range schedule depends on it."""
    return RoundState(0, np.zeros((n, d)), np.zeros((n, d)), 0)


def run_round(state: RoundState, mixing: MixingMatrix,
              objective: RegressionObjective, steps: StepSchedule,
              qsched: QuantizerSchedule, seed: int, *,
              replica: int = 0, quantized: bool = True) -> RoundState:
    """Advance all agents one synchronized round.

    With ``quantized=False`` the exchanged values are the raw iterates
    (infinite-bandwidth twin); everything else is identical.
    """
    k, x = state.k, state.x
    alpha, beta = steps.alpha(k), steps.beta(k)
    if quantized:
        rng = np.random.default_rng([seed, replica, k])
        q = quantizer.decode_matrix(quantizer.quantize_matrix(x, qsched, k, rng),
                                    qsched, k)
        # exact per-draw support bound, plus the clamp-band displacement
        # allowed for iterates right at the range boundary
        support = qsched.delta_at(k) + 2.0 * qsched.range_at(k) * quantizer.CLAMP_BAND
        err = float(np.abs(q - x).max())
        if not err <= support:  # NaN fails too
            raise QuantizationSupportError(
                f"decoded value {err} away from its input at round {k}, "
                f"beyond the support bound {support}")
    else:
        q = x
    grads = gradient_matrix(objective, x)
    x_next = (1.0 - beta) * x + beta * (mixing.entries @ q) - alpha * grads
    if not np.isfinite(x_next).all():
        raise NonFiniteIterateError(f"non-finite iterate at round {k}")
    _check_range_invariant(x_next, qsched.range_at(k + 1), k + 1)
    z_next = (state.z * state.weight_sum + (k + 1) * x) / (state.weight_sum + (k + 1))
    return RoundState(k + 1, x_next, z_next, state.weight_sum + (k + 1))


def record_points(iterations: int, stride: int | None = None,
                  extra=()) -> list[int]:
    """Rounds at which diagnostics are recorded.

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
    pts.update(int(p) for p in extra if 0 <= int(p) <= iterations)
    return sorted(pts)


def run_experiment(objective: RegressionObjective, mixing: MixingMatrix, *,
                   iterations: int, seed: int, bits: int,
                   beta_clamp: float | None = 1.0, eta_mode: str = "body",
                   quantized: bool = True, replica: int = 0,
                   record_stride: int | None = None,
                   extra_record_points=()) -> diagnostics.Trace:
    """Run the full iteration, returning the diagnostic trace.

    Deterministic for fixed arguments. On a round failure the partial trace
    is attached to the raised exception as ``partial_trace`` so callers can
    still flush it with an error marker.
    """
    if iterations < 0:
        raise ValueError("iterations must be nonnegative")
    gap = spectral_gap(mixing)
    steps = StepSchedule(objective.mu, gap, beta_clamp)
    qsched = QuantizerSchedule(objective.grad_bound, steps,
                               QuantizerConfig(bits, objective.dims))
    eta = diagnostics.eta_coupling(objective.mu, objective.lipschitz, gap, eta_mode)
    points = set(record_points(iterations, record_stride, extra_record_points))
    state = initial_state(objective.n, objective.dims)
    trace = diagnostics.Trace()
    while True:
        if state.k in points:
            z_rows = state.z if state.weight_sum > 0 else state.x
            trace.records.append(diagnostics.make_record(
                state.k, state.x, z_rows, objective, steps, qsched, eta))
        if state.k == iterations:
            return trace
        try:
            state = run_round(state, mixing, objective, steps, qsched, seed,
                              replica=replica, quantized=quantized)
        except Exception as exc:
            trace.error = str(exc)
            exc.partial_trace = trace
            raise


def collect_ensemble(objective: RegressionObjective, mixing: MixingMatrix, *,
                     iterations: int, seed: int, bits: int, replicas: int,
                     beta_clamp: float | None = 1.0) -> diagnostics.EnsembleTrace:
    """Run Monte Carlo replicas differing only in quantizer randomness and
    collect the per-round statistics the inequality checks consume."""
    gap = spectral_gap(mixing)
    steps = StepSchedule(objective.mu, gap, beta_clamp)
    qsched = QuantizerSchedule(objective.grad_bound, steps,
                               QuantizerConfig(bits, objective.dims))
    rounds = iterations
    cons = np.zeros((replicas, rounds + 1))
    r_sq = np.zeros((replicas, rounds + 1))
    f_worst = np.zeros((replicas, rounds + 1))
    for rep in range(replicas):
        state = initial_state(objective.n, objective.dims)
        for k in range(rounds + 1):
            cons[rep, k] = diagnostics.consensus_error(state.x)
            xbar = state.x.mean(axis=0)
            r_sq[rep, k] = float(np.sum((xbar - objective.optimum) ** 2))
            residuals = state.x @ objective.features.T - objective.targets
            f_worst[rep, k] = float(np.max(np.sum(residuals ** 2, axis=1)))
            if k < rounds:
                state = run_round(state, mixing, objective, steps, qsched,
                                  seed, replica=rep, quantized=True)
    ks = np.arange(rounds)
    return diagnostics.EnsembleTrace(
        consensus_sq=cons,
        r_sq=r_sq,
        f_worst=f_worst,
        deltas=np.asarray([qsched.delta_at(k) for k in range(rounds + 1)]),
        alphas=np.asarray([steps.alpha(int(k)) for k in ks]),
        betas=np.asarray([steps.beta(int(k)) for k in ks]),
        f_star=objective.f_star,
        mu=objective.mu,
        lipschitz=objective.lipschitz,
        sigma2=1.0 - gap,
        n=objective.n,
        dims=objective.dims,
    )
