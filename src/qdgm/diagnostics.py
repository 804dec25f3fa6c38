"""Per-round analysis quantities and Monte Carlo checks of the one-step
contraction inequalities behind the convergence guarantee.

Conventions: X is the n x d matrix of agent iterates, xbar its row mean,
Y = X - 1 xbar^T the consensus deviation, r_sq = ||xbar - x*||^2. The
Lyapunov value couples both errors, V_k = r_sq + eta * (alpha_k/beta_k) *
||Y_k||_F^2. The vector quantization error bound entering the inequality
constants is d * delta_k (coarser than the sqrt(d) * delta_k the codec
actually guarantees, and therefore conservative). gamma_k, the envelope and
the inequality checks read their constants from the run's schedules.Schedule,
which Schedule.of(objective, spectral gap, bits) makes; the envelope's
measured V_1 is an argument. consensus_sq and r_sq have one definition,
stack_statistics, which adds every sum in order; the trace rows (make_record)
and verify's ensemble (ensemble_statistics) both read it. A trace row's gaps
f(p) - f* are a quadratic form about x*, and make_record builds a block of
rows in one pass, so a row's bits depend only on its own round.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .objective import RegressionObjective, optimality_gaps
from .schedules import Schedule, libm_power

TRACE_COLUMNS = [
    "k", "f_gap_last", "f_gap_avg_min", "f_gap_avg_max", "consensus_sq",
    "r_sq", "lyapunov", "delta_k", "range_k", "max_coord", "gamma_k",
]
TraceRecord = NamedTuple(
    "TraceRecord", [("k", int)] + [(c, float) for c in TRACE_COLUMNS[1:]])
# one CSV row: the round as an integer, then every other column to 17 digits
_ROW_FORMAT = "%d" + ",%.17g" * (len(TRACE_COLUMNS) - 1) + "\r\n"

ETA_MODES = ("body", "appendix")

# the inequality checks need this many replicas for their standard errors
MIN_REPLICAS = 100


@dataclass
class Trace:
    """Per-round diagnostics as one (records, len(TRACE_COLUMNS)) float64 table
    in round order, with CSV persistence; ``records`` and ``final()`` read its
    rows as TraceRecord, and a sequence of records or rows builds a table."""

    table: np.ndarray = ()
    error: str | None = None

    def __post_init__(self):
        table = np.asarray(self.table, dtype=np.float64)
        self.table = table.reshape(0, len(TRACE_COLUMNS)) if table.size == 0 else table
        if self.table.ndim != 2 or self.table.shape[1] != len(TRACE_COLUMNS):
            raise ValueError(f"a trace row holds the {len(TRACE_COLUMNS)} TRACE_COLUMNS")
        k = self.table[:, 0]
        if not np.all((k >= 0) & (k % 1 == 0)):  # NaN and inf fail too
            raise ValueError("a trace's k column holds nonnegative integers")

    def column(self, name: str) -> np.ndarray:
        return self.table[:, TRACE_COLUMNS.index(name)]

    @property
    def records(self) -> list[TraceRecord]:
        return [TraceRecord(int(row[0]), *row[1:]) for row in self.table.tolist()]

    def final(self) -> TraceRecord:
        return Trace(self.table[-1:]).records[0]

    def to_csv(self, path) -> None:
        with Path(path).open("w", newline="") as fh:
            fh.write(",".join(TRACE_COLUMNS) + "\r\n")
            fh.writelines(_ROW_FORMAT % tuple(row) for row in self.table.tolist())
            if self.error is not None:
                fh.write(f"# error: {self.error}\n")

    @classmethod
    def from_csv(cls, path) -> "Trace":
        lines = [line.strip() for line in Path(path).read_text().splitlines()]
        rows = [line for line in lines if line and not line.startswith("#")]
        if rows and rows[0].split(",") != TRACE_COLUMNS:
            raise ValueError(f"unexpected trace header in {path}")
        errors = [line[len("# error:"):].strip() for line in lines
                  if line.startswith("# error:")]
        table = np.loadtxt(rows[1:], delimiter=",", ndmin=2) if rows[1:] else ()
        return cls(table, errors[-1] if errors else None)


def stack_statistics(x: np.ndarray, optimum: np.ndarray):
    """xbar as a (d, S) array, ||x - 1 xbar^T||_F^2 and ||xbar - x*||^2 of each (n, d)
    matrix of an (S, n, d) stack, from one transposed (n d, S) copy: every sum is an
    outer-axis np.add.reduce, so it adds its terms in order and a value does not depend
    on S. The one definition of both statistics, for the trace rows and for verify."""
    size, n, d = x.shape
    cols = x.reshape(size, n * d).T
    # numpy adds a lone contiguous column pairwise, so a lone matrix is read as two
    cols = np.concatenate([cols, cols], axis=1) if size == 1 else cols.copy()
    xbar = np.add.reduce(cols.reshape(n, d, -1), axis=0) / n
    deviations = cols.reshape(n, d, -1) - xbar
    consensus_sq = np.add.reduce(np.square(deviations, out=deviations).reshape(n * d, -1))
    r_sq = np.add.reduce(np.square(xbar - optimum[:, None]))
    return xbar[:, :size], consensus_sq[:size], r_sq[:size]


def ensemble_statistics(x: np.ndarray, objective: RegressionObjective):
    """consensus_sq and r_sq of stack_statistics, and max_i f(x_i), of each matrix of an
    (S, n, d) stack: f's residuals from one (S n, d) @ (d, m) product, their m squares
    added in order by one outer-axis reduce."""
    size, n, d = x.shape
    _, consensus_sq, r_sq = stack_statistics(x, objective.optimum)
    products = (x.reshape(size * n, d) @ objective.features.T).reshape(size, n, -1)
    residuals = np.subtract(products.T, objective.targets[:, None, None], order="C")
    f = np.add.reduce(np.square(residuals, out=residuals))
    return consensus_sq, r_sq, f.max(axis=0)


def coupled_smoothness(mu: float, lipschitz: float) -> float:
    """L + 8 L^2 / mu, the weight of the consensus error in the descent step."""
    return lipschitz + 8.0 * lipschitz ** 2 / mu


def eta_coupling(mu: float, lipschitz: float, spectral_gap: float,
                 mode: str = "body") -> float:
    """Coupling constant for the Lyapunov consensus term.

    Two published variants exist and they genuinely differ; both are kept:
    'body'     -> 2 (L + 8 L^2 / mu) / (1 - sigma2)
    'appendix' -> 2 (L + L^2 / 8)   / (1 - sigma2)
    """
    if mode == "body":
        return 2.0 * coupled_smoothness(mu, lipschitz) / spectral_gap
    if mode == "appendix":
        return 2.0 * (lipschitz + lipschitz ** 2 / 8.0) / spectral_gap
    raise ValueError(f"unknown eta mode {mode!r}; pick one of {ETA_MODES}")


def lyapunov_value(r_sq, consensus_sq, ks, schedule: Schedule, eta: float):
    """V_k = r_sq + eta * (alpha_k / beta_k) * consensus_sq, at one round or elementwise."""
    return r_sq + eta * (schedule.alpha(ks) / schedule.beta(ks)) * consensus_sq


def gamma_k(schedule: Schedule, ks) -> np.ndarray:
    """Per-round additive error term of the Lyapunov recursion, at one round or elementwise."""
    ks = np.asarray(ks)
    if (ks < 1).any():
        raise ValueError("gamma is defined for k >= 1")
    mu, lip, gap = schedule.mu, schedule.lipschitz, schedule.spectral_gap
    coupled = coupled_smoothness(mu, lip)
    quant = schedule.quantization * libm_power(schedule.alpha_sum(ks), 2)
    pow15, pow175 = libm_power(ks + 1, 1.5), libm_power(ks + 1, 1.75)
    return (
        (16.0 / mu ** 2) / (ks + 1) ** 2
        + (40.0 * lip ** 2 * coupled / mu ** 3) / pow15
        + (4.0 / (gap * pow15)
           + 320.0 * coupled * schedule.n ** 2 / (gap ** 2 * pow175)) * quant
    )


def rate_bound_terms(schedule: Schedule, horizon: int, v1: float) -> tuple[float, ...]:
    """The five summands of the expected-gap envelope at the horizon, given V_1 = v1."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if v1 < 0:
        raise ValueError("v1 must be nonnegative")
    mu, lip, gap = schedule.mu, schedule.lipschitz, schedule.spectral_gap
    tp1 = horizon + 1.0
    quant = schedule.quantization
    log_sq = math.log(horizon) ** 2
    return (
        mu * v1 / (8.0 * tp1 ** 2),
        2.0 / tp1,
        (16.0 / (3.0 * mu * gap)) * quant * log_sq / tp1 ** 0.5,
        # open question: L + 8 L^2 here, not coupled_smoothness's L + 8 L^2 / mu
        (4.0 * schedule.n ** 2 * (lip + 8.0 * lip ** 2) / gap ** 2)
        * quant * log_sq / tp1 ** 0.75,
        (8.0 * lip * coupled_smoothness(mu, lip) / (3.0 * mu ** 3)) / tp1 ** 0.5,
    )


def rate_bound(schedule: Schedule, horizon: int, v1: float) -> float:
    """Closed-form bound on the expected averaged-output optimality gap."""
    return sum(rate_bound_terms(schedule, horizon, v1))


def make_record(ks, x_stack: np.ndarray, z_stack: np.ndarray,
                objective: RegressionObjective, schedule: Schedule, eta: float) -> np.ndarray:
    """The (B, len(TRACE_COLUMNS)) block of trace rows for the B rounds ``ks``
    (ints), from the (B, n, d) stacks of their iterates and averaged iterates,
    in the same number of numpy calls for any B. A row's bits depend only on its round:
    xbar, consensus_sq and r_sq are stack_statistics', the gaps are ``optimality_gaps``
    about x* of every round's n averaged iterates and xbar, and V_k, gamma_k and the
    grid are elementwise over the block, with libm's pow for each power as for one round."""
    ks = np.asarray(ks)
    xbar, cons, r_sq = stack_statistics(x_stack, objective.optimum)
    points = np.concatenate([z_stack, xbar.T[:, None]], axis=1)
    gaps = optimality_gaps(objective, points.reshape(-1, objective.dims)).reshape(len(ks), -1)
    grid = schedule.grid(ks)
    return np.column_stack([
        ks, gaps[:, -1], gaps[:, :-1].min(axis=1), gaps[:, :-1].max(axis=1), cons, r_sq,
        lyapunov_value(r_sq, cons, ks, schedule, eta), grid.delta, grid.range,
        np.abs(x_stack).max(axis=(1, 2)),
        np.where(ks >= 1, gamma_k(schedule, np.maximum(ks, 1)), math.nan)])


@dataclass
class EnsembleTrace:
    """Replica-by-round statistics collected for the inequality checks.

    Arrays are C-contiguous [replica, round], from ensemble_statistics, so a value
    depends only on its replica and round; `consensus_sq` and `r_sq` are stack_statistics',
    equal to a run's trace columns; `f_worst` holds max_i f(x_k^i), the agent that
    stresses the descent inequality hardest; `schedule` is the run's, and gives
    each round's alpha_k, beta_k and delta_k.
    """

    consensus_sq: np.ndarray
    r_sq: np.ndarray
    f_worst: np.ndarray
    f_star: float
    schedule: Schedule


def _mc_violations(name: str, lhs: np.ndarray, rhs: np.ndarray) -> dict:
    """Paired Monte Carlo test: mean(lhs - rhs) must stay below 3 SE per round.
    Returns the check object ``qdgm verify`` prints: name, passed and detail."""
    diff = lhs - rhs
    m = diff.shape[0]
    if m < MIN_REPLICAS:
        raise ValueError(f"insufficient replicas: {m} < {MIN_REPLICAS}")
    mean = diff.mean(axis=0)
    se = diff.std(axis=0, ddof=1) / math.sqrt(m)
    scale = np.maximum(1.0, np.abs(rhs).mean(axis=0))
    margins = mean - 3.0 * se - 1e-12 * scale
    violations = int(np.sum(margins > 0.0))
    return {"name": name, "passed": violations == 0,
            "detail": {"replicas": m, "rounds": diff.shape[1], "violations": violations,
                       "worst_margin": float(margins.max())}}


def _round_steps(ens: EnsembleTrace):
    """alpha_k, beta_k and the d-scaled bin width d delta_k of every checked round k."""
    ks, schedule = np.arange(ens.r_sq.shape[1] - 1), ens.schedule
    return schedule.alpha(ks), schedule.beta(ks), schedule.dims * schedule.grid(ks).delta


def check_consensus_recursion(ens: EnsembleTrace) -> dict:
    """Verify the expected one-step contraction of the consensus error.

    E[||Y_{k+1}||_F^2] <= (1 - (1-s)b_k)||Y_k||^2
                          + (1 + (1-s)b_0) b_k^2 n^2 Dv_k^2
                          + ((1-s)b_0 + 1)/(1-s) * L^2 a_k^2 / b_k
    with s = sigma2, Dv the d-scaled bin width, checked in Monte Carlo mean
    with a 3-standard-error slack; returns the check object ``qdgm verify``
    prints (``_mc_violations``). It is no check of sigma2: the last term
    dominates, so on the verify ensemble a schedule whose spectral gap (and the
    beta_k that follow it) is mis-stated as 1.0, 0.5 or -0.354 passes both checks.
    """
    gap = ens.schedule.spectral_gap
    a, b, dv = _round_steps(ens)
    rhs = (1.0 - gap * b) * ens.consensus_sq[:, :-1] \
        + (1.0 + gap * b[0]) * b ** 2 * ens.schedule.n ** 2 * dv ** 2 \
        + ((gap * b[0] + 1.0) / gap) * ens.schedule.lipschitz ** 2 * a ** 2 / b
    return _mc_violations("consensus_recursion", ens.consensus_sq[:, 1:], rhs)


def check_descent_recursion(ens: EnsembleTrace) -> dict:
    """Verify the expected one-step descent of the mean optimality distance.

    E[r_{k+1}] <= (1 - mu a_k / 2) r_k + a_k^2 L^2 + b_k^2 Dv_k^2
                  + 2 a_k (f* - f(x_k^worst))
                  + a_k (L + 8 L^2 / mu) ||Y_k||_F^2
    checked in Monte Carlo mean with a 3-standard-error slack; returns the
    check object ``qdgm verify`` prints (``_mc_violations``).
    """
    a, b, dv = _round_steps(ens)
    mu, lip = ens.schedule.mu, ens.schedule.lipschitz
    rhs = (1.0 - mu * a / 2.0) * ens.r_sq[:, :-1] \
        + a ** 2 * lip ** 2 + b ** 2 * dv ** 2 \
        + 2.0 * a * (ens.f_star - ens.f_worst[:, :-1]) \
        + a * coupled_smoothness(mu, lip) * ens.consensus_sq[:, :-1]
    return _mc_violations("descent_recursion", ens.r_sq[:, 1:], rhs)


def fit_loglog_slope(ks: np.ndarray, values: np.ndarray,
                     lo: float, hi: float) -> float:
    """Least-squares slope of log(values) against log(k) on [lo, hi]."""
    ks = np.asarray(ks, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    mask = (ks >= lo) & (ks <= hi) & (values > 0.0)
    if mask.sum() < 2:
        raise ValueError("not enough records in the fit window")
    return float(np.polyfit(np.log(ks[mask]), np.log(values[mask]), 1)[0])
