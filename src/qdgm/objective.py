"""Decomposable least-squares objective split across agents.

Agent i privately holds f_i(x) = (w_i^T x - b_i)^2. The global objective
f = sum_i f_i is strongly convex whenever the feature matrix has full
column rank; its curvature constants and a certified per-agent gradient
bound are derived at construction time and drive the step and range
schedules.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInstanceError

MIN_EIGENVALUE = 1e-10
OPTIMALITY_TOL = 1e-8
MAX_RETRIES = 100  # rank-deficient draws generate_instance resamples


@dataclass(frozen=True)
class RegressionObjective:
    """Per-agent data plus derived problem constants.

    mu and lipschitz are the curvature bounds of the global f (twice the
    extreme eigenvalues of sum_i w_i w_i^T). grad_bound certifies
    ||grad f_i(x)|| <= grad_bound for every agent on the coordinate box
    ||x||_inf <= operating_radius. Built once: twice_features = 2 W, and
    optimality_gaps' gram = W^T W and grad_at_optimum = 2 W^T (W x* - b).
    """

    features: np.ndarray
    targets: np.ndarray
    optimum: np.ndarray
    f_star: float
    mu: float
    lipschitz: float
    grad_bound: float
    operating_radius: float
    twice_features: np.ndarray = field(init=False, repr=False, compare=False)
    gram: np.ndarray = field(init=False, repr=False, compare=False)
    grad_at_optimum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "twice_features", 2.0 * self.features)
        object.__setattr__(self, "gram", self.features.T @ self.features)
        residual = self.features @ self.optimum - self.targets
        object.__setattr__(self, "grad_at_optimum", self.twice_features.T @ residual)
        for array in (self.features, self.targets, self.optimum, self.twice_features,
                      self.gram, self.grad_at_optimum):
            array.setflags(write=False)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dims(self) -> int:
        return self.features.shape[1]


def build_objective(features, targets) -> RegressionObjective:
    """Derive constants for given data; raises DegenerateInstanceError on rank-deficient
    features, or a Gram matrix, x*, C or envelope power that is not finite."""
    w = np.asarray(features, dtype=np.float64)
    b = np.asarray(targets, dtype=np.float64)
    n, d = w.shape
    if b.shape != (n,):
        raise ValueError("targets must be one scalar per agent")
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        gram, moment = w.T @ w, w.T @ b
    if not np.isfinite(gram).all():  # eigvalsh would not converge on it
        raise DegenerateInstanceError("degenerate instance: the Gram matrix is not finite")
    evals = np.linalg.eigvalsh(gram)
    if evals[0] < MIN_EIGENVALUE:
        raise DegenerateInstanceError(
            f"degenerate instance: smallest Gram eigenvalue {evals[0]:.3e}")
    xstar = np.linalg.solve(gram, moment)
    radius = 4.0 * float(np.abs(xstar).max()) + 1.0
    # |w^T x| <= ||w||_1 * ||x||_inf on the box, hence the analytic bound
    row_norms = np.linalg.norm(w, axis=1)
    bound = float(np.max(2.0 * row_norms * (np.abs(w).sum(axis=1) * radius + np.abs(b))))
    lipschitz, scale = 2.0 * float(evals[-1]), bound * d
    # the envelope's constants take L^3 (so mu^3, as mu <= L) and (C d)^2, and C
    # takes x*: each is checked, as max() would drop a NaN in second place
    constants = [*xstar, bound, lipschitz * lipschitz * lipschitz, scale * scale]
    if not np.isfinite(constants).all():
        raise DegenerateInstanceError("degenerate instance: L^3 or (C d)^2 is not finite")
    fstar = float(np.sum((w @ xstar - b) ** 2))
    objective = RegressionObjective(
        features=w.copy(),
        targets=b.copy(),
        optimum=xstar,
        f_star=fstar,
        mu=2.0 * float(evals[0]),
        lipschitz=lipschitz,
        grad_bound=bound,
        operating_radius=radius,
    )
    if np.linalg.norm(objective.grad_at_optimum) > OPTIMALITY_TOL:
        raise DegenerateInstanceError("normal-equation solve left a gradient residual")
    return objective


def generate_instance(n: int, d: int, seed: int,
                      feature_high: float = 0.65,
                      target_high: float = 0.45) -> RegressionObjective:
    """Sample agent data uniformly from [0, feature_high]^d x [0, target_high].

    Deterministic per seed; rank-deficient draws are resampled with an
    incremented seed up to ``MAX_RETRIES`` times.
    """
    if n < d:
        raise ValueError("need at least as many agents as dimensions")
    for attempt in range(MAX_RETRIES):
        rng = np.random.default_rng(seed + attempt)
        w = rng.uniform(0.0, feature_high, size=(n, d))
        b = rng.uniform(0.0, target_high + 0.0, size=n)  # + 0.0: -0.0 samples as 0.0
        try:
            return build_objective(w, b)
        except DegenerateInstanceError as exc:
            last = exc
    raise DegenerateInstanceError(
        f"{last}; no usable draw in {MAX_RETRIES} attempts")


def well_conditioned_instance(n: int = 4, d: int = 2) -> RegressionObjective:
    """Small hand-built instance with an orthogonal design (mu == lipschitz).

    Cycling scaled basis vectors keeps the Gram matrix isotropic, so the
    harmonic step schedule produces no early overshoot and per-agent
    gradient norms stay below the global smoothness constant along the
    whole trajectory. Used as the default verification benchmark.
    """
    if n < d:
        raise ValueError("need at least as many agents as dimensions")
    w = np.zeros((n, d))
    for i in range(n):
        w[i, i % d] = 0.5
    # agents sharing a feature direction get conflicting targets so the
    # optimal residual (and thus f at the optimum) stays nonzero
    b = np.array([0.05 + 0.05 * ((i // d) % 2) for i in range(n)])
    return build_objective(w, b)


def gradient_matrix(objective: RegressionObjective, x_rows: np.ndarray) -> np.ndarray:
    """Each agent's gradient at its own iterate, for (n, d) or (R, n, d) rows."""
    residuals = np.einsum("...ij,ij->...i", x_rows, objective.features) - objective.targets
    # (2.0 * w) * r is what 2.0 * w * r evaluates: the constant keeps every bit
    return objective.twice_features * residuals[..., None]


def optimality_gaps(objective: RegressionObjective, points: np.ndarray) -> np.ndarray:
    """f(p) - f* = e^T (G e + grad f(x*)), e = p - x*, at each row p of an (m, d) stack:
    exact for least squares, evaluated one coordinate after another, and its d terms added
    in order, so for m >= 2 a point's bits do not depend on the rest of its stack."""
    e = np.subtract(points.T, objective.optimum[:, None], order="C")
    h = objective.grad_at_optimum[:, None] + objective.gram[:, :1] * e[0]
    for j in range(1, objective.dims):
        h += objective.gram[:, j:j + 1] * e[j]
    return np.add.reduce(h * e)  # numpy adds a lone point's column pairwise


def save_instance_csv(objective: RegressionObjective, path) -> None:
    """One row per agent, columns w_1..w_d then b; constants are never stored."""
    header = ",".join([f"w_{j + 1}" for j in range(objective.dims)] + ["b"])
    np.savetxt(path, np.column_stack([objective.features, objective.targets]),
               fmt="%.17g", delimiter=",", header=header, comments="", newline="\r\n")

