"""Independent reference for the exact (unquantized) twin.

Rebuilds the default-config instance for a seed from the documented
sampling rules (Erdos-Renyi graph resampled until connected, lazy
Metropolis weights, uniform least-squares data) and runs the exact
two-time-scale iteration with plain numpy. It shares no code with
``qdgm``, so the benchmark's answer checks hold on any workload seed
without a stored table, and a change that breaks the simulator's maths
cannot also move its reference.
"""
from __future__ import annotations

import numpy as np

# the default ExperimentConfig: n, d, graph.edge_probability,
# graph.retry_limit, data.feature_high, data.target_high
N, D = 40, 5
EDGE_PROBABILITY = 0.158
RETRY_LIMIT = 1000
FEATURE_HIGH, TARGET_HIGH = 0.65, 0.45
MIN_EIGENVALUE = 1e-10


def _connected(adj: np.ndarray) -> bool:
    reach = np.zeros(len(adj), dtype=bool)
    reach[0] = True
    while True:
        grown = reach | adj[reach].any(axis=0)
        if grown.sum() == reach.sum():
            return bool(reach.all())
        reach = grown


def mixing_matrix(seed: int) -> np.ndarray:
    """Lazy Metropolis weights on the seed's sampled connected graph."""
    rng = np.random.default_rng(seed)
    for _ in range(RETRY_LIMIT):
        upper = np.triu(rng.random((N, N)) < EDGE_PROBABILITY, k=1)
        adj = upper | upper.T
        if _connected(adj):
            break
    else:
        raise RuntimeError(f"no connected graph for seed {seed}")
    deg = adj.sum(axis=1)
    weights = np.where(adj, 1.0 / (2.0 * np.maximum(deg[:, None], deg[None, :])), 0.0)
    np.fill_diagonal(weights, 1.0 - weights.sum(axis=1))
    return weights


def instance(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-agent features and targets; rank-deficient draws move to seed+1."""
    for attempt in range(100):
        rng = np.random.default_rng(seed + attempt)
        w = rng.uniform(0.0, FEATURE_HIGH, size=(N, D))
        b = rng.uniform(0.0, TARGET_HIGH, size=N)
        if np.linalg.eigvalsh(w.T @ w)[0] >= MIN_EIGENVALUE:
            return w, b
    raise RuntimeError(f"no full-rank instance for seed {seed}")


def _iterate(seed: int, iterations: int):
    """Run the exact iteration; yield (k, x_k, running weighted sum, setup).

    x_{k+1} = (1 - beta_k) x_k + beta_k A x_k - alpha_k grad(x_k), with
    alpha_k = (4/mu)/(k+1) and beta_k = min(1, (4/gap)/(k+1)^(3/4)).
    """
    a = mixing_matrix(seed)
    w, b = instance(seed)
    gram = w.T @ w
    mu = 2.0 * np.linalg.eigvalsh(gram)[0]
    gap = 1.0 - np.linalg.eigvalsh(a)[-2]
    xstar = np.linalg.solve(gram, w.T @ b)
    setup = (w, b, xstar, mu)
    x = np.zeros((N, D))
    weighted = np.zeros((N, D))
    for k in range(iterations):
        alpha = (4.0 / mu) / (k + 1)
        beta = min(1.0, (4.0 / gap) / float(k + 1) ** 0.75)
        grads = 2.0 * w * (np.einsum("ij,ij->i", x, w) - b)[:, None]
        weighted += (k + 1) * x
        x = (1.0 - beta) * x + beta * (a @ x) - alpha * grads
        yield k + 1, x, weighted, setup


def exact_twin(seed: int, iterations: int) -> tuple[float, float]:
    """(f_star, final f_gap_avg_max) of the exact twin after ``iterations``
    rounds; the output of agent i is the (k+1)-weighted average of its
    iterates."""
    for _, _, weighted, (w, b, xstar, _) in _iterate(seed, iterations):
        pass
    f_star = float(np.sum((w @ xstar - b) ** 2))
    z = weighted / (iterations * (iterations + 1) / 2.0)
    values = np.sum((z @ w.T - b) ** 2, axis=1)
    return f_star, float(values.max() - f_star)


def leaves_certified_range(seed: int, rounds: int = 100) -> int | None:
    """First round k <= ``rounds`` at which the exact iterate leaves the
    growing range C * sum_{t<k} alpha_t, or None.

    C is the certified per-agent gradient bound on the box
    ||x||_inf <= 4 max|x*| + 1. On such an instance the simulator stops with
    a gradient-bound violation (exit code 2) in both twins.
    """
    alpha_sum = 0.0
    for k, x, _, (w, b, xstar, mu) in _iterate(seed, rounds):
        radius = 4.0 * float(np.abs(xstar).max()) + 1.0
        bound = float(np.max(2.0 * np.linalg.norm(w, axis=1)
                             * (np.abs(w).sum(axis=1) * radius + np.abs(b))))
        alpha_sum += (4.0 / mu) / k
        if float(np.abs(x).max()) > bound * alpha_sum * (1.0 + 1e-9):
            return k
    return None
