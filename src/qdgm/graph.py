"""Undirected connected communication graphs and their mixing matrices.

The mixing matrix follows the lazy Metropolis construction: for an edge
(i, j) the weight is 1/(2 max(deg_i, deg_j)), the diagonal absorbs the
remainder. The result is symmetric, doubly stochastic, and positive
semidefinite, so its second-largest eigenvalue sigma2 controls the
consensus contraction rate through the spectral gap 1 - sigma2.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GraphSamplingError, MixingError

STOCHASTICITY_TOL = 1e-12
EIGEN_TOL = 1e-10


@dataclass(frozen=True)
class NetworkTopology:
    """Undirected connected graph on agents 0..n-1.

    ``edges`` holds each undirected edge once as (i, j) with i < j, sorted.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def from_edges(cls, n: int, edges) -> "NetworkTopology":
        """Build and validate a topology from an iterable of agent pairs."""
        if n < 1:
            raise ValueError("agent count must be positive")
        canon = set()
        for i, j in edges:
            i, j = int(i), int(j)
            if i == j:
                raise ValueError(f"self-loop on agent {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
            canon.add((min(i, j), max(i, j)))
        topo = cls(n, tuple(sorted(canon)))
        if not is_connected(topo.adjacency()):
            raise ValueError("graph is not connected")
        return topo

    def adjacency(self) -> np.ndarray:
        """Symmetric boolean (n, n) adjacency matrix with an empty diagonal."""
        adj = np.zeros((self.n, self.n), dtype=bool)
        for i, j in self.edges:
            adj[i, j] = adj[j, i] = True
        return adj

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def is_connected(adj: np.ndarray) -> bool:
    """Whether agent 0 reaches every agent of a symmetric boolean adjacency."""
    reach = np.zeros(len(adj), dtype=bool)
    reach[0] = True
    while True:
        grown = reach | adj[reach].any(axis=0)
        if np.array_equal(grown, reach):
            return bool(reach.all())
        reach = grown


@dataclass(frozen=True)
class MixingMatrix:
    """Symmetric doubly stochastic averaging weights with cached sigma2."""

    entries: np.ndarray
    sigma2: float

    def __post_init__(self):
        self.entries.setflags(write=False)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def validate(self, topology: NetworkTopology) -> None:
        """MixingError unless the matrix is symmetric (so its row sums are its
        column sums), doubly stochastic, supported on ``topology`` and connected."""
        a = self.entries
        if not np.allclose(a, a.T, atol=0, rtol=0):
            raise MixingError("mixing matrix is not symmetric")
        if np.abs(a.sum(axis=0) - 1.0).max() > STOCHASTICITY_TOL:
            raise MixingError("column sums deviate from 1")
        if a.min() < 0.0 or a.max() > 1.0:
            raise MixingError("entries outside [0, 1]")
        allowed = topology.adjacency() | np.eye(self.n, dtype=bool)
        if np.any(a[~allowed] != 0.0):
            raise MixingError("nonzero weight on a non-edge")
        if self.sigma2 >= 1.0 - STOCHASTICITY_TOL:
            raise MixingError("disconnected or periodic mixing")


def generate_random_connected_graph(
    n: int,
    edge_probability: float,
    seed: int,
    retry_limit: int = 1000,
) -> NetworkTopology:
    """Sample a connected Erdos-Renyi graph, resampling whole graphs until connected.

    Deterministic for fixed (n, edge_probability, seed). Raises
    GraphSamplingError after ``retry_limit`` failed attempts.
    """
    if n < 2:
        raise ValueError("need at least 2 agents")
    if not (0.0 < edge_probability <= 1.0):
        raise ValueError("edge probability must be in (0, 1]")
    rng = np.random.default_rng(seed)
    for _ in range(retry_limit):
        upper = np.triu(rng.random((n, n)) < edge_probability, 1)
        if is_connected(upper | upper.T):
            return NetworkTopology.from_edges(n, zip(*np.nonzero(upper)))
    raise GraphSamplingError(
        f"could not sample connected graph (n={n}, p={edge_probability}, "
        f"{retry_limit} attempts)"
    )


def lazy_metropolis(topology: NetworkTopology) -> MixingMatrix:
    """Lazy Metropolis weights for a topology, with sigma2 from an eigen-solve."""
    if topology.n == 1:
        return MixingMatrix(np.ones((1, 1)), 0.0)
    adj = topology.adjacency()
    deg = adj.sum(1)
    a = np.where(adj, 1.0 / (2.0 * np.maximum(deg[:, None], deg[None, :])), 0.0)
    np.fill_diagonal(a, 1.0 - a.sum(axis=1))
    evals = np.linalg.eigvalsh(a)[::-1]  # descending
    # diagonal dominance (a_ii >= 1/2) keeps the whole spectrum nonnegative,
    # so the second-largest eigenvalue is also the second-largest magnitude
    if evals[-1] < -EIGEN_TOL:
        raise MixingError(f"unexpected negative eigenvalue {evals[-1]}")
    if abs(evals[0] - 1.0) > EIGEN_TOL:
        raise MixingError(f"leading eigenvalue {evals[0]} deviates from 1")
    return MixingMatrix(a, float(evals[1]))


def spectral_gap(matrix: MixingMatrix) -> float:
    """Return 1 - sigma2, the consensus contraction margin, in (0, 1]."""
    if matrix.sigma2 >= 1.0 - STOCHASTICITY_TOL:
        raise MixingError("disconnected or periodic mixing")
    return 1.0 - matrix.sigma2


def save_edge_list(topology: NetworkTopology, path) -> None:
    """Write the 'n m' header followed by one 'i j' line per edge (0-based)."""
    lines = [f"{topology.n} {topology.edge_count}"]
    lines += [f"{i} {j}" for i, j in topology.edges]
    Path(path).write_text("\n".join(lines) + "\n")


def load_edge_list(path) -> NetworkTopology:
    """Inverse of :func:`save_edge_list`."""
    raw = Path(path).read_text().split()
    if len(raw) < 2:
        raise ValueError(f"malformed edge-list file {path}")
    n, m = int(raw[0]), int(raw[1])
    flat = raw[2:]
    if len(flat) != 2 * m:
        raise ValueError(f"edge-list file {path} promises {m} edges, found {len(flat) // 2}")
    edges = [(int(flat[2 * t]), int(flat[2 * t + 1])) for t in range(m)]
    return NetworkTopology.from_edges(n, edges)


def path_topology(n: int) -> NetworkTopology:
    """Path graph 0-1-...-(n-1); handy small benchmark with a known slow gap."""
    return NetworkTopology.from_edges(n, [(i, i + 1) for i in range(n - 1)])
