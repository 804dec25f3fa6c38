"""Every constant of a run, and the steps and ranges made from them.

A Schedule holds mu, L, the gradient bound C, d, n, the bits b and the
spectral gap 1 - sigma2. The gradient step alpha_k = (4/mu)/(k+1) decays
harmonically; the consensus mixing weight beta_k = (4/(1-sigma2))/(k+1)^(3/4)
decays more slowly, which is what separates the two time scales. The raw
beta sequence starts above 1, so by default it is clamped at ``beta_clamp``
to keep every update a convex combination; pass ``beta_clamp=None`` for the
raw values. Round k's quantizer interval is [-range(k), range(k)] with
range(k) = C * sum_{t<k} alpha_t, shared by encoder and decoder. gamma_k,
the decay envelope and the inequality checks read the same constants. Each
method takes a round or an array of rounds, and a value depends only on k.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .objective import RegressionObjective
from .quantizer import Grid


@dataclass
class Schedule:
    """A run's constants, with the steps and quantizer ranges they make."""

    mu: float
    lipschitz: float
    grad_bound: float
    dims: int
    n: int
    bits: int
    spectral_gap: float
    beta_clamp: float | None = 1.0
    _alpha_partials: np.ndarray = field(default_factory=lambda: np.zeros(1),
                                        repr=False, compare=False)

    def __post_init__(self):
        if min(self.mu, self.lipschitz, self.grad_bound, self.dims, self.n) <= 0:
            raise ValueError("mu, lipschitz, grad_bound, dims and n must be positive")
        if not (0.0 < self.spectral_gap <= 1.0):
            raise ValueError("spectral gap must be in (0, 1]")
        if not (1 <= self.bits <= 32):
            raise ValueError(f"bits must be in [1, 32], got {self.bits}")
        if self.beta_clamp is not None and self.beta_clamp <= 0.0:
            raise ValueError("beta clamp must be positive (or None to disable)")

    @classmethod
    def of(cls, objective: RegressionObjective, spectral_gap: float, bits: int,
           beta_clamp: float | None = 1.0) -> "Schedule":
        """A run's schedule: the objective's constants, the graph's gap, b = bits."""
        return cls(objective.mu, objective.lipschitz, objective.grad_bound, objective.dims,
                   objective.n, bits, spectral_gap, beta_clamp)

    @property
    def quantization(self) -> float:
        """(C d / (2^b - 1))^2, the squared bin width per unit summed step."""
        return (self.grad_bound * self.dims / (2 ** self.bits - 1)) ** 2

    def alpha(self, k):
        """Gradient step at round k (or an array of rounds)."""
        return (4.0 / self.mu) / (k + 1)

    def beta(self, k):
        """Consensus weight at round k (or an array of rounds), clamped unless disabled."""
        raw = (4.0 / self.spectral_gap) / libm_power(np.asarray(k) + 1, 0.75)
        return raw if self.beta_clamp is None else np.minimum(raw, self.beta_clamp)

    def alpha_sum(self, k):
        """Sum of alpha_t for t < k (or an array of rounds), accumulated term by term in
        one table, grown in blocks and summed on as np.cumsum (add.accumulate) sums, so
        a value depends only on k. Range and bin-width computations all read this one
        cumulative sum, so encoder, decoder, and diagnostics agree bitwise."""
        k = np.asarray(k)
        if k.min(initial=0) < 0:
            raise ValueError("k must be nonnegative")
        size, last = len(self._alpha_partials), k.max(initial=0)
        if last >= size:  # no temporary as large as the table
            table = np.empty(max(last + 1, 2 * size))
            table[:size] = self._alpha_partials
            for lo in range(size, len(table), 4096):
                ks = np.arange(lo - 1.0, min(lo + 4095, len(table) - 1))
                table[lo:lo + 4096] = self.alpha(ks)
            self._alpha_partials = table
            np.add.accumulate(table[size - 1:], out=table[size - 1:])
        return self._alpha_partials[k]

    def grid(self, k) -> Grid:
        """Round k's grid (or that of an array of rounds): range(k) = C * sum_{t<k}
        alpha_t and bin width delta = 2 range(k) / (2^b - 1) per coordinate. One
        vector draw errs by at most sqrt(d) delta in norm (the convergence constants
        use the coarser d delta)."""
        rangek = self.grad_bound * self.alpha_sum(k)
        bins = (1 << self.bits) - 1
        return Grid(k, rangek, 2.0 * rangek / bins, bins)


def libm_power(base, exponent: float):
    """base ** exponent by libm pow, as for a Python float, elementwise over an array
    of any shape: numpy's vectorised power can differ from it in the last bit."""
    base = np.asarray(base, dtype=np.float64)
    return np.array([b ** exponent for b in base.ravel().tolist()]).reshape(base.shape)
