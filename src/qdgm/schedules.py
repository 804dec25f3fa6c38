"""Two-time-scale diminishing step sequences.

The gradient step alpha_k = (4/mu)/(k+1) decays harmonically; the consensus
mixing weight beta_k = (4/(1-sigma2))/(k+1)^(3/4) decays more slowly, which
is what separates the two time scales. The raw beta sequence starts above 1,
so by default it is clamped at ``beta_clamp`` to keep every update a convex
combination; pass ``beta_clamp=None`` for the raw values.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class StepSchedule:
    mu: float
    spectral_gap: float
    beta_clamp: float | None = 1.0
    _alpha_partials: np.ndarray = field(default_factory=lambda: np.zeros(1),
                                        repr=False, compare=False)

    def __post_init__(self):
        if self.mu <= 0.0:
            raise ValueError("mu must be positive")
        if not (0.0 < self.spectral_gap <= 1.0):
            raise ValueError("spectral gap must be in (0, 1]")
        if self.beta_clamp is not None and self.beta_clamp <= 0.0:
            raise ValueError("beta clamp must be positive (or None to disable)")

    def alpha(self, k):
        """Gradient step at round k (elementwise for an array of rounds)."""
        return (4.0 / self.mu) / (k + 1)

    def beta(self, k):
        """Consensus weight at round k (or an array of rounds), clamped unless disabled."""
        raw, clamp = (4.0 / self.spectral_gap) / libm_power(k + 1, 0.75), self.beta_clamp
        if clamp is None:
            return raw
        return min(raw, clamp) if isinstance(k, int) else np.minimum(raw, clamp)

    def alpha_sum(self, k):
        """Sum of alpha_t for t < k (or an array of rounds), accumulated term by term in
        one table, grown in blocks and summed on as np.cumsum (add.accumulate) sums, so
        a value depends only on k. Range and bin-width computations all read this one
        cumulative sum, so encoder, decoder, and diagnostics agree bitwise."""
        first, last = (k, k) if isinstance(k, int) else (k.min(initial=0), k.max(initial=0))
        if first < 0:
            raise ValueError("k must be nonnegative")
        size = len(self._alpha_partials)
        if last >= size:  # no temporary as large as the table
            table = np.empty(max(last + 1, 2 * size))
            table[:size] = self._alpha_partials
            for lo in range(size, len(table), 4096):
                ks = np.arange(lo - 1.0, min(lo + 4095, len(table) - 1))
                table[lo:lo + 4096] = self.alpha(ks)
            self._alpha_partials = table
            np.add.accumulate(table[size - 1:], out=table[size - 1:])
        partials = self._alpha_partials[k]
        return float(partials) if isinstance(k, int) else partials


def libm_power(base, exponent: float):
    """base ** exponent by libm pow, as for a Python float, elementwise for a 1-D
    array: numpy's vectorised power can differ from it in the last bit."""
    if not isinstance(base, np.ndarray):
        return float(base) ** exponent
    return np.array([b ** exponent for b in base.astype(np.float64).tolist()])
