"""Stochastic rounding quantizer with a growing range and a bit-exact codec.

A scalar x in [lower, upper] is rounded to one of the two bracketing
endpoints of a uniform grid with 2^b - 1 bins of width delta: the index
min(floor(t + 1 - u), 2^b - 1), t = (x - lower)/delta, u uniform in [0, 1),
picks the upper one when u <= frac(t), up to rounding: probability frac(t).
This makes the quantizer unbiased, keeps every draw within one bin width of
x, and bounds the conditional variance by delta^2/4.

For the distributed iteration the interval at round k is
[-range(k), range(k)] with range(k) = C * sum_{t<k} alpha_t, the Grid that
the run's ``schedules.Schedule.grid(k)`` makes. Both sides of a link derive
the identical interval from shared configuration, so a message needs only
the b-bit endpoint indices and no side information.
Index 0 is round 0, where every iterate is exactly zero and the range is
empty: every index is zero, no randomness is drawn and nothing needs to
cross a link.

One quantize step, :func:`_quantize_values`, serves the engine and the codec:
from iterates and one complement 1 - u per entry it makes the float indices,
their values and max |q - x|. The engine reads the values, and
:func:`quantize_matrix` the indices, as int64; a test ties the values bit for
bit to :func:`decode_matrix` of the indices. :func:`pack_index_rows` packs
each row's d indices MSB-first in coordinate order, zero-padded to
ceil(d*b/8) bytes, and :func:`unpack_indices` is its exact inverse.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import GradientBoundError, QuantizationSupportError

# relative width of the band around the interval ends that is clamped
# rather than rejected; beyond it an input is a genuine model violation
CLAMP_BAND = 1e-9


class Grid(NamedTuple):
    """Round k's interval [-range, range], cut into ``bins`` bins of width delta."""

    k: int
    range: float
    delta: float
    bins: int


def check_range(x: np.ndarray, rangek: float, k: int) -> float:
    """Return max_i ||x^i||_inf; raise GradientBoundError when it exceeds the
    round-k range by more than the clamp band, or is NaN. For an (R, n, d)
    stack with R > 1 the message also names the replica, the slice index r."""
    worst = float(np.maximum.reduce(np.abs(x), axis=None))
    if not worst <= rangek * (1.0 + CLAMP_BAND):  # NaN fails too
        where = np.unravel_index(np.argmax(np.abs(x)), x.shape)
        who = f"agent {where[-2]}"
        if x.ndim == 3 and x.shape[0] > 1:
            who += f" of replica {where[0]}"
        raise GradientBoundError(
            f"gradient-bound violation: {who} reached {worst} at round "
            f"{k}, outside quantization range +-{rangek}")
    return worst


def _stochastic_round(values, lower, delta, nbins, complements):
    """The one rounding body: float indices idx = min(floor(t + v), nbins) for
    t = (values - lower)/delta and complements v = 1 - u in (0, 1], their values
    q = lower + idx * delta, and max |q - values|. With values in [lower,
    lower + nbins*delta] and delta > 0, t >= 0, so no index needs a clip at 0."""
    idx = values - lower  # t, until the complements are added
    idx /= delta
    idx += complements
    np.floor(idx, out=idx)
    np.minimum(idx, nbins, out=idx)
    q = lower + idx * delta
    err = q - values
    worst = np.maximum.reduce(np.abs(err, out=err), axis=None)
    if worst > delta:
        # one-ulp guard: rounding can put a pick just over one bin width away
        # (or at floor(t) + 2, for t one ulp below 2^j and v = 1); take the
        # other bracketing endpoint so the support bound holds on every draw
        base = np.minimum(np.floor((values - lower) / delta), nbins - 1)
        idx = np.where(err > delta, np.where(idx == base + 1.0, base, base + 1.0), idx)
        q = lower + idx * delta
        worst = np.maximum.reduce(np.abs(q - values), axis=None)
    return idx, q, worst


def _quantize_values(x, grid: Grid, complements):
    """The one quantize step: float indices, their decoded values and max |q - x|, for
    ``complements`` 1 - u of u = rng.random(x.shape). Clamp-band inputs snap; farther out,
    or NaN, raises GradientBoundError; a value farther from its input than one bin width
    plus the clamp band (at round 0: any nonzero input) raises QuantizationSupportError."""
    if grid.k == 0:  # every index is zero and no uniform is drawn
        idx = q = np.zeros(x.shape)
        worst = np.maximum.reduce(np.abs(x), axis=None)
    else:
        checked_max = check_range(x, grid.range, grid.k)
        values = x if checked_max <= grid.range else np.clip(x, -grid.range, grid.range)
        idx, q, worst = _stochastic_round(values, -grid.range, grid.delta, grid.bins,
                                          complements)
        if values is not x:  # after a snap |q - x| differs
            worst = np.maximum.reduce(np.abs(q - x), axis=None)
    # the exact per-draw bound, plus the clamp-band displacement allowed for
    # inputs right at the range boundary
    worst, support = float(worst), grid.delta + 2.0 * grid.range * CLAMP_BAND
    if not worst <= support:  # NaN fails too
        raise QuantizationSupportError(
            f"decoded value {worst} away from its input at round {grid.k}, "
            f"beyond the support bound {support}")
    return idx, q, worst


def quantize_matrix(x: np.ndarray, grid: Grid, rng) -> np.ndarray:
    """Quantize (n, d) rows, or an (R, n, d) stack, to int64 grid indices.

    ``rng``, one np.random.Generator, draws one uniform per (replica, agent,
    coordinate) in row-major order. Inputs inside the clamp band are snapped to
    the interval; farther out, or NaN, raises GradientBoundError before any draw."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    check_range(x, grid.range, grid.k)  # round 0's too, and before any draw
    complements = None if grid.k == 0 else 1.0 - rng.random(x.shape)
    return _quantize_values(x, grid, complements)[0].astype(np.int64)


def decode_matrix(indices: np.ndarray, grid: Grid) -> np.ndarray:
    """Rebuild the endpoint values -range(k) + index * delta(k).

    Encoder and decoder evaluate this one expression on the shared grid,
    so decoding unpacked wire indices is bit-exact.
    """
    return -grid.range + np.asarray(indices) * grid.delta


def pack_index_rows(indices: np.ndarray, bits: int) -> list[bytes]:
    """Pack each row's indices MSB-first into ceil(d*bits/8) bytes; each row
    is padded independently to a byte boundary."""
    arr = np.asarray(indices)
    if arr.min() < 0 or arr.max() > (1 << bits) - 1:
        raise ValueError(f"index outside [0, 2^{bits} - 1]")
    arr = arr.astype(np.uint64)
    shifts = np.arange(bits - 1, -1, -1, dtype=np.uint64)
    bitmat = ((arr[:, :, None] >> shifts) & np.uint64(1)).astype(np.uint8)
    rows, d = arr.shape
    packed = np.packbits(bitmat.reshape(rows, d * bits), axis=1)
    return [row.tobytes() for row in packed]


def unpack_indices(payload: bytes, bits: int, dims: int) -> np.ndarray:
    """Inverse of one row of :func:`pack_index_rows`; validates the payload length."""
    expected = (dims * bits + 7) // 8
    if len(payload) != expected:
        raise ValueError(
            f"payload length mismatch: got {len(payload)} bytes, "
            f"expected {expected}")
    raw = np.unpackbits(np.frombuffer(payload, np.uint8), count=dims * bits)
    weights = (np.uint64(1) << np.arange(bits - 1, -1, -1, dtype=np.uint64))
    return raw.reshape(dims, bits).astype(np.uint64) @ weights
