import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CountedArray, schedule
from qdgm.errors import GradientBoundError, QuantizationSupportError
from qdgm.quantizer import (CLAMP_BAND, decode_matrix, pack_index_rows,
                            quantize_matrix, unpack_indices, _quantize_values,
                            _stochastic_round)

# with mu=4 and grad_bound=1, range(2) = 1 + 1/2: two bits then give the
# exact grid -1.5, -0.5, 0.5, 1.5 with bin width 1
K_UNIT = 2


def round_indices(values, lower, delta, nbins, uniforms):
    """The rounding body's indices, as int64, for the draws u; it reads 1 - u."""
    idx = _stochastic_round(values, lower, delta, nbins, 1.0 - uniforms)[0]
    return idx.astype(np.int64)


def test_scalar_on_lower_endpoint_is_deterministic():
    sched = schedule(mu=4.0, bits=2)
    x = np.full((50, 1), -sched.grid(K_UNIT).range)
    idx = quantize_matrix(x, sched.grid(K_UNIT), np.random.default_rng(0))
    assert np.all(idx == 0)
    assert np.all(decode_matrix(idx, sched.grid(K_UNIT)) == -1.5)


def test_scalar_on_upper_endpoint_is_deterministic():
    sched = schedule(mu=4.0, bits=2)
    x = np.full((50, 1), sched.grid(K_UNIT).range)
    idx = quantize_matrix(x, sched.grid(K_UNIT), np.random.default_rng(0))
    assert np.all(idx == 3)
    assert np.all(decode_matrix(idx, sched.grid(K_UNIT)) == 1.5)


def test_scalar_interior_probabilities():
    # x=-0.1 on [-1.5, 1.5] with 2 bits: bin width 1, lands on -0.5 w.p. 0.6,
    # 0.5 w.p. 0.4
    sched = schedule(mu=4.0, bits=2)
    n = 100_000
    idx = quantize_matrix(np.full((n, 1), -0.1), sched.grid(K_UNIT),
                          np.random.default_rng(99))
    vals = decode_matrix(idx, sched.grid(K_UNIT))
    assert set(np.unique(vals)) == {-0.5, 0.5}
    p_up = np.mean(vals == 0.5)
    se = np.sqrt(0.4 * 0.6 / n)
    assert abs(p_up - 0.4) <= 3 * se


def test_scalar_range_check_and_clamp_band():
    sched = schedule(mu=4.0, bits=2)
    rng = np.random.default_rng(0)
    with pytest.raises(GradientBoundError, match="outside quantization range"):
        quantize_matrix([[1.6]], sched.grid(K_UNIT), rng)
    # the band is CLAMP_BAND * range on each side, as in the run invariant
    with pytest.raises(GradientBoundError):
        quantize_matrix([[1.5 * (1.0 + 2.0 * CLAMP_BAND)]], sched.grid(K_UNIT), rng)
    # NaN is outside every range, not a silent garbage index
    with pytest.raises(GradientBoundError, match="reached nan"):
        quantize_matrix([[np.nan, 0.1]], sched.grid(K_UNIT), rng)
    # inside the clamp band: snapped to the endpoint instead of rejected
    idx = quantize_matrix([[1.5 + 1e-10]], sched.grid(K_UNIT), rng)
    assert idx.tolist() == [[3]]
    assert decode_matrix(idx, sched.grid(K_UNIT)).tolist() == [[1.5]]


def test_quantize_matrix_equals_the_clamped_rounding():
    # the clamp is skipped when no entry lies in the clamp band; with or
    # without a band entry the indices are those of the clamped input
    grid = schedule(mu=4.0, bits=16).grid(5)
    r = grid.range
    inside = np.random.default_rng(11).uniform(-r, r, size=(3, 4, 2))
    inside[0, 0, 0], inside[1, 2, 1] = r, -r
    banded = inside.copy()
    banded[2, 3, 0] = r * (1.0 + 0.5 * CLAMP_BAND)
    for x in (inside, banded):
        uniforms = np.random.default_rng(5).random(x.shape)
        want = round_indices(np.clip(x, -r, r), -r, grid.delta, grid.bins, uniforms)
        assert np.array_equal(quantize_matrix(x, grid, np.random.default_rng(5)), want)


def test_scalar_value_is_reconstruction_of_index():
    rng = np.random.default_rng(4)
    for _ in range(200):
        sched = schedule(mu=4.0, bits=int(rng.integers(1, 9)),
                         grad_bound=rng.uniform(0.1, 10))
        k = int(rng.integers(1, 50))
        rangek, delta = sched.grid(k).range, sched.grid(k).delta
        x = rng.uniform(-rangek, rangek, size=(1, 3))
        idx = quantize_matrix(x, sched.grid(k), rng)
        val = decode_matrix(idx, sched.grid(k))
        assert np.array_equal(val, -rangek + idx * delta)
        assert np.abs(val - x).max() <= delta


def test_vector_example_bit_packing():
    # one-bit grid over [-1, 1]: (-1, 1) maps to indices (0, 1), byte 0x40
    sched = schedule(mu=4.0, bits=1)  # mu=4 so alpha_0 = 1, range(1) = 1
    assert sched.grid(1).range == 1.0
    idx = quantize_matrix(np.array([[-1.0, 1.0]]), sched.grid(1),
                          np.random.default_rng(0))
    assert idx.tolist() == [[0, 1]]
    assert pack_index_rows(idx, 1) == [b"\x40"]
    assert np.allclose(decode_matrix(idx, sched.grid(1)), [[-1.0, 1.0]])


def test_vector_zero_input_unbiased():
    # zero vector sits mid-bin; over many draws the mean must stay near 0
    sched = schedule(mu=4.0, bits=3)
    k = 2
    delta = sched.grid(k).delta
    rng = np.random.default_rng(31)
    n = 100_000
    block = np.zeros((n, 2))
    decoded = decode_matrix(quantize_matrix(block, sched.grid(k), rng), sched.grid(k))
    se = delta / (2.0 * np.sqrt(n))
    assert np.abs(decoded.mean(axis=0)).max() <= 3 * se


def test_vector_lattice_points_are_fixed():
    sched = schedule(mu=4.0, bits=4)
    k = 5
    rangek, delta = sched.grid(k).range, sched.grid(k).delta
    rng = np.random.default_rng(2)
    lattice = -rangek + np.array([[0, 7, 15]]) * delta
    idx = quantize_matrix(lattice, sched.grid(k), rng)
    assert np.array_equal(decode_matrix(idx, sched.grid(k)), lattice)
    assert idx.tolist() == [[0, 7, 15]]


def test_vector_range_violation_names_agent():
    sched = schedule(mu=4.0, bits=4)
    x = np.zeros((3, 2))
    x[2, 1] = sched.grid(1).range * 1.5
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(GradientBoundError, match="agent 2"):
        quantize_matrix(x, sched.grid(1), rng)
    # the range is checked before any draw, so a rejected input draws nothing
    assert rng.bit_generator.state == before


def test_round0_message_convention():
    # the round-0 range is empty: all-zero indices, decoded to exact zeros,
    # and no randomness is drawn
    sched = schedule(mu=4.0, bits=4)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    idx = quantize_matrix(np.zeros((2, 3)), sched.grid(0), rng)
    assert rng.bit_generator.state == before
    assert idx.shape == (2, 3) and np.all(idx == 0)
    assert np.array_equal(decode_matrix(idx, sched.grid(0)), np.zeros((2, 3)))


@pytest.mark.parametrize("bits,dims", [(1, 3), (6, 2), (16, 5), (32, 7)])
def test_wire_boundary_roundtrip_of_engine_indices(bits, dims):
    # what the engine carries and what a receiver decodes from the packed
    # bytes agree: equal indices and bit-equal values
    sched = schedule(mu=4.0, bits=bits)
    k = 7
    rng = np.random.default_rng(bits * 100 + dims)
    x = rng.uniform(-sched.grid(k).range, sched.grid(k).range, size=(40, dims))
    idx = quantize_matrix(x, sched.grid(k), rng)
    payloads = pack_index_rows(idx, bits)
    assert all(len(p) == (dims * bits + 7) // 8 for p in payloads)
    received = np.array([unpack_indices(p, bits, dims) for p in payloads])
    assert np.array_equal(received, idx)
    assert np.array_equal(decode_matrix(received, sched.grid(k)),
                          decode_matrix(idx, sched.grid(k)))


def test_decode_rejects_wrong_payload_length():
    with pytest.raises(ValueError, match="payload length mismatch"):
        unpack_indices(b"\x00" * 3, 8, 4)


def test_decode_all_zero_payload_gives_lower_endpoint():
    sched = schedule(mu=4.0, bits=8)
    idx = unpack_indices(b"\x00" * 4, 8, 4)
    assert np.all(decode_matrix(idx, sched.grid(3)) == -sched.grid(3).range)


def test_delta_schedule_values():
    # mu=4 gives alpha_t = 1/(t+1); one bit means delta = 2 * range
    sched = schedule(mu=4.0, bits=1)
    assert sched.grid(0).delta == 0.0
    assert sched.grid(3).delta == pytest.approx(2 * (1 + 0.5 + 1 / 3), rel=1e-15)
    with pytest.raises(ValueError, match="nonnegative"):
        sched.grid(-1).delta


def test_delta_growth_is_logarithmic():
    sched = schedule(mu=4.0, bits=1)
    k = 2_000_000
    assert sched.grid(k).delta / (2.0 * np.log(k)) == pytest.approx(1.0, rel=5e-2)


def test_delta_monotone():
    sched = schedule(mu=4.0, bits=5)
    deltas = [sched.grid(k).delta for k in range(200)]
    assert all(b >= a for a, b in zip(deltas, deltas[1:]))


@settings(max_examples=60, deadline=None)
@given(
    bits=st.sampled_from([1, 2, 8, 16]),
    dims=st.sampled_from([1, 5, 7]),
    seed=st.integers(0, 2**31),
)
def test_codec_roundtrip_random_indices(bits, dims, seed):
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, 2 ** bits, size=dims)
    payload = pack_index_rows(indices[None], bits)[0]
    assert len(payload) == (dims * bits + 7) // 8
    assert np.array_equal(unpack_indices(payload, bits, dims), indices)


def test_pack_rejects_out_of_range_indices():
    with pytest.raises(ValueError, match="index outside"):
        pack_index_rows(np.array([[0, 4]]), 2)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    bits=st.integers(1, 10),
)
def test_stochastic_round_support_bound_exact(seed, bits):
    # every single draw stays within one bin width, with no tolerance
    rng = np.random.default_rng(seed)
    nbins = 2 ** bits - 1
    lower, upper = -3.0, 5.0
    delta = (upper - lower) / nbins
    x = rng.uniform(lower, upper, size=500)
    idx = round_indices(x, lower, delta, nbins, rng.random(500))
    rec = lower + idx * delta
    assert np.abs(rec - x).max() <= delta
    assert idx.min() >= 0 and idx.max() <= nbins


def _two_sided_round(values, lower, delta, nbins, uniforms):
    """The earlier two-sided rule, kept only as a reference: the upper of the
    bracketing endpoints base, base + 1 when u < frac, then the one-ulp guard.
    Returns the int64 indices and frac."""
    base = np.clip(np.floor((values - lower) / delta), 0, nbins - 1)
    frac = np.clip((values - (lower + base * delta)) / delta, 0.0, 1.0)
    idx = base + (uniforms < frac)
    bad = np.abs((lower + idx * delta) - values) > delta
    return np.where(bad, 2.0 * base + 1.0 - idx, idx).astype(np.int64), frac


def _unguarded_round(values, lower, delta, nbins, uniforms):
    """The one-pass pick min(floor(t + 1 - u), nbins) before the guard."""
    return np.minimum(np.floor((values - lower) / delta + (1.0 - uniforms)), nbins)


def _bin_ends(lower, upper, delta, nbins):
    """Every bin end and the floats one ulp on each side, clamped to the range."""
    ends = lower + np.arange(nbins + 1) * delta
    values = np.concatenate([ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf)])
    return np.minimum(np.maximum(values, lower), upper)  # as quantize_matrix clamps


EXTREME_UNIFORMS = (0.0, 0.5, np.nextafter(1.0, 0.0))


def assert_rounding_contract(values, lower, delta, nbins):
    # with each extreme uniform: indices in [0, nbins], every draw within one
    # bin width, and the two-sided rule's endpoint wherever u is no tie and
    # t + 1 - u does not round past floor(t) + 1 (which takes u = 0)
    for u in EXTREME_UNIFORMS:
        uniforms = np.full(values.shape, u)
        idx = round_indices(values, lower, delta, nbins, uniforms)
        assert idx.min() >= 0 and idx.max() <= nbins
        assert np.abs(lower + idx * delta - values).max() <= delta
        want, frac = _two_sided_round(values, lower, delta, nbins, uniforms)
        overshoot = (_unguarded_round(values, lower, delta, nbins, uniforms)
                     > np.floor((values - lower) / delta) + 1.0)
        away = (np.abs(u - frac) > 1e-9) & ~overshoot
        assert np.array_equal(idx[away], want[away])
        if u > 0.0:
            assert not overshoot.any()
        if u == 0.5:
            assert away.all()


@pytest.mark.parametrize("bits", [2, 3, 5, 8])
def test_stochastic_round_needs_no_frac_clamp(bits):
    # on and one ulp around every bin end the two-sided rule's unclamped frac
    # leaves [0, 1]; the one-pass rule has no frac and keeps the contract
    nbins = 2 ** bits - 1
    lower, upper = -3.0, 5.0
    delta = (upper - lower) / nbins
    values = _bin_ends(lower, upper, delta, nbins)
    base = np.clip(np.floor((values - lower) / delta), 0, nbins - 1)
    frac = (values - (lower + base * delta)) / delta
    assert np.any((frac < 0.0) | (frac > 1.0))
    assert_rounding_contract(values, lower, delta, nbins)


@pytest.mark.parametrize("bits", [1, 2, 5, 16])
@pytest.mark.parametrize("k", [1, 2, 37])
def test_stochastic_round_needs_no_lower_clip(bits, k):
    # clamped values satisfy values - lower >= 0 in IEEE arithmetic, so with
    # 1 - u in (0, 1] no index leaves bin 0 from below: at lower, one ulp above
    # it and on and one ulp around every bin end the contract holds unclipped
    grid = schedule(mu=4.0, bits=bits).grid(k)
    lower, upper, delta, nbins = -grid.range, grid.range, grid.delta, grid.bins
    values = np.concatenate([[lower, np.nextafter(lower, np.inf)],
                             _bin_ends(lower, upper, delta, nbins)])
    assert np.floor((values - lower) / delta).min() == 0.0
    assert_rounding_contract(values, lower, delta, nbins)


@pytest.mark.parametrize("bits", [1, 2, 6, 16, 32])
def test_upper_end_with_zero_uniform_takes_the_last_index(bits):
    # x = upper and u = 0 make t + 1 - u = nbins + 1: the index is nbins, never
    # nbins + 1, and the wire accepts it
    grid = schedule(mu=4.0, bits=bits).grid(3)
    x = np.full((2, 3), grid.range)
    idx = quantize_matrix(x, grid, FixedUniforms(0.0))
    assert np.all(idx == grid.bins)
    payloads = pack_index_rows(idx, bits)
    assert np.array_equal([unpack_indices(p, bits, 3) for p in payloads], idx)
    _, q, err = _quantize_values(x[None], grid, np.ones((1, 2, 3)))
    assert q[0].tobytes() == decode_matrix(idx, grid).tobytes()
    assert err <= grid.delta


@pytest.mark.parametrize("bits", [2, 5, 16])
def test_guard_takes_the_near_endpoint_when_t_rounds_past_a_power_of_two(bits):
    # with u = 0, t one ulp below 2^j makes t + 1 round up to 2^j + 1, two
    # indices above floor(t); every pick stays within one bin width, and where
    # the guard flips one it takes 2^j, not 2 floor(t) + 1 - idx = 2^j - 2
    nbins = 2 ** bits - 1
    t = np.nextafter(2.0 ** np.arange(bits), 0.0)  # lower 0 and delta 1: t = values
    zeros = np.zeros(t.shape)
    unguarded = _unguarded_round(t, 0.0, 1.0, nbins, zeros)
    assert np.array_equal(unguarded, np.floor(t) + 2.0)
    idx = round_indices(t, 0.0, 1.0, nbins, zeros)
    flipped = idx != unguarded
    assert flipped.any()
    assert np.array_equal(idx[flipped], np.floor(t[flipped]) + 1.0)
    assert np.abs(idx - t).max() <= 1.0


@pytest.mark.parametrize("bits", [6, 16])
def test_one_pass_rule_matches_the_two_sided_rule_off_ties(bits):
    # on a million random draws the two rules pick the same endpoint wherever
    # u is farther than 1e-9 from frac, which is nearly everywhere
    grid = schedule(mu=4.0, bits=bits).grid(9)
    lower, delta, nbins = -grid.range, grid.delta, grid.bins
    rng = np.random.default_rng(bits)
    values = rng.uniform(lower, grid.range, size=1_000_000)
    uniforms = rng.random(values.shape)
    idx = round_indices(values, lower, delta, nbins, uniforms)
    want, frac = _two_sided_round(values, lower, delta, nbins, uniforms)
    away = np.abs(uniforms - frac) > 1e-9
    assert away.mean() > 0.9999
    assert np.array_equal(idx[away], want[away])


def test_round_endpoints_fast_path_makes_ten_numpy_calls():
    # the one-pass body, without a guard flip, is ten ufunc calls and nothing else
    grid = schedule(mu=4.0, bits=16).grid(5)
    rng = np.random.default_rng(3)
    values = rng.uniform(-grid.range, grid.range, size=(2, 40, 5)).view(CountedArray)
    complements = (1.0 - rng.random(values.shape)).view(CountedArray)
    CountedArray.calls = 0
    idx, q, worst = _stochastic_round(values, -grid.range, grid.delta, grid.bins,
                                      complements)
    assert CountedArray.calls == 10
    assert worst <= grid.delta
    plain = _stochastic_round(values.view(np.ndarray), -grid.range, grid.delta, grid.bins,
                              complements.view(np.ndarray))
    assert np.array_equal(idx, plain[0]) and np.array_equal(q, plain[1]) and worst == plain[2]


class FixedUniforms:
    """A generator stand-in whose uniforms are all ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, shape):
        return np.full(shape, self.u)


def assert_engine_step_is_the_codec(x, grid, make_rng):
    # the engine's values are the decoded wire indices bit for bit, and its
    # error is their max distance from x
    indices = quantize_matrix(x, grid, make_rng())
    decoded = decode_matrix(indices, grid)
    idx, q, err = _quantize_values(x, grid, 1.0 - make_rng().random(x.shape))
    assert np.array_equal(idx, indices)
    assert q.dtype == decoded.dtype and q.shape == decoded.shape
    assert q.tobytes() == decoded.tobytes()
    assert err == np.abs(decoded - x).max()


@pytest.mark.parametrize("bits", [1, 2, 5, 16])
@pytest.mark.parametrize("replicas", [1, 3])
@pytest.mark.parametrize("k", [1, 5])
def test_engine_step_equals_the_codec(bits, replicas, k):
    grid = schedule(mu=4.0, bits=bits).grid(k)
    r = grid.range
    x = np.random.default_rng(bits + k).uniform(-r, r, size=(replicas, 6, 3))
    x[0, 0, 0], x[-1, 5, 2] = r, -r
    banded = x.copy()
    banded[-1, 2, 1] = r * (1.0 + 0.5 * CLAMP_BAND)
    # alone, the snapped entry's distance from its input is the whole error
    for values in (x, banded, banded[-1:, 2:3, 1:2]):
        assert_engine_step_is_the_codec(values, grid, lambda: np.random.default_rng(9))


@pytest.mark.parametrize("bits", [1, 2, 5, 16])
@pytest.mark.parametrize("replicas", [1, 3])
def test_engine_step_equals_the_codec_after_guard_flips(bits, replicas):
    # on and one ulp around every bin end, with the extreme uniforms, the
    # unguarded pick strays past one bin width for bits > 1, so the one-ulp
    # guard flips entries; the engine must not reuse the unflipped errors
    grid = schedule(mu=4.0, bits=bits).grid(1)
    lower = -grid.range
    x = np.tile(_bin_ends(lower, grid.range, grid.delta, grid.bins),
                replicas).reshape(replicas, -1, 1)
    flipped = False
    for u in EXTREME_UNIFORMS:
        assert_engine_step_is_the_codec(x, grid, lambda: FixedUniforms(u))
        unguarded = _unguarded_round(x, lower, grid.delta, grid.bins, np.full(x.shape, u))
        flipped |= bool(np.any(np.abs(lower + unguarded * grid.delta - x) > grid.delta))
    assert flipped == (bits > 1)


def test_engine_step_at_round_zero_sends_zeros():
    grid = schedule(mu=4.0, bits=4).grid(0)
    x = np.zeros((2, 3, 2))
    idx, q, err = _quantize_values(x, grid, None)
    assert np.array_equal(idx, quantize_matrix(x, grid, None))
    assert np.array_equal(q, decode_matrix(quantize_matrix(x, grid, None), grid))
    assert err == 0.0
    # round 0 sends zeros, so a nonzero input breaks the support bound
    x[1, 2, 0] = -0.5
    with pytest.raises(QuantizationSupportError, match=(
            "^decoded value 0.5 away from its input at round 0, beyond the "
            "support bound 0.0$")):
        _quantize_values(x, grid, None)
    # the codec refuses it too, as outside round 0's empty range
    with pytest.raises(GradientBoundError, match="at round 0, outside"):
        quantize_matrix(x, grid, None)


def test_variance_bound():
    sched = schedule(mu=4.0, bits=2)
    k = 4
    delta = sched.grid(k).delta
    rng = np.random.default_rng(8)
    x = np.full((50_000, 1), 0.3 * sched.grid(k).range)
    decoded = decode_matrix(quantize_matrix(x, sched.grid(k), rng), sched.grid(k))
    err = decoded - x
    second_moment = float((err ** 2).mean())
    se = float((err ** 2).std(ddof=1) / np.sqrt(err.size))
    assert second_moment <= delta ** 2 / 4.0 + 3.0 * se
