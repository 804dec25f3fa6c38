import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import schedule
from qdgm.algorithm import RECORD_BLOCK
from qdgm.schedules import libm_power


@pytest.mark.parametrize("mu,k,expected", [(4.0, 0, 1.0), (4.0, 3, 0.25), (2.0, 7, 0.25)])
def test_alpha_values(mu, k, expected):
    assert schedule(mu=mu).alpha(k) == expected


def test_beta_raw_and_clamped():
    raw = schedule(mu=4.0, beta_clamp=None)
    assert raw.beta(0) == 8.0
    clamped = schedule(mu=4.0, beta_clamp=1.0)
    assert clamped.beta(0) == 1.0
    # 256^(3/4) = 64 exactly
    assert raw.beta(255) == pytest.approx(0.125, abs=1e-15)


def test_beta_nonincreasing():
    sched = schedule(spectral_gap=0.3)
    betas = [sched.beta(k) for k in range(500)]
    assert all(b2 <= b1 for b1, b2 in zip(betas, betas[1:]))


def test_alpha_sum_matches_direct_summation():
    sched = schedule(mu=4.0)
    assert sched.alpha_sum(0) == 0.0
    for k in (1, 2, 17, 400):
        direct = sum(1.0 / (t + 1) for t in range(k))
        assert sched.alpha_sum(k) == pytest.approx(direct, rel=1e-14)
    # the prefix sums are built from the step itself, so they agree bit for
    # bit with a running sum of alpha(t)
    for mu in (4.0, 3.0, 0.37):
        sched = schedule(mu=mu)
        partial = np.cumsum([sched.alpha(t) for t in range(400)])
        for k in (1, 2, 17, 399, 400):
            assert sched.alpha_sum(k) == partial[k - 1]


def test_alpha_sum_independent_of_access_order():
    a = schedule(mu=3.0, spectral_gap=0.4)
    b = schedule(mu=3.0, spectral_gap=0.4)
    a.alpha_sum(10)
    a.alpha_sum(5000)
    values_a = [a.alpha_sum(k) for k in (10, 123, 5000)]
    b.alpha_sum(5000)
    values_b = [b.alpha_sum(k) for k in (10, 123, 5000)]
    assert values_a == values_b  # bitwise, not approximately


def test_a_round_and_any_array_of_rounds_evaluate_alike():
    # one path: an int, a 0-d array and an (8, 25) array of rounds give the same bits
    sched = schedule(mu=0.37, spectral_gap=0.4)
    ks = np.arange(200).reshape(8, 25)
    for method in (sched.alpha, sched.beta, sched.alpha_sum):
        table = method(ks)
        assert table.shape == ks.shape
        for k in range(200):
            assert method(k) == method(np.asarray(k)) == table.flat[k], (method, k)
    assert libm_power(np.asarray(16.0), 0.75) == 8.0
    assert libm_power(ks + 1, 0.75).shape == ks.shape


def _grown_to(rounds):
    """A schedule whose table grew as a run's engine grows it: round 0 and range(1),
    then RECORD_BLOCK rounds and the next round's range at a time."""
    sched = schedule(mu=0.37, spectral_gap=0.4)
    starts = [0, *range(1, rounds, RECORD_BLOCK), rounds]
    for lo, hi in zip(starts, starts[1:]):
        sched.alpha_sum(np.arange(lo, hi + 1))
    return sched


def test_alpha_sum_grown_through_every_doubling_equals_one_cumsum():
    # the table grows in place, summed on from its last partial; that must be
    # the sequential sum a single np.cumsum gives, bit for bit
    sched = _grown_to(40_000)
    rounds = len(sched._alpha_partials) - 1
    direct = np.concatenate([[0.0], np.cumsum(sched.alpha(np.arange(rounds)))])
    assert sched.alpha_sum(np.arange(rounds + 1)).tobytes() == direct.tobytes()


def test_alpha_sum_growth_peak_stays_below_twice_the_table():
    tracemalloc.start()
    try:
        sched = _grown_to(100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * sched._alpha_partials.nbytes


@settings(max_examples=30, deadline=None)
@given(mu=st.floats(0.1, 10), gap=st.floats(0.05, 1.0), k=st.integers(0, 3000))
def test_schedule_positivity_and_decay(mu, gap, k):
    sched = schedule(mu=mu, spectral_gap=gap)
    assert sched.alpha(k) > 0
    assert sched.alpha(k + 1) < sched.alpha(k)
    assert 0 < sched.beta(k) <= 1.0
    assert sched.alpha_sum(k + 1) > sched.alpha_sum(k)


@pytest.mark.parametrize("field,value", [
    ("mu", 0.0), ("mu", -1.0), ("lipschitz", 0.0), ("grad_bound", 0.0), ("dims", 0), ("n", 0),
    ("spectral_gap", 0.0), ("spectral_gap", -0.5), ("spectral_gap", 1.5), ("bits", 0),
    ("bits", 33), ("beta_clamp", 0.0), ("beta_clamp", -1.0)])
def test_schedule_refuses(field, value):
    specific = {"spectral_gap": r"^spectral gap must be in \(0, 1\]$",
                "bits": rf"^bits must be in \[1, 32\], got {value}$",
                "beta_clamp": "^beta clamp must be positive"}
    with pytest.raises(ValueError, match=specific.get(field, f"{field}.* must be positive$")):
        schedule(**{field: value})


def test_schedule_accepts_its_edge_values():
    assert schedule(mu=4.0, bits=1).grid(3).bins == 1
    assert schedule(mu=4.0, bits=5).grid(3).bins == 31
    assert schedule(mu=4.0, bits=32).grid(3).bins == 2 ** 32 - 1
    assert schedule(spectral_gap=1.0).spectral_gap == 1.0
    assert schedule(beta_clamp=None).beta(0) == 8.0
