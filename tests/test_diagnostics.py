import copy
import dataclasses
import math
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (CountedArray, ReplicaStreams, consensus_error, constants, global_value,
                      in_order_statistics, in_order_sum, running_averages, schedule)
from qdgm.algorithm import RECORD_BLOCK, collect_ensemble, run_experiment, run_round
from qdgm.cli import build_objective_from_config, build_topology
from qdgm.config import ExperimentConfig
from qdgm.diagnostics import (TRACE_COLUMNS, Trace, TraceRecord,
                              check_consensus_recursion, check_descent_recursion,
                              ensemble_statistics, eta_coupling, fit_loglog_slope, gamma_k,
                              lyapunov_value, make_record, rate_bound, rate_bound_terms,
                              stack_statistics)
from qdgm.graph import lazy_metropolis, path_topology, spectral_gap
from qdgm.objective import optimality_gaps, well_conditioned_instance
from qdgm.schedules import Schedule


# ---------------------------------------------------------------------------
# independently written direct transcriptions, kept deliberately separate
# from the implementations they check

def gamma_oracle(mu, L, C, d, n, bits, sigma2, sched, k):
    s = sum(sched.alpha(t) for t in range(k))
    bracket = 4.0 / ((1 - sigma2) * (k + 1) ** (3 / 2)) \
        + 320.0 * (L + 8 * L ** 2 / mu) * n ** 2 / ((1 - sigma2) ** 2 * (k + 1) ** (7 / 4))
    return 16.0 / (mu ** 2 * (k + 1) ** 2) \
        + 40.0 * L ** 2 * (L + 8 * L ** 2 / mu) / (mu ** 3 * (k + 1) ** (3 / 2)) \
        + bracket * (C * d / (2 ** bits - 1)) ** 2 * s ** 2


def rate_oracle(mu, L, C, d, n, bits, sigma2, v1, T):
    q = (C * d / (2 ** bits - 1)) ** 2
    return mu * v1 / (8 * (T + 1) ** 2) \
        + 2 / (T + 1) \
        + 16 / (3 * mu * (1 - sigma2)) * q * math.log(T) ** 2 / (T + 1) ** 0.5 \
        + 4 * n ** 2 * (L + 8 * L ** 2) / (1 - sigma2) ** 2 * q \
        * math.log(T) ** 2 / (T + 1) ** 0.75 \
        + 8 * L * (L + 8 * L ** 2 / mu) / (3 * mu ** 3) / (T + 1) ** 0.5


# ---------------------------------------------------------------------------


def test_consensus_error_of_identical_rows():
    assert consensus_error(np.ones((5, 3)) * 2.7) == 0.0


def test_consensus_error_two_scalar_rows():
    assert consensus_error(np.array([[0.0], [2.0]])) == pytest.approx(2.0)


def test_consensus_error_matches_recomputation():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((7, 4))
    direct = sum(np.sum((x[i] - x.mean(axis=0)) ** 2) for i in range(7))
    assert consensus_error(x) == pytest.approx(direct, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_consensus_error_invariances(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((6, 3))
    base = consensus_error(x)
    shift = rng.standard_normal(3)
    assert consensus_error(x + shift) == pytest.approx(base, abs=1e-12 * (1 + base))
    perm = rng.permutation(6)
    assert consensus_error(x[perm]) == pytest.approx(base, abs=1e-12 * (1 + base))


def test_lyapunov_reduces_to_r_sq_without_consensus_error():
    sched = schedule(mu=2.0)
    eta = eta_coupling(2.0, 3.0, 0.5, "body")
    assert lyapunov_value(0.0, 0.0, 4, sched, eta) == 0.0
    assert lyapunov_value(0.37, 0.0, 4, sched, eta) == 0.37


def test_lyapunov_consensus_term_is_linear_in_eta():
    sched = schedule(mu=2.0)
    r_sq, cons = 0.2, 1.4
    v1 = lyapunov_value(r_sq, cons, 6, sched, 1.0)
    v2 = lyapunov_value(r_sq, cons, 6, sched, 2.0)
    assert v2 - r_sq == pytest.approx(2.0 * (v1 - r_sq), rel=1e-12)


def test_eta_coupling_modes_differ():
    body = eta_coupling(1.0, 1.0, 0.5, "body")
    appendix = eta_coupling(1.0, 1.0, 0.5, "appendix")
    assert body == pytest.approx(2.0 * 9.0 / 0.5)
    assert appendix == pytest.approx(2.0 * 1.125 / 0.5)
    with pytest.raises(ValueError, match="unknown eta mode"):
        eta_coupling(1.0, 1.0, 0.5, "other")


def test_gamma_matches_independent_oracle():
    sched = schedule()
    for k in (1, 2, 10, 500):
        expected = gamma_oracle(1.0, 1.0, 1.0, 1, 1, 1, 0.5, sched, k)
        assert gamma_k(sched, k) == pytest.approx(expected, rel=1e-12)
    rich = schedule(mu=0.7, lipschitz=3.1, grad_bound=2.2, dims=5, n=40, bits=16,
                    spectral_gap=0.1)
    for k in (1, 33, 4000):
        expected = gamma_oracle(0.7, 3.1, 2.2, 5, 40, 16, 0.9, rich, k)
        assert gamma_k(rich, k) == pytest.approx(expected, rel=1e-12)


def test_gamma_requires_positive_round():
    with pytest.raises(ValueError):
        gamma_k(schedule(), 0)


def test_gamma_decays():
    sched = schedule()
    assert gamma_k(sched, 10 ** 6) < gamma_k(sched, 10 ** 3)


def test_gamma_quantization_term_vanishes_with_many_bits():
    fine = gamma_k(schedule(bits=32), 50)
    free = 16.0 / (1.0 * 51 ** 2) + 40.0 * (1 + 8) / 51 ** 1.5
    assert fine == pytest.approx(free, rel=1e-9)


def test_rate_bound_matches_independent_oracle():
    sched = schedule()
    for T in (1, 7, 100, 10_000):
        assert rate_bound(sched, T, 1.0) == \
            pytest.approx(rate_oracle(1, 1, 1, 1, 1, 1, 0.5, 1.0, T), rel=1e-12)
    rich = schedule(mu=2.8, lipschitz=45.0, grad_bound=15.0, dims=5, n=40, bits=16,
                    spectral_gap=0.1)
    for T in (1, 1000, 100_000):
        assert rate_bound(rich, T, 0.03) == pytest.approx(
            rate_oracle(2.8, 45.0, 15.0, 5, 40, 16, 0.9, 0.03, T), rel=1e-12)


def test_rate_bound_at_unit_horizon():
    terms = rate_bound_terms(schedule(), 1, 1.0)
    assert terms[2] == 0.0 and terms[3] == 0.0  # log(1) kills both
    assert terms[0] == pytest.approx(1.0 / 32.0)
    assert terms[1] == pytest.approx(1.0)
    assert rate_bound(schedule(), 1, 1.0) > 0


def test_rate_bound_monotone_beyond_ten():
    sched = schedule(mu=0.5, lipschitz=4.0, grad_bound=3.0, dims=4, n=10, bits=8,
                     spectral_gap=0.3)
    values = [rate_bound(sched, T, 2.0) for T in range(10, 4000, 13)]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_rate_bound_vanishes_asymptotically():
    values = [rate_bound(schedule(), T, 1.0) for T in (10 ** 8, 10 ** 10, 10 ** 12)]
    assert values[0] > values[1] > values[2]
    assert values[2] < 1e-2
    # dominant term scales as log(T)^2 / sqrt(T)
    scaled = [v * math.sqrt(T + 1) / math.log(T) ** 2
              for v, T in zip(values[1:], (10 ** 10, 10 ** 12))]
    assert scaled[1] == pytest.approx(scaled[0], rel=0.25)


def test_doubling_bits_quarters_the_quantization_terms():
    for bits in (2, 6, 12):
        t_b = rate_bound_terms(schedule(bits=bits), 100, 1.0)
        t_b1 = rate_bound_terms(schedule(bits=bits + 1), 100, 1.0)
        expected = ((2 ** bits - 1) / (2 ** (bits + 1) - 1)) ** 2
        for term in (2, 3):
            assert t_b1[term] / t_b[term] == pytest.approx(expected, rel=1e-12)
        if bits >= 6:  # the 1/4 approximation needs 2^b >> 1
            assert expected == pytest.approx(0.25, rel=0.02)


def test_rate_bound_argument_validation():
    # the measured round-1 value and the horizon are checked where they enter;
    # test_schedules checks the constants' refusals
    with pytest.raises(ValueError, match="v1"):
        rate_bound(schedule(), 10, -1e-300)
    with pytest.raises(ValueError, match="horizon"):
        rate_bound(schedule(), 0, 1.0)
    assert rate_bound(schedule(), 10, 0.0) > 0


@pytest.mark.parametrize("instance", ["default-40x5", "well-conditioned-4x2"])
def test_schedule_of_equals_hand_built_fields(instance):
    objective, mixing = _instance(instance)
    bits, gap = 16, spectral_gap(mixing)
    sched = Schedule.of(objective, gap, bits)
    assert sched == Schedule(objective.mu, objective.lipschitz, objective.grad_bound,
                             objective.dims, objective.n, bits, gap, 1.0)
    assert sched.mu == objective.mu
    assert sched.lipschitz == objective.lipschitz
    assert sched.grad_bound == objective.grad_bound
    assert sched.dims == objective.dims
    assert sched.n == objective.n
    assert sched.bits == bits
    assert sched.spectral_gap == gap
    assert Schedule.of(objective, gap, bits, None).beta_clamp is None


# ---------------------------------------------------------------------------
# Monte Carlo inequality checks

@pytest.fixture(scope="module")
def small_ensemble():
    obj = well_conditioned_instance(4, 2)
    mixing = lazy_metropolis(path_topology(4))
    return collect_ensemble(obj, mixing, iterations=80, seed=123, bits=5,
                            replicas=120)


def test_consensus_recursion_holds(small_ensemble):
    report = check_consensus_recursion(small_ensemble)
    assert report["name"] == "consensus_recursion"
    assert report["passed"]
    assert report["detail"]["violations"] == 0
    assert report["detail"]["worst_margin"] < 0


def test_descent_recursion_holds(small_ensemble):
    report = check_descent_recursion(small_ensemble)
    assert report["passed"]
    assert report["detail"]["violations"] == 0


def test_sabotaged_sigma2_is_detected(small_ensemble):
    # mis-stating the contraction by +0.5 pushes sigma2 past 1, flipping the
    # sign of the slack terms; the checker must flag it. Schedule rejects such
    # a spectral gap, so the fault is set on a copy past the check, which keeps
    # the run's beta_k (the checker reads them from the schedule)
    faulty = copy.copy(small_ensemble.schedule)
    faulty.spectral_gap -= 0.5
    faulty.beta = small_ensemble.schedule.beta
    assert 1.0 - faulty.spectral_gap > 1.0
    bad = dataclasses.replace(small_ensemble, schedule=faulty)
    report = check_consensus_recursion(bad)
    assert not report["passed"]
    assert report["detail"]["violations"] > 0


def test_insufficient_replicas_rejected(small_ensemble):
    obj = well_conditioned_instance(4, 2)
    mixing = lazy_metropolis(path_topology(4))
    tiny = collect_ensemble(obj, mixing, iterations=10, seed=1, bits=5,
                            replicas=5)
    with pytest.raises(ValueError, match="insufficient replicas"):
        check_consensus_recursion(tiny)
    with pytest.raises(ValueError, match="insufficient replicas"):
        check_descent_recursion(tiny)


def test_noise_free_recursions_hold_deterministically():
    # replica-degenerate ensemble from the unquantized dynamics: a bin width of
    # 2^-31 of the range at 32 bits, zero Monte Carlo slack, and the inequalities
    # must still hold
    from qdgm.diagnostics import EnsembleTrace

    obj = well_conditioned_instance(4, 2)
    mixing = lazy_metropolis(path_topology(4))
    sched = Schedule.of(obj, 1.0 - mixing.sigma2, 32)
    rounds = 40
    stack = np.zeros((1, 4, 2))
    cons, r_sq, f_worst = [], [], []
    for k in range(rounds + 1):
        x = stack[0]
        cons.append(consensus_error(x))
        r_sq.append(float(np.sum((x.mean(axis=0) - obj.optimum) ** 2)))
        f_worst.append(max(float(np.sum((obj.features @ xi - obj.targets) ** 2))
                           for xi in x))
        if k < rounds:
            stack = run_round(stack, mixing, obj, *constants(sched, k), None)
    replicas = 100
    ens = EnsembleTrace(
        consensus_sq=np.tile(cons, (replicas, 1)),
        r_sq=np.tile(r_sq, (replicas, 1)),
        f_worst=np.tile(f_worst, (replicas, 1)),
        f_star=obj.f_star, schedule=sched)
    assert check_consensus_recursion(ens)["detail"]["violations"] == 0
    assert check_descent_recursion(ens)["detail"]["violations"] == 0


def test_fit_loglog_slope_recovers_power_law():
    ks = np.arange(1, 5000)
    values = 3.0 * ks ** -0.62
    assert fit_loglog_slope(ks, values, 10, 5000) == pytest.approx(-0.62, abs=1e-9)
    with pytest.raises(ValueError, match="not enough records"):
        fit_loglog_slope(ks[:1], values[:1], 10, 20)


def test_trace_csv_roundtrip(tmp_path, small_instance=None):
    obj = well_conditioned_instance(4, 2)
    mixing = lazy_metropolis(path_topology(4))
    trace = run_experiment(obj, mixing, iterations=30, seed=2, bits=6)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == ("k,f_gap_last,f_gap_avg_min,f_gap_avg_max,consensus_sq,"
                      "r_sq,lyapunov,delta_k,range_k,max_coord,gamma_k")
    loaded = Trace.from_csv(path)
    assert len(loaded.records) == len(trace.records)
    ks = loaded.column("k")
    assert np.all(np.diff(ks) > 0)
    for name in ("f_gap_last", "consensus_sq", "lyapunov", "range_k"):
        assert np.array_equal(loaded.column(name), trace.column(name))
    assert math.isnan(loaded.records[0].gamma_k)
    assert loaded.error is None
    # a k cell that is not a nonnegative integer is refused, not truncated
    lines = path.read_text().splitlines()
    for bad_k in ("1.5", "-1", "nan"):
        row = lines[2].split(",")
        path.write_text("\n".join([*lines[:2], ",".join([bad_k, *row[1:]])]) + "\n")
        with pytest.raises(ValueError, match="nonnegative integers"):
            Trace.from_csv(path)


def test_trace_error_marker_roundtrip(tmp_path):
    trace = Trace([TraceRecord(0, 1, 1, 1, 0, 0, 0, 0, 0, 0, float("nan"))],
                  error="something broke")
    path = tmp_path / "partial.csv"
    trace.to_csv(path)
    loaded = Trace.from_csv(path)
    assert loaded.error == "something broke"
    assert len(loaded.records) == 1


# ---------------------------------------------------------------------------
# the record path against a written-out reference

class Recorded(NamedTuple):
    """A round as run_experiment records it: k, x and its running average z."""

    k: int
    x: np.ndarray
    z: np.ndarray


def _states(objective, mixing, rounds, quantized):
    """Rounds 0..rounds of one replica, with the schedule that made them."""
    sched = Schedule.of(objective, spectral_gap(mixing), 16)
    xs = [np.zeros((1, objective.n, objective.dims))]
    draws = ReplicaStreams(7, xs[0].shape)
    for k in range(rounds):
        xs.append(run_round(xs[-1], mixing, objective, *constants(sched, k),
                            draws(k) if quantized else None))
    return sched, [Recorded(k, x, z) for k, (x, z) in enumerate(zip(xs, running_averages(xs)))]


def _instance(name):
    if name == "default-40x5":
        cfg = ExperimentConfig()
        return build_objective_from_config(cfg), lazy_metropolis(build_topology(cfg))
    return well_conditioned_instance(4, 2), lazy_metropolis(path_topology(4))


def _stacked(states):
    """make_record's first three arguments for a run of states."""
    return ([s.k for s in states], np.stack([s.x[0] for s in states]),
            np.stack([s.z[0] for s in states]))


@pytest.mark.parametrize("quantized", [True, False], ids=["quantized", "exact"])
@pytest.mark.parametrize("instance", ["default-40x5", "well-conditioned-4x2"])
def test_record_row_bits_do_not_depend_on_block_position(instance, quantized):
    # the 41 rotations of rounds 0-40, cut to full blocks, put every round at
    # every position 0-31; its row there equals its row recorded alone
    objective, mixing = _instance(instance)
    sched, states = _states(objective, mixing, 40, quantized)
    alone = {s.k: make_record(*_stacked([s]), objective, sched, 1.0)[0] for s in states}
    seen = set()
    for shift in range(len(states)):
        block = [states[(shift + j) % len(states)] for j in range(RECORD_BLOCK)]
        rows = make_record(*_stacked(block), objective, sched, 1.0)
        for position, (state, row) in enumerate(zip(block, rows)):
            assert row.tobytes() == alone[state.k].tobytes(), (state.k, position)
            seen.add((state.k, position))
    assert len(seen) == len(states) * RECORD_BLOCK


def _form_gap(objective, p):
    """f(p) - f* as the quadratic form about x*, one point in Python floats,
    in the library's order: h_i = g_i + sum_j G_ij e_j, then sum_i e_i h_i."""
    e = (p - objective.optimum).tolist()
    h = [in_order_sum([g_i, *(g_ij * e_j for g_ij, e_j in zip(row, e))])
         for row, g_i in zip(objective.gram.tolist(), objective.grad_at_optimum.tolist())]
    return in_order_sum([e_i * h_i for e_i, h_i in zip(e, h)])


def _scalar_beta(sched, k):
    """beta_k at one round, in Python floats, clamped."""
    return min((4.0 / sched.spectral_gap) / (k + 1) ** 0.75, sched.beta_clamp)


def _scalar_gamma(sched, k):
    """gamma_k at one round, in Python floats."""
    mu, lip, gap = sched.mu, sched.lipschitz, sched.spectral_gap
    coupled = lip + 8.0 * lip ** 2 / mu
    quant = sched.quantization * float(sched.alpha_sum(k)) ** 2
    return ((16.0 / mu ** 2) / (k + 1) ** 2
            + (40.0 * lip ** 2 * coupled / mu ** 3) / (k + 1) ** 1.5
            + (4.0 / (gap * (k + 1) ** 1.5)
               + 320.0 * coupled * sched.n ** 2 / (gap ** 2 * (k + 1) ** 1.75)) * quant)


def _reference_row(state, objective, sched, eta):
    """One round's trace row evaluated on its own, one point at a time."""
    k, x, z = state.k, state.x[0], state.z[0]
    xbar, cons, r_sq = in_order_statistics(x, objective.optimum)
    gaps = [_form_gap(objective, p) for p in z]
    grid = sched.grid(k)
    return [k, _form_gap(objective, xbar), min(gaps), max(gaps), cons, r_sq,
            r_sq + eta * (sched.alpha(k) / _scalar_beta(sched, k)) * cons,
            grid.delta, grid.range, np.abs(x).max(),
            _scalar_gamma(sched, k) if k >= 1 else float("nan")]


def test_schedule_columns_over_rounds_equal_their_scalar_evaluation():
    # every power is a libm pow, as for one round: numpy's vectorised power,
    # and even its square, differ from that in the last bit on some of these rounds
    objective, mixing = _instance("default-40x5")
    sched = Schedule.of(objective, spectral_gap(mixing), 16)
    ks = range(1, 20_001)
    assert np.array_equal(sched.beta(np.array(ks)), [_scalar_beta(sched, k) for k in ks])
    assert np.array_equal(gamma_k(sched, np.array(ks)), [_scalar_gamma(sched, k) for k in ks])


@pytest.mark.parametrize("block", [1, 5, 32])
@pytest.mark.parametrize("instance", ["default-40x5", "well-conditioned-4x2"])
def test_record_blocks_equal_per_round_rows(instance, block):
    objective, mixing = _instance(instance)
    sched, states = _states(objective, mixing, 40, True)
    eta = eta_coupling(objective.mu, objective.lipschitz, sched.spectral_gap)
    rows = np.concatenate([make_record(*_stacked(states[i:i + block]), objective, sched, eta)
                           for i in range(0, len(states), block)])
    reference = np.array([_reference_row(s, objective, sched, eta) for s in states])
    assert rows.shape == (41, len(TRACE_COLUMNS))
    assert math.isnan(rows[0, -1])
    assert rows.tobytes() == reference.tobytes()  # bit for bit, NaN included


def test_record_gaps_are_at_least_as_accurate_as_direct_evaluation():
    # on every point the records of a seed-7 run evaluate, against f(p) - f(x*)
    # in extended precision, the quadratic form errs no more than f(p) - f*
    if np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps:
        pytest.skip("np.longdouble is no wider than float64 here")
    objective, mixing = _instance("default-40x5")
    _, states = _states(objective, mixing, 300, True)
    points = np.concatenate([np.vstack([s.z[0], s.x[0].mean(axis=0)]) for s in states])
    w, b, x_star, p = (a.astype(np.longdouble) for a in (
        objective.features, objective.targets, objective.optimum, points))
    exact = np.sum((p @ w.T - b) ** 2, axis=1) - np.sum((w @ x_star - b) ** 2)
    assert exact.min() > 0.0

    def worst(gaps):
        return float(np.max(np.abs(gaps - exact) / exact))

    form = worst(optimality_gaps(objective, points))
    direct = worst(global_value(objective, points) - objective.f_star)
    assert form <= direct, (form, direct)


# ufunc calls of one record block on its stacks and what derives from them:
# stack_statistics 8 (as in ensemble_statistics, below), the quadratic form about
# x* 13 at d = 5 (e 1, h 2 and 2 per further coordinate, the products 1, their sum
# 1), the gaps' min and max 2, V_k 2 and max |x| 2
RECORD_UFUNC_CALLS = 27


def _record_work(rows):
    """The ufunc calls on the stacks, and the Python-level calls, of one
    make_record block of ``rows`` rounds of the default instance."""
    objective, mixing = _instance("default-40x5")
    sched, states = _states(objective, mixing, 40, True)
    ks, x, z = _stacked(states[8:8 + rows])
    rest = (objective, sched, 1.0)
    make_record(ks, x, z, *rest)  # any cache a first call fills is full now
    CountedArray.calls = 0
    make_record(ks, x.view(CountedArray), z.view(CountedArray), *rest)
    events = []
    sys.setprofile(lambda frame, event, arg: events.append(event))
    try:
        make_record(ks, x, z, *rest)
    finally:
        sys.setprofile(None)
    return CountedArray.calls, events.count("call") + events.count("c_call")


def test_record_block_work_does_not_grow_with_its_rows():
    # a per-row numpy pass or Python call added to the record path fails here
    one, full = _record_work(1), _record_work(RECORD_BLOCK)
    assert one == full
    assert one[0] == RECORD_UFUNC_CALLS


# ufunc calls of one ensemble_statistics call at the verify shape (n = 4, d = 2):
# the agent mean 2 (sum, division), the squared deviations 2 and their sum 1,
# r_sq 3 (difference, square, sum), the residuals 3 (product, difference,
# square), their sums over m = 4 terms 1 and f_worst 1
ENSEMBLE_UFUNC_CALLS = 13


def _ensemble_work(size):
    """The ufunc calls on the stack, and the Python-level calls, of one
    ensemble_statistics call on a stack of ``size`` matrices of the verify instance."""
    objective = well_conditioned_instance(4, 2)
    x = np.random.default_rng(size).uniform(-1.0, 1.0, (size, 4, 2))
    CountedArray.calls = 0
    ensemble_statistics(x.view(CountedArray), objective)
    events = []
    sys.setprofile(lambda frame, event, arg: events.append(event))
    try:
        ensemble_statistics(x, objective)
    finally:
        sys.setprofile(None)
    return CountedArray.calls, events.count("call") + events.count("c_call")


def test_ensemble_statistics_work_does_not_grow_with_the_replicas():
    # a per-replica, per-round or per-agent numpy pass added to the ensemble pass
    # fails here; 2,048 matrices are twice the largest block collect_ensemble
    # hands it at the verify shape
    one, full = _ensemble_work(1), _ensemble_work(2048)
    assert one == full
    assert one[0] == ENSEMBLE_UFUNC_CALLS


@pytest.mark.parametrize("size", [1, 2, 2048])
@pytest.mark.parametrize("n, d", [(40, 5), (17, 8), (130, 3), (16, 1)])
def test_stack_statistics_add_in_order(n, d, size):
    # every sum adds its terms one after another, also where numpy would add a
    # contiguous run of 8 or more terms pairwise: the n d squares, the agents at
    # d = 1, and every sum of a lone matrix, whose copy is one contiguous column
    x = np.random.default_rng(n * d + size).standard_normal((size, n, d))
    x *= 10.0 ** np.random.default_rng(size).uniform(-3.0, 3.0, (size, n, 1))
    optimum = np.random.default_rng(d).standard_normal(d)
    xbar, cons, r_sq = stack_statistics(x, optimum)
    assert xbar.shape == (d, size) and cons.shape == r_sq.shape == (size,)
    for s in sorted({*range(0, size, 97), size - 1}):
        ref_xbar, ref_cons, ref_r_sq = in_order_statistics(x[s], optimum)
        assert xbar[:, s].tobytes() == ref_xbar.tobytes(), s
        assert (cons[s], r_sq[s]) == (ref_cons, ref_r_sq), s


@pytest.mark.parametrize("name", ["golden_trace.csv", "golden_baseline_trace.csv",
                                  "golden_partial_trace.csv"])
def test_trace_csv_rewrite_is_byte_identical(tmp_path, name):
    source = Path(__file__).parent / "data" / name
    Trace.from_csv(source).to_csv(tmp_path / name)
    assert (tmp_path / name).read_bytes() == source.read_bytes()
