import ast
import itertools
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import (CountedArray, ReplicaStreams, constants, engine_states,
                      in_order_statistics, in_order_sum, reference_rounds, running_averages,
                      schedule)
from qdgm import algorithm, diagnostics, quantizer
from qdgm.algorithm import collect_ensemble, record_points, run_experiment, run_round
from qdgm.cli import build_objective_from_config, build_topology
from qdgm.config import ExperimentConfig
from qdgm.diagnostics import fit_loglog_slope
from qdgm.errors import (GradientBoundError, NonFiniteIterateError,
                         QuantizationSupportError)
from qdgm.graph import NetworkTopology, lazy_metropolis, path_topology, spectral_gap
from qdgm.objective import build_objective, well_conditioned_instance
from qdgm.schedules import Schedule


def single_agent_setup(target=0.8):
    obj = build_objective(np.array([[1.0]]), np.array([target]))
    mixing = lazy_metropolis(NetworkTopology.from_edges(1, []))
    sched = Schedule.of(obj, 1.0, 8)
    return obj, mixing, sched


def test_single_agent_baseline_is_plain_gradient_descent():
    obj, mixing, sched = single_agent_setup()
    x = np.zeros((1, 1, 1))
    oracle = 0.0
    for k in range(100):
        x = run_round(x, mixing, obj, *constants(sched, k), None)
        oracle = oracle - sched.alpha(k) * 2.0 * (oracle - 0.8)
        assert abs(x[0, 0, 0] - oracle) <= 1e-12


@pytest.mark.parametrize("k", [1, 2, 5, 10, 37])
def test_single_agent_lattice_point_reduces_to_gradient_step(k):
    # an iterate sitting exactly on the round-k grid is transmitted without
    # error, so the consensus term collapses and only the gradient step acts
    obj, mixing, sched = single_agent_setup()
    rangek, delta = sched.grid(k).range, sched.grid(k).delta
    m = int(round((0.8 + rangek) / delta))  # grid point nearest the optimum
    x_val = -rangek + m * delta
    x = np.array([[[x_val]]])
    nxt = run_round(x, mixing, obj, *constants(sched, k), ReplicaStreams(3, x.shape)(k))
    expected = x_val - sched.alpha(k) * 2.0 * (x_val - 0.8)
    assert abs(nxt[0, 0, 0] - expected) <= 1e-12


def test_fixed_point_at_common_root(hand_objective):
    # every agent's residual vanishes at (1, 2), so with exact exchange the
    # state is stationary
    mixing = lazy_metropolis(NetworkTopology.from_edges(2, [(0, 1)]))
    sched = Schedule.of(hand_objective, 1.0, 8)
    x = np.tile(hand_objective.optimum, (1, 2, 1))
    nxt = run_round(x.copy(), mixing, hand_objective, *constants(sched, 3), None)
    assert np.abs(nxt - x).max() <= 1e-12


def test_two_agents_average_in_one_round():
    # zero gradients at the start state and full mixing weight: both agents
    # land on the average
    obj = build_objective(np.array([[1.0], [1.0]]), np.array([2.0, 4.0]))
    mixing = lazy_metropolis(NetworkTopology.from_edges(2, [(0, 1)]))
    sched = Schedule.of(obj, 1.0, 8)
    assert sched.beta(0) == 1.0
    nxt = run_round(np.array([[[2.0], [4.0]]]), mixing, obj, *constants(sched, 0), None)
    assert np.allclose(nxt, 3.0, atol=1e-12)


def test_mean_iterate_update_identity(small_instance, small_mixing):
    # with exact exchange the row mean moves only by the mean gradient step:
    # the doubly stochastic mixing leaves it untouched
    obj = small_instance
    sched = Schedule.of(obj, 1.0 - small_mixing.sigma2, 8)
    rng = np.random.default_rng(12)
    for k in (0, 2, 9):
        x = rng.uniform(-0.2, 0.2, size=(1, obj.n, obj.dims))
        nxt = run_round(x, small_mixing, obj, *constants(sched, k), None)
        residuals = np.einsum("ij,ij->i", x[0], obj.features) - obj.targets
        gbar = (2.0 * obj.features * residuals[:, None]).mean(axis=0)
        expected = x[0].mean(axis=0) - sched.alpha(k) * gbar
        assert np.abs(nxt[0].mean(axis=0) - expected).max() <= 1e-12


def test_consensus_stays_exact_with_identical_objectives():
    # agents with the same data produce identical gradients, so from a
    # consensus state the deviation stays exactly zero under exact exchange
    obj = build_objective(np.array([[1.0], [1.0]]), np.array([0.5, 0.5]))
    mixing = lazy_metropolis(NetworkTopology.from_edges(2, [(0, 1)]))
    sched = Schedule.of(obj, 1.0, 8)
    x = np.zeros((1, 2, 1))
    for k in range(30):
        x = run_round(x, mixing, obj, *constants(sched, k), None)
        assert x[0, 0, 0] == x[0, 1, 0]


def test_round_zero_sends_empty_payloads(small_instance, small_mixing):
    obj = small_instance
    sched = Schedule.of(obj, 1.0 - small_mixing.sigma2, 6)
    x = np.zeros((1, obj.n, obj.dims))
    sent = quantizer.quantize_matrix(x, sched.grid(0), np.random.default_rng(5))
    assert sent.shape == (1, obj.n, obj.dims) and np.all(sent == 0)
    nxt = run_round(x, small_mixing, obj, *constants(sched, 0), ReplicaStreams(5, x.shape)(0))
    # first move is the pure gradient step from zero
    expected = -sched.alpha(0) * 2.0 * obj.features * (-obj.targets[:, None])
    assert np.abs(nxt - expected).max() <= 1e-15


def test_averaged_output_hand_values():
    # round t weighs t + 1: after x_0 = 1 the average is 1, after x_1 = 2 it is 5/3
    z0, z1, z2 = running_averages([np.array([[[1.0]]]), np.array([[[2.0]]]), None])
    assert z0[0, 0, 0] == 0.0 and z1[0, 0, 0] == 1.0
    assert z2[0, 0, 0] == pytest.approx(5.0 / 3.0, abs=1e-15)


def test_averaged_output_of_constant_trajectory():
    obj, mixing, sched = single_agent_setup()
    c = 0.8  # the optimum: stays put under baseline dynamics
    xs = [np.array([[[c]]])]
    for k in range(10):
        xs.append(run_round(xs[-1], mixing, obj, *constants(sched, k), None))
    assert running_averages(xs)[-1][0, 0, 0] == pytest.approx(c, abs=1e-14)


def test_incremental_average_matches_recomputation(small_instance, small_mixing):
    obj = small_instance
    sched = Schedule.of(obj, 1.0 - small_mixing.sigma2, 5)
    history = [np.zeros((1, obj.n, obj.dims))]
    draws = ReplicaStreams(21, history[0].shape)
    for k in range(60):
        history.append(run_round(history[-1], small_mixing, obj, *constants(sched, k),
                                 draws(k)))
    weights = np.arange(1, len(history))  # x_0..x_{K-1} weighted 1..K
    recomputed = np.tensordot(weights, np.asarray(history[:-1]), axes=(0, 0)) \
        / weights.sum()
    assert np.abs(running_averages(history)[-1] - recomputed).max() <= 1e-12


def test_run_round_is_reproducible(small_instance, small_mixing):
    obj = small_instance
    sched = Schedule.of(obj, 1.0 - small_mixing.sigma2, 4)
    x = np.zeros((1, obj.n, obj.dims))
    draws = ReplicaStreams(9, x.shape)
    for k in range(3):
        x = run_round(x, small_mixing, obj, *constants(sched, k), draws(k))
    complements = draws(3)
    a = run_round(x, small_mixing, obj, *constants(sched, 3), complements)
    b = run_round(x, small_mixing, obj, *constants(sched, 3), complements)
    assert np.array_equal(a, b)
    # a different replica index rewires the randomness; one round's eight
    # rounding choices can agree by chance, five rounds do not
    later = {}
    for first in (0, 1):
        c, draws = x, ReplicaStreams(9, x.shape, first)
        for k in range(3, 8):
            c = run_round(c, small_mixing, obj, *constants(sched, k), draws(k))
        later[first] = c
    assert not np.array_equal(later[0], later[1])


def test_batched_round_matches_single_replica_rounds(small_instance, small_mixing):
    # slice r of a stack from replica 2 follows the one-replica run of
    # replica 2 + r bit for bit, round after round
    obj = small_instance
    sched = Schedule.of(obj, 1.0 - small_mixing.sigma2, 4)

    def rounds(first, replicas):
        xs = [np.zeros((replicas, obj.n, obj.dims))]
        draws = ReplicaStreams(9, xs[0].shape, first)
        for k in range(25):
            xs.append(run_round(xs[-1], small_mixing, obj, *constants(sched, k), draws(k)))
        return xs

    stack = rounds(2, 3)
    singles = [rounds(2 + r, 1) for r in range(3)]
    stack_z = running_averages(stack)
    singles_z = [running_averages(single) for single in singles]
    for k, x in enumerate(stack):
        for r, single in enumerate(singles):
            assert np.array_equal(x[r], single[k][0])
            assert np.array_equal(stack_z[k][r], singles_z[r][k][0])
    assert not np.array_equal(stack[-1][0], stack[-1][2])
    # replicas 3 and 4 depend neither on the stack size nor on where it starts
    from_zero, from_three = rounds(0, 5)[-1], rounds(3, 2)[-1]
    for r in (3, 4):
        assert np.array_equal(from_zero[r], from_three[r - 3])
        assert np.array_equal(from_zero[r], singles[r - 2][-1][0])


def test_ensemble_statistics_match_single_run_records():
    # the batched statistics observer and make_record see the same states and read
    # the one stack_statistics, which adds in order where numpy would add a contiguous
    # run of 8 or more terms pairwise: the agents at d = 1, and the n d squares
    for n, d in [(4, 2), (8, 1), (16, 1), (40, 5), (17, 8)]:
        objective = well_conditioned_instance(n, d)
        mixing = lazy_metropolis(path_topology(n))
        ens = collect_ensemble(objective, mixing, iterations=30, seed=4, bits=5, replicas=3)
        for rep in range(3):
            trace = run_experiment(objective, mixing, iterations=30, seed=4, bits=5,
                                   replica=rep)
            assert np.array_equal(ens.consensus_sq[rep], trace.column("consensus_sq")), (n, d)
            assert np.array_equal(ens.r_sq[rep], trace.column("r_sq")), (n, d)


def test_batched_range_violation_names_agent_and_replica():
    # row 5 of the flattened (3 * 4, 2) stack is agent 1 of replica 1
    x = np.zeros((3, 4, 2))
    x[1, 1, 0] = 2.0
    with pytest.raises(GradientBoundError, match="agent 1 of replica 1 "):
        quantizer.check_range(x, 1.0, 6)
    # a single replica keeps the one-run wording
    with pytest.raises(GradientBoundError, match="violation: agent 1 reached"):
        quantizer.check_range(x[1:2], 1.0, 6)
    grid = schedule(mu=4.0, bits=4).grid(1)
    with pytest.raises(GradientBoundError, match="agent 1 of replica 1 "):
        quantizer.quantize_matrix(x, grid, np.random.default_rng(0))


def test_batched_range_violation_in_ensemble_names_its_replica(
        small_instance, small_mixing):
    # without the clamp the raw consensus weights push every replica out of
    # range; the error from a stack names a replica of it
    sched = Schedule.of(small_instance, spectral_gap(small_mixing), 6, beta_clamp=None)
    with pytest.raises(GradientBoundError, match=r"agent \d of replica \d "):
        for _ in algorithm._run_rounds(small_instance, small_mixing, sched, iterations=200,
                                       seed=2, first=0, replicas=3, quantized=True):
            pass


def test_support_violation_raises_typed_error(small_instance, small_mixing,
                                              monkeypatch):
    # a rounding body whose values land two bins away breaks the per-draw
    # support bound; the quantize step, and so the engine and the codec, must
    # refuse with a typed error, also under python -O
    obj = small_instance
    sched = Schedule.of(obj, 1.0 - small_mixing.sigma2, 4)
    draws = ReplicaStreams(4, (1, obj.n, obj.dims))
    x = run_round(np.zeros((1, obj.n, obj.dims)), small_mixing, obj, *constants(sched, 0),
                  draws(0))
    stochastic_round = quantizer._stochastic_round

    def shifted(values, lower, delta, nbins, complements):
        idx, q, _ = stochastic_round(values, lower, delta, nbins, complements)
        q = q + 2.0 * delta
        return idx, q, np.abs(q - values).max()

    monkeypatch.setattr(quantizer, "_stochastic_round", shifted)
    with pytest.raises(QuantizationSupportError, match="round 1"):
        run_round(x, small_mixing, obj, *constants(sched, 1), draws(1))
    with pytest.raises(QuantizationSupportError, match="round 1"):
        quantizer.quantize_matrix(x, sched.grid(1), np.random.default_rng(4))


@pytest.mark.parametrize("quantized", [True, False])
def test_one_range_check_per_block(small_instance, small_mixing, monkeypatch, quantized):
    # the engine checks the iterates of rounds 1..K once, a block at a time: [1],
    # [2..33], [34..65], [66..70]; a quantized round's quantize step also checks its
    # own input, the iterates of rounds 1..K-1, and an exact round checks nothing
    checked, blocks = [], []
    check_range, check_block = quantizer.check_range, algorithm._check_range_invariant

    def counted(x, rangek, k):
        checked.append(k)
        return check_range(x, rangek, k)

    def counted_block(xs, ranges):
        blocks.append(len(xs))
        return check_block(xs, ranges)

    monkeypatch.setattr(quantizer, "check_range", counted)
    monkeypatch.setattr(algorithm, "_check_range_invariant", counted_block)
    run_experiment(small_instance, small_mixing, iterations=70, seed=3, bits=6,
                   quantized=quantized)
    assert blocks == [1, 32, 32, 5]
    assert checked == (list(range(1, 70)) if quantized else [])


# rounds of a run that crosses two chunks of constants of SMALL_CHUNK rounds: rounds
# 0..64, 65..128 and 129..149, in blocks [0], [1..32], ..., [97..128], [129..149]; the
# chunk boundaries do not depend on CHUNK's value, and test_golden's LONG_RUN crosses
# those of the real CHUNK
SMALL_CHUNK = 2 * algorithm.RECORD_BLOCK
CHUNK_RUN = 150
BLOCK_ENDS = [1, *range(33, CHUNK_RUN, algorithm.RECORD_BLOCK), CHUNK_RUN]


@pytest.fixture
def small_chunk(monkeypatch):
    """The engine evaluates its constants SMALL_CHUNK rounds at a time."""
    monkeypatch.setattr(algorithm, "CHUNK", SMALL_CHUNK)


def _engine_blocks(objective, mixing, quantized, replicas, bits=6):
    """The (first round, iterates) blocks of a CHUNK_RUN-round run of the engine."""
    sched = algorithm._schedule(objective, mixing, bits, 1.0, CHUNK_RUN, 3)
    return list(algorithm._run_rounds(objective, mixing, sched, iterations=CHUNK_RUN, seed=3,
                                      first=0, replicas=replicas, quantized=quantized))


@pytest.mark.usefixtures("small_chunk")
@pytest.mark.parametrize("quantized, replicas", [(True, 1), (False, 1), (True, 3)],
                         ids=["quantized", "exact", "stack"])
def test_every_iterate_is_range_checked(small_instance, small_mixing, monkeypatch,
                                        quantized, replicas):
    # the block checks see the iterate of every round 1..K, whole blocks across the
    # chunks of constants, and a quantized run's quantize steps also see rounds 1..K-1
    ranges_by_round = algorithm._schedule(small_instance, small_mixing, 6, 1.0, CHUNK_RUN,
                                          3).grid(np.arange(CHUNK_RUN + 1)).range
    checked, blocks = set(), []
    check_range, check_block = quantizer.check_range, algorithm._check_range_invariant

    def counted(x, rangek, k):
        checked.add(k)
        return check_range(x, rangek, k)

    def counted_block(xs, ranges):  # the rounds of the iterates, by their ranges
        rounds = np.searchsorted(ranges_by_round, ranges)
        assert np.array_equal(ranges_by_round[rounds], ranges)
        blocks.append(rounds.tolist())
        return check_block(xs, ranges)

    monkeypatch.setattr(quantizer, "check_range", counted)
    monkeypatch.setattr(algorithm, "_check_range_invariant", counted_block)
    _engine_blocks(small_instance, small_mixing, quantized, replicas)
    assert blocks == [list(range(lo + 1, hi + 1)) for lo, hi in
                      zip([0, *BLOCK_ENDS], BLOCK_ENDS)]
    assert checked == (set(range(1, CHUNK_RUN)) if quantized else set())


@pytest.mark.usefixtures("small_chunk")
@pytest.mark.parametrize("quantized", [True, False])
def test_constants_are_evaluated_once_per_chunk(small_instance, small_mixing, monkeypatch,
                                                quantized):
    # the engine evaluates beta_k and the grid of three chunks of rounds, not of its
    # 6 blocks, and builds one Grid per quantized round; an exact run builds none
    calls = {"beta": 0, "grid": 0, "Grid": 0}

    def counted(owner, name):
        method = getattr(owner, name)

        def call(*args):
            calls[name] += 1
            return method(*args)
        monkeypatch.setattr(owner, name, call)

    counted(Schedule, "beta")
    counted(Schedule, "grid")
    counted(algorithm, "Grid")
    _engine_blocks(small_instance, small_mixing, quantized, 1)
    assert calls == {"beta": 3, "grid": 3, "Grid": CHUNK_RUN if quantized else 0}


@pytest.mark.usefixtures("small_chunk")
@pytest.mark.parametrize("quantized, replicas", [(True, 1), (False, 1), (True, 3)],
                         ids=["quantized", "exact", "stack"])
def test_chunk_boundaries_never_change_a_round(quantized, replicas):
    # the engine's iterates across the chunks of constants at rounds 65 and 129 equal
    # the per-round reference's, which evaluates each round's constants alone
    cfg = ExperimentConfig()
    objective = build_objective_from_config(cfg)
    mixing = lazy_metropolis(build_topology(cfg))
    sched = algorithm._schedule(objective, mixing, cfg.bits, 1.0, CHUNK_RUN, cfg.seed)
    engine, reference = (np.concatenate([xs for _, xs in rounds(
        objective, mixing, sched, iterations=CHUNK_RUN, seed=cfg.seed, first=0,
        replicas=replicas, quantized=quantized)]) for rounds in (algorithm._run_rounds,
                                                                 reference_rounds))
    assert engine.shape == (CHUNK_RUN + 1, replicas, objective.n, objective.dims)
    assert engine.tobytes() == reference.tobytes()


def test_hand_built_state_is_checked_before_quantizing(small_instance,
                                                       small_mixing):
    # the quantize step checks its own input, so a hand-built state out of range fails
    obj = small_instance
    sched = Schedule.of(obj, 1.0 - small_mixing.sigma2, 6)
    rangek = sched.grid(3).range
    x = np.zeros((1, obj.n, obj.dims))
    x[0, 2, 1] = 2.0 * rangek
    with pytest.raises(GradientBoundError) as excinfo:
        run_round(x, small_mixing, obj, *constants(sched, 3), ReplicaStreams(3, x.shape)(3))
    message = (f"gradient-bound violation: agent 2 reached {2.0 * rangek} at "
               f"round 3, outside quantization range +-{rangek}")
    assert str(excinfo.value) == message
    # a stack names the replica by its slice index
    x = np.zeros((2, obj.n, obj.dims))
    x[1, 3, 0] = -2.0 * rangek
    with pytest.raises(GradientBoundError, match="agent 3 of replica 1 reached"):
        run_round(x, small_mixing, obj, *constants(sched, 3), ReplicaStreams(3, x.shape)(3))
    # round 0 sends all-zero values, so a nonzero start breaks the support bound
    x = np.zeros((1, obj.n, obj.dims))
    x[0, 1, 0] = 0.25
    with pytest.raises(QuantizationSupportError, match=(
            "^decoded value 0.25 away from its input at round 0, beyond the "
            "support bound 0.0$")):
        run_round(x, small_mixing, obj, *constants(sched, 0), ReplicaStreams(3, x.shape)(0))


# ufunc calls of one round on its (R, n, d) stacks, for any R: the update's five
# (the mixing product, beta W q, (1 - beta) x, their sum, minus the scaled
# gradients); the engine checks the new iterates once per block, not here. A
# quantized round adds its quantize step's check of its input (|x| and its max)
# and the rounding body's ten. The gradient's einsum returns a plain array, so
# its passes are not counted here; the Python-level calls are.
EXACT_ROUND_UFUNC_CALLS = 5
QUANTIZED_ROUND_UFUNC_CALLS = 17
# Python-level calls of one round, which reads its constants as arguments and
# calls no Schedule method; the exact round lost its range check's two (the
# check's own call and the max), and both lost the RoundState they returned
EXACT_ROUND_PYTHON_CALLS = 10
QUANTIZED_ROUND_PYTHON_CALLS = 15
# run_experiment's numpy calls for the averaged output per block of RECORD_BLOCK
# rounds that records no round: the buffer like the block, the weighted iterates
# and their in-order sum onto the carried one
FOLD_CALLS = 3
# numpy calls of the engine's range check of one block, at any block length and
# any R: |x|, its max per round, the ranges widened by the clamp band, the
# comparison and its all()
BLOCK_CHECK_CALLS = 5


def _round_work(replicas, quantized):
    """The ufunc calls on the stacks, and the Python-level calls, of round 5 of
    ``replicas`` replicas of the default 40x5 instance."""
    cfg = ExperimentConfig()
    objective = build_objective_from_config(cfg)
    mixing = lazy_metropolis(build_topology(cfg))
    sched = algorithm._schedule(objective, mixing, cfg.bits, 1.0, 6, cfg.seed)
    x = np.zeros((replicas, objective.n, objective.dims))
    draws = ReplicaStreams(cfg.seed, x.shape)
    for k in range(5):
        x = run_round(x, mixing, objective, *constants(sched, k),
                      draws(k) if quantized else None)
    complements, round5 = draws(5) if quantized else None, constants(sched, 5)
    run_round(x, mixing, objective, *round5, complements)  # caches filled
    CountedArray.calls = 0
    run_round(x.view(CountedArray), mixing, objective, *round5,
              None if complements is None else complements.view(CountedArray))
    events = []
    sys.setprofile(lambda frame, event, arg: events.append(event))
    try:
        run_round(x, mixing, objective, *round5, complements)
    finally:
        sys.setprofile(None)
    return CountedArray.calls, events.count("call") + events.count("c_call")


@pytest.mark.parametrize("quantized, ufunc_calls, python_calls", [
    (True, QUANTIZED_ROUND_UFUNC_CALLS, QUANTIZED_ROUND_PYTHON_CALLS),
    (False, EXACT_ROUND_UFUNC_CALLS, EXACT_ROUND_PYTHON_CALLS)], ids=["quantized", "exact"])
def test_round_work_does_not_grow_with_the_replicas(quantized, ufunc_calls, python_calls):
    # a per-replica or per-agent pass, or one more numpy pass, in the round fails here
    one, stack = _round_work(1, quantized), _round_work(8, quantized)
    assert one == stack
    assert one == (ufunc_calls, python_calls)


@pytest.mark.parametrize("rounds, replicas", [(1, 1), (32, 1), (5, 8), (32, 100)])
def test_block_check_work_does_not_grow_with_the_block(rounds, replicas):
    # one max |x| per round of the block: a per-round or per-replica check fails here
    xs = np.random.default_rng(rounds).uniform(-1.0, 1.0, (rounds, replicas, 4, 2))
    ranges = np.ones(rounds).view(CountedArray)
    CountedArray.calls = CountedArray.functions = 0
    assert algorithm._check_range_invariant(xs.view(CountedArray), ranges) == rounds
    assert CountedArray.calls + CountedArray.functions == BLOCK_CHECK_CALLS


def test_package_has_no_assert_statements():
    # python -O strips asserts, so every invariant must be a typed raise
    paths = sorted(Path(quantizer.__file__).parent.glob("*.py"))
    assert {"algorithm.py", "quantizer.py", "schedules.py"} <= {p.name for p in paths}
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"assert in {path.name} at lines {lines}"


def test_growing_range_invariant_over_run(small_instance, small_mixing):
    trace = run_experiment(small_instance, small_mixing, iterations=300,
                           seed=3, bits=3)
    ratio = trace.column("max_coord")[1:] / trace.column("range_k")[1:]
    assert ratio.max() <= 1.0 + 1e-9


def test_update_is_convex_combination_plus_gradient(small_instance, small_mixing):
    obj = small_instance
    sched = Schedule.of(obj, 1.0 - small_mixing.sigma2, 3)
    x = np.zeros((1, obj.n, obj.dims))
    draws = ReplicaStreams(17, x.shape)
    for k in range(80):
        nxt = run_round(x, small_mixing, obj, *constants(sched, k), draws(k))
        cap = max(np.abs(x).max(), sched.grid(k).range) + sched.alpha(k) * obj.grad_bound
        assert np.abs(nxt).max() <= cap + 1e-12
        x = nxt


def test_run_experiment_deterministic(small_instance, small_mixing, tmp_path):
    a = run_experiment(small_instance, small_mixing, iterations=120, seed=5, bits=5)
    b = run_experiment(small_instance, small_mixing, iterations=120, seed=5, bits=5)
    a.to_csv(tmp_path / "a.csv")
    b.to_csv(tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_run_experiment_zero_iterations(small_instance, small_mixing):
    trace = run_experiment(small_instance, small_mixing, iterations=0, seed=0,
                           bits=4)
    assert len(trace.records) == 1
    rec = trace.records[0]
    assert rec.k == 0 and rec.max_coord == 0.0 and rec.range_k == 0.0


def test_record_points_policy():
    pts = record_points(500)
    assert pts == list(range(501))
    pts = record_points(100_000)
    assert pts[:1001] == list(range(1001))
    assert pts[-1] == 100_000
    tail = np.asarray(pts[1001:])
    assert np.all(np.diff(tail) >= 1)
    # geometric spacing: consecutive recorded rounds grow by about 5%
    ratios = tail[1:] / tail[:-1]
    assert ratios.max() <= 1.06
    assert len(pts) < 1400
    assert record_points(10, stride=5) == [0, 5, 10]
    assert record_points(12, stride=5) == [0, 5, 10, 12]


def test_run_records_exactly_the_rounds_asked_for(small_instance, small_mixing):
    # record_at is the whole set of recorded rounds: neither 0 nor the last round is
    # added, and a round beyond the run is never reached
    trace = run_experiment(small_instance, small_mixing, iterations=20, seed=1, bits=6,
                           record_at={1, 7, 20, 99})
    assert [rec.k for rec in trace.records] == [1, 7, 20]
    every = run_experiment(small_instance, small_mixing, iterations=20, seed=1, bits=6)
    assert np.array_equal(trace.table, every.table[[1, 7, 20]])


def test_no_clamp_mode_aborts_with_range_violation(small_instance, small_mixing):
    # the raw consensus weights start far above 1, which is incompatible
    # with the growing-range guarantee; the run must fail loudly, keeping
    # the partial trace
    with pytest.raises(GradientBoundError) as excinfo:
        run_experiment(small_instance, small_mixing, iterations=200, seed=2,
                       bits=6, beta_clamp=None)
    partial = excinfo.value.partial_trace
    assert partial.error is not None
    assert len(partial.records) >= 1


def test_failure_mid_block_keeps_every_earlier_row(monkeypatch):
    # round 100 makes the 101st gradient call; rows 0..100 fill three record
    # blocks and five rows of a fourth, which the failure must not drop
    cfg = ExperimentConfig()
    objective = build_objective_from_config(cfg)
    mixing = lazy_metropolis(build_topology(cfg))
    kwargs = dict(seed=7, bits=16)
    expected = run_experiment(objective, mixing, iterations=100, **kwargs).table
    gradient, record = algorithm.gradient_matrix, diagnostics.make_record
    calls = {"gradient": 0, "record": 0}

    def poisoned(objective, x):
        calls["gradient"] += 1
        return gradient(objective, x) * (np.nan if calls["gradient"] == 101 else 1.0)

    def counted(*args):
        calls["record"] += 1
        return record(*args)

    monkeypatch.setattr(algorithm, "gradient_matrix", poisoned)
    monkeypatch.setattr(diagnostics, "make_record", counted)
    with pytest.raises(NonFiniteIterateError, match="round 100") as excinfo:
        run_experiment(objective, mixing, iterations=300, **kwargs)
    partial = excinfo.value.partial_trace
    assert partial.table.shape[0] == 101 and calls["record"] == 4
    assert np.array_equal(partial.table, expected, equal_nan=True)



@pytest.mark.parametrize("quantized", [True, False])
def test_block_boundaries_never_change_a_row(quantized):
    # runs ending on either side of a RECORD_BLOCK boundary hold the first
    # rows of a longer run of the same seed, bit for bit
    cfg = ExperimentConfig()
    objective = build_objective_from_config(cfg)
    mixing = lazy_metropolis(build_topology(cfg))
    kwargs = dict(seed=7, bits=16, quantized=quantized, record_at=range(101))
    full = run_experiment(objective, mixing, iterations=100, **kwargs).table
    for iterations in (0, 30, 31, 32, 33, 63, 64):
        table = run_experiment(objective, mixing, iterations=iterations, **kwargs).table
        assert np.array_equal(table, full[:iterations + 1], equal_nan=True), iterations


def _recorded(monkeypatch, seed=7, **kwargs):
    """The rounds, iterates and averaged iterates that run_experiment hands make_record
    on the default 40x5 instance of ``seed``, up to its failure if it fails."""
    cfg = ExperimentConfig(seed=seed)
    objective = build_objective_from_config(cfg)
    mixing = lazy_metropolis(build_topology(cfg))
    record, seen = diagnostics.make_record, []

    def captured(ks, x, z, *rest):
        seen.append((list(ks), x.copy(), z))  # run_experiment reuses its record buffer
        return record(ks, x, z, *rest)

    monkeypatch.setattr(diagnostics, "make_record", captured)
    try:
        run_experiment(objective, mixing, seed=seed, bits=cfg.bits, **kwargs)
    except GradientBoundError:
        pass
    monkeypatch.setattr(diagnostics, "make_record", record)
    ks, xs, zs = zip(*seen)
    return sum(ks, []), np.concatenate(xs), np.concatenate(zs)


@pytest.mark.parametrize("stride", [1, 32])
@pytest.mark.parametrize("quantized", [True, False])
def test_averaged_iterates_equal_a_sum_added_round_by_round(monkeypatch, quantized, stride):
    # the sum is folded every 32 rounds and before each record block; records at
    # rounds 32 and 64 are the first rounds after a fold and read the carried sum,
    # and rounds 31-33 and 63-65 straddle the folds: every z equals the hand loop's
    ks, xs, _ = _recorded(monkeypatch, iterations=100, quantized=quantized,
                          record_at=range(101))
    assert ks == list(range(101))
    reference = running_averages(list(xs))
    ks, _, zs = _recorded(monkeypatch, iterations=100, quantized=quantized,
                          record_at=record_points(100, stride))
    assert {0, 32, 64, 100} <= set(ks) and (stride > 1 or {31, 33, 63, 65} <= set(ks))
    for k, z in zip(ks, zs):
        assert z.tobytes() == reference[k].tobytes(), k


def test_partial_trace_averages_equal_a_sum_added_round_by_round(monkeypatch):
    # seed 20 fails inside its first record block; the fold on the failure path
    # still gives every held row the sum of the rounds before it
    ks, xs, zs = _recorded(monkeypatch, seed=20, iterations=50)
    assert ks == list(range(len(ks))) and 1 < len(ks) < 32
    for k, (z, reference) in enumerate(zip(zs, running_averages(list(xs)))):
        assert z.tobytes() == reference.tobytes(), k


def test_a_lone_coordinate_is_summed_in_order(monkeypatch):
    # one agent in one dimension: numpy would add a block's rounds after its last record
    # pairwise, which moves this run's z_200; the engine adds them in order
    objective, mixing, _ = single_agent_setup()
    record, seen = diagnostics.make_record, []

    def captured(ks, x, z, *rest):
        seen.append((x.copy(), z.copy()))
        return record(ks, x, z, *rest)

    monkeypatch.setattr(diagnostics, "make_record", captured)
    for record_at in (range(201), (0, 200)):
        run_experiment(objective, mixing, iterations=200, seed=1, bits=8, quantized=False,
                       record_at=record_at)
    xs = np.concatenate([x for x, _ in seen[:-1]])
    assert seen[-1][1][-1].tobytes() == running_averages(list(xs[:, None]))[200][0].tobytes()


@pytest.mark.parametrize("quantized", [True, False])
def test_averaged_iterates_are_no_less_accurate_than_the_recursion(monkeypatch, quantized):
    # against the weighted sum in extended precision, each round's z errs, relative to
    # its largest |z|, no more than the per-round recursion the engine kept before
    if np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps:
        pytest.skip("np.longdouble is no wider than float64 here")
    rounds = 3000
    _, xs, zs = _recorded(monkeypatch, iterations=rounds, quantized=quantized,
                          record_at=range(rounds + 1))
    weights = np.arange(1, rounds + 1)
    exact = np.cumsum(weights[:, None, None] * xs[:-1].astype(np.longdouble), axis=0) \
        / (weights * (weights + 1) // 2)[:, None, None]
    z, recursion = np.zeros_like(xs[0]), []
    for k, x in enumerate(xs[:-1]):  # z_{k+1} from z_k by re-weighting, as it was kept
        prior = k * (k + 1) // 2
        z = (z * prior + (k + 1) * x) / (prior + k + 1)
        recursion.append(z)

    def worst(zs):  # z_1 = x_0 = 0 is exact in both
        scale = np.abs(exact[1:]).max(axis=(1, 2), keepdims=True)
        return float(np.max(np.abs(zs[1:] - exact[1:]) / scale))

    assert worst(zs[1:]) <= worst(np.array(recursion))


def test_held_records_keep_no_fold_buffer_alive():
    # records RECORD_BLOCK rounds apart each take U_k from another fold; a held record
    # keeps its own U_k row, not that fold's buffer of RECORD_BLOCK + 1 rows
    objective = well_conditioned_instance(100, 20)
    mixing = lazy_metropolis(path_topology(100))

    def peak(iterations):  # in (n, d) matrices
        tracemalloc.start()
        try:
            run_experiment(objective, mixing, iterations=iterations, seed=1, bits=16,
                           quantized=False,
                           record_at=record_points(iterations, algorithm.RECORD_BLOCK))
            return tracemalloc.get_traced_memory()[1] / (objective.n * objective.dims * 8)
        finally:
            tracemalloc.stop()

    # 31 held records add their iterates, their sums and make_record's block of 32 rows
    # (160 matrices); 31 fold buffers would add over 1,000
    blocks = 31
    assert peak(blocks * algorithm.RECORD_BLOCK) - peak(2 * algorithm.RECORD_BLOCK) < 320


def _own_work(monkeypatch, iterations, quantized):
    """The numpy calls run_experiment makes on its arrays outside the engine and
    make_record, ufunc calls and array functions, over a run recorded at its ends:
    every block it is handed holds a CountedArray."""
    engine, record = algorithm._run_rounds, diagnostics.make_record

    def counted_blocks(*args, **kwargs):
        for first, xs in engine(*args, **kwargs):
            yield first, xs.view(CountedArray)

    def uncounted(*args):
        counts = CountedArray.calls, CountedArray.functions
        result = record(*args)
        CountedArray.calls, CountedArray.functions = counts
        return result

    monkeypatch.setattr(algorithm, "_run_rounds", counted_blocks)
    monkeypatch.setattr(diagnostics, "make_record", uncounted)
    cfg = ExperimentConfig()
    objective = build_objective_from_config(cfg)
    mixing = lazy_metropolis(build_topology(cfg))
    CountedArray.calls = CountedArray.functions = 0
    run_experiment(objective, mixing, iterations=iterations, seed=cfg.seed, bits=cfg.bits,
                   quantized=quantized, record_at=(0, iterations))
    monkeypatch.undo()
    return CountedArray.calls + CountedArray.functions


@pytest.mark.parametrize("quantized", [True, False])
def test_averaged_output_costs_one_fold_per_block_of_rounds(monkeypatch, quantized):
    # the averaged output adds FOLD_CALLS numpy calls per block of RECORD_BLOCK rounds
    # that records no round, so a per-round average or bookkeeping fails here
    work = [_own_work(monkeypatch, 32 * blocks, quantized) for blocks in (2, 4, 6)]
    assert work[1] - work[0] == work[2] - work[1] == 2 * FOLD_CALLS


@pytest.mark.parametrize("quantized", [True, False])
@pytest.mark.parametrize("replicas", [1, 3])
def test_yielded_states_are_never_written(small_instance, small_mixing,
                                          quantized, replicas):
    # a consumer may hold a yielded block without copying it, so no later round may
    # write into an earlier block's array; the blocks hold rounds 0..40 in order
    sched = algorithm._schedule(small_instance, small_mixing, 6, 1.0, 40, 3)
    held, snapshots = [], []
    for first, xs in algorithm._run_rounds(small_instance, small_mixing, sched,
                                           iterations=40, seed=3, first=0,
                                           replicas=replicas, quantized=quantized):
        held.append((first, xs))
        snapshots.append(xs.copy())
    assert [(first, len(xs)) for first, xs in held] == [(0, 1), (1, 1), (2, 32), (34, 7)]
    for (first, xs), copy in zip(held, snapshots):
        assert np.array_equal(xs, copy), first


@pytest.mark.parametrize("iterations", [-1, -2])
def test_negative_round_count_is_refused_before_any_work(
        small_instance, small_mixing, monkeypatch, iterations):
    def no_engine(*args, **kwargs):
        raise AssertionError("the round engine was started")

    monkeypatch.setattr(algorithm, "_run_rounds", no_engine)
    message = "^iterations must be nonnegative$"
    with pytest.raises(ValueError, match=message):
        collect_ensemble(small_instance, small_mixing, iterations=iterations,
                         seed=1, bits=5, replicas=3)
    with pytest.raises(ValueError, match=message) as excinfo:
        run_experiment(small_instance, small_mixing, iterations=iterations,
                       seed=1, bits=5)
    assert excinfo.value.partial_trace.table.shape == (0, len(diagnostics.TRACE_COLUMNS))

def _poison_gradient(monkeypatch, where, value, at=0):
    """Make the gradient call of round ``at`` and every later one set entry ``where``
    to ``value``."""
    gradient, calls = algorithm.gradient_matrix, []

    def poisoned(objective, x):
        calls.append(None)
        grads = gradient(objective, x)
        if len(calls) > at:
            grads[where] = value
        return grads

    monkeypatch.setattr(algorithm, "gradient_matrix", poisoned)


def test_non_finite_iterate_detected(monkeypatch):
    # a gradient that overflows once scaled by alpha_0 = 2 makes round 0's iterate
    # infinite; the engine's block check reports it as non-finite
    obj, mixing, _ = single_agent_setup()
    _poison_gradient(monkeypatch, (0, 0, 0), 1e308)
    with np.errstate(over="ignore"), pytest.raises(
            NonFiniteIterateError, match="^non-finite iterate at round 0$"):
        run_experiment(obj, mixing, iterations=5, seed=0, bits=8, quantized=False)


def _stack_rounds(obj, mixing, replicas=3, iterations=5):
    """Every block of a quantized run of the engine on a stack, up to its failure."""
    sched = algorithm._schedule(obj, mixing, 6, 1.0, iterations, 3)
    return list(algorithm._run_rounds(obj, mixing, sched, iterations=iterations, seed=3,
                                      first=0, replicas=replicas, quantized=True))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_replica_in_a_stack_is_named_non_finite(
        small_instance, small_mixing, monkeypatch, value):
    # the bad iterate fails the range check first; the engine reports it as
    # non-finite, not as a gradient-bound violation of replica 1
    _poison_gradient(monkeypatch, (1, 2, 0), value, at=1)
    with pytest.raises(NonFiniteIterateError, match="^non-finite iterate at round 1$"):
        _stack_rounds(small_instance, small_mixing)


def test_finite_escape_in_a_stack_keeps_the_range_message(
        small_instance, small_mixing, monkeypatch):
    _poison_gradient(monkeypatch, (2, 1, 0), 1e6, at=1)
    with pytest.raises(GradientBoundError, match=(
            r"^gradient-bound violation: agent 1 of replica 2 reached \S+ at "
            r"round 2, outside quantization range \+-\S+$")):
        _stack_rounds(small_instance, small_mixing)


def _stream_states(objective, mixing, *, seed, first, replicas, iterations=70):
    """Every (k, x_k) of a quantized run of the engine's one round loop."""
    sched = algorithm._schedule(objective, mixing, 6, 1.0, iterations, seed)
    return list(engine_states(algorithm._run_rounds(
        objective, mixing, sched, iterations=iterations, seed=seed, first=first,
        replicas=replicas, quantized=True)))


@pytest.mark.parametrize("replicas", [1, 3])
def test_run_reads_each_replica_stream_in_order(small_instance, small_mixing, replicas):
    # 70 rounds cross the uniform blocks at rounds 33 and 65 and end inside a
    # third block; the run equals a loop that reads default_rng([seed, r])
    # n*d uniforms at a time, one read per round k >= 1, as complements 1 - u
    states = _stream_states(small_instance, small_mixing, seed=11, first=0,
                            replicas=replicas)
    sched = algorithm._schedule(small_instance, small_mixing, 6, 1.0, 70, 11)
    reference = [np.zeros((replicas, small_instance.n, small_instance.dims))]
    draws = ReplicaStreams(11, reference[0].shape)
    for k, (engine_k, x) in enumerate(states):
        assert engine_k == k
        assert np.array_equal(x, reference[k]), k
        if k < 70:
            reference.append(run_round(reference[k], small_mixing, small_instance,
                                       *constants(sched, k), draws(k)))
    for k, (z, z_ref) in enumerate(zip(running_averages([x for _, x in states]),
                                       running_averages(reference))):
        assert np.array_equal(z, z_ref), k


@pytest.mark.parametrize("quantized", [True, False])
def test_block_tables_equal_constants_evaluated_round_by_round(quantized):
    # the engine evaluates its constants in one table of the run's rounds and slices it
    # per block of RECORD_BLOCK rounds; a loop that evaluates every round's constants on
    # their own makes the same iterates, byte for byte, across rounds 0, 1, 32, 33, 64,
    # 65, and the blocks hold rounds [0], [1], [2..33], [34..65], [66..70]
    cfg, iterations = ExperimentConfig(), 70
    objective = build_objective_from_config(cfg)
    mixing = lazy_metropolis(build_topology(cfg))
    sched = algorithm._schedule(objective, mixing, cfg.bits, 1.0, iterations, cfg.seed)
    blocks = list(algorithm._run_rounds(objective, mixing, sched, iterations=iterations,
                                        seed=cfg.seed, first=0, replicas=2,
                                        quantized=quantized))
    assert [(first, len(xs)) for first, xs in blocks] == [(0, 1), (1, 1), (2, 32), (34, 32),
                                                          (66, 5)]
    reference = np.zeros((2, objective.n, objective.dims))
    draws = ReplicaStreams(cfg.seed, reference.shape)
    for k, (engine_k, x) in enumerate(engine_states(blocks)):
        assert engine_k == k
        assert x.tobytes() == reference.tobytes(), k
        if k < iterations:
            reference = run_round(reference, mixing, objective, *constants(sched, k),
                                  draws(k) if quantized else None)
    assert k == iterations


@pytest.mark.parametrize("first", [0, 4])
@pytest.mark.parametrize("replicas", [1, 2, 5])
def test_stack_slice_is_the_single_run_of_its_replica(small_instance, small_mixing,
                                                      first, replicas):
    stack = _stream_states(small_instance, small_mixing, seed=9, first=first,
                           replicas=replicas)
    for r in range(replicas):
        single = _stream_states(small_instance, small_mixing, seed=9, first=first + r,
                                replicas=1)
        averages = zip(running_averages([x for _, x in stack]),
                       running_averages([x for _, x in single]))
        for k, ((_, x), (_, alone), (z, z_alone)) in enumerate(zip(stack, single, averages)):
            assert np.array_equal(x[r], alone[0]), (r, k)
            assert np.array_equal(z[r], z_alone[0]), (r, k)
    if replicas > 1:  # the replicas' streams differ, and so do their paths
        assert any(not np.array_equal(x[0], x[1]) for _, x in stack)


def test_quantized_run_keys_one_generator_per_replica(
        small_instance, small_mixing, monkeypatch):
    seed, keys = 2**32 + 9, []
    default_rng = np.random.default_rng

    def keyed(key):
        keys.append(key)
        return default_rng(key)

    monkeypatch.setattr(np.random, "default_rng", keyed)
    run_experiment(small_instance, small_mixing, iterations=70, seed=seed, bits=6,
                   replica=4)
    assert keys == [[seed, 4]]
    keys.clear()
    collect_ensemble(small_instance, small_mixing, iterations=70, seed=seed, bits=6,
                     replicas=3)
    assert keys == [[seed, 0], [seed, 1], [seed, 2]]
    # the exact twin and a run of no rounds draw nothing, so they key nothing
    keys.clear()
    run_experiment(small_instance, small_mixing, iterations=70, seed=seed, bits=6,
                   quantized=False)
    run_experiment(small_instance, small_mixing, iterations=0, seed=seed, bits=6)
    collect_ensemble(small_instance, small_mixing, iterations=0, seed=seed, bits=6,
                     replicas=3)
    assert keys == []


def test_round_zero_is_handed_defined_complements(small_instance, small_mixing,
                                                 monkeypatch):
    # round 0 reads no uniforms; the engine still hands it complements 1 (u = 0),
    # the rule's values, never memory that no draw has filled yet
    first_complements = []
    engine_round = algorithm.run_round

    def recording(x, mixing, objective, alpha, beta, grid, complements, *out):
        if grid.k == 0:
            first_complements.append(complements.copy())
        return engine_round(x, mixing, objective, alpha, beta, grid, complements, *out)

    monkeypatch.setattr(algorithm, "run_round", recording)
    run_experiment(small_instance, small_mixing, iterations=40, seed=5, bits=6)
    collect_ensemble(small_instance, small_mixing, iterations=40, seed=5, bits=6,
                     replicas=3)
    assert [c.shape for c in first_complements] == [(1, 4, 2), (3, 4, 2)]
    for complements in first_complements:
        assert complements.tobytes() == ReplicaStreams(5, complements.shape)(0).tobytes()


def test_a_huge_round_count_starts_without_listing_its_blocks(small_instance, small_mixing):
    # 2^64 rounds is only a long run: the loop makes its blocks as it reaches
    # them (a list of 2^59 block starts ended in MemoryError, exit 70)
    sched = algorithm._schedule(small_instance, small_mixing, 6, 1.0, 2**64, 1)
    engine = algorithm._run_rounds(small_instance, small_mixing, sched, iterations=2**64,
                                   seed=1, first=0, replicas=2, quantized=True)
    states = itertools.islice(engine_states(engine), 40)
    assert [k for k, _ in states] == list(range(40))


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64 + 3])
def test_negative_seed_is_refused_before_any_work(small_instance, small_mixing,
                                                  monkeypatch, seed):
    # seeds of one, two and three 32-bit words, negated
    seed = -seed - 1

    def no_engine(*args, **kwargs):
        raise AssertionError("the round engine was started")

    monkeypatch.setattr(algorithm, "_run_rounds", no_engine)
    message = f"^seed must be nonnegative, got {seed}$"
    with pytest.raises(ValueError, match=message):
        collect_ensemble(small_instance, small_mixing, iterations=5, seed=seed,
                         bits=5, replicas=3)
    with pytest.raises(ValueError, match=message) as excinfo:
        run_experiment(small_instance, small_mixing, iterations=5, seed=seed, bits=5)
    assert excinfo.value.partial_trace.table.shape == (0, len(diagnostics.TRACE_COLUMNS))


def test_collect_ensemble_shapes(small_instance, small_mixing):
    ens = collect_ensemble(small_instance, small_mixing, iterations=20, seed=1,
                           bits=5, replicas=3)
    assert ens.consensus_sq.shape == (3, 21)
    assert ens.r_sq.shape == (3, 21)
    assert ens.f_worst.shape == (3, 21)
    assert ens.schedule.grid(0).delta == 0.0
    # replicas share the start but diverge once quantization noise kicks in
    assert ens.consensus_sq[:, 0].max() == 0.0
    assert np.std(ens.consensus_sq[:, -1]) > 0.0


@pytest.mark.parametrize("n, d, replicas", [
    (4, 2, 1), (5, 3, 7), (40, 5, 3), (4, 2, 100), (4, 2, 500), (17, 8, 2),
    (8, 1, 1), (8, 1, 3), (16, 1, 1), (16, 1, 3)])
def test_collect_ensemble_equals_per_round_formulas(n, d, replicas):
    # each round's statistics in Python floats, every sum in order, as the
    # reference: one agent mean per round must keep every bit. The 41 rounds are
    # no multiple of a block (32 rounds, or 10 at R = 100 and 2 at R = 500 at
    # 4 x 2); numpy would add a contiguous run of 8 or more terms pairwise, in
    # halves above 128 (17 x 8). The residuals' products are numpy's, as x @ w.T
    objective = well_conditioned_instance(n, d)
    mixing = lazy_metropolis(path_topology(n))
    ens = collect_ensemble(objective, mixing, iterations=40, seed=11, bits=8,
                           replicas=replicas)
    sched = Schedule.of(objective, spectral_gap(mixing), 8)
    draws = ReplicaStreams(11, (replicas, n, d))
    stack = np.zeros((replicas, n, d))
    w, b, x_star = objective.features, objective.targets, objective.optimum
    for k in range(41):
        x, residuals = stack, (stack @ w.T - b).tolist()
        for r in range(replicas):
            _, cons, r_sq = in_order_statistics(x[r], x_star)
            f_worst = max(in_order_sum([v * v for v in agent]) for agent in residuals[r])
            assert (ens.consensus_sq[r, k], ens.r_sq[r, k], ens.f_worst[r, k]) == (
                cons, r_sq, f_worst), (r, k)
        stack = run_round(stack, mixing, objective, *constants(sched, k), draws(k))
    # the checks' means over axis 0 add the replicas in order on this layout
    for array in (ens.consensus_sq, ens.r_sq, ens.f_worst):
        assert array.shape == (replicas, 41) and array.flags.c_contiguous


@pytest.mark.parametrize("n, d, replicas", [(4, 2, 100), (16, 1, 1), (16, 1, 3), (17, 8, 2)])
def test_collect_ensemble_equals_per_round_statistics(n, d, replicas):
    # a block of rounds gives each round's values of one call on that round's
    # stack alone, bit for bit; at R = 1 and d = 1 that call sees one matrix
    objective = well_conditioned_instance(n, d)
    mixing = lazy_metropolis(path_topology(n))
    ens = collect_ensemble(objective, mixing, iterations=40, seed=3, bits=8,
                           replicas=replicas)
    sched = algorithm._schedule(objective, mixing, 8, 1.0, 40, 3)
    for k, x in engine_states(algorithm._run_rounds(
            objective, mixing, sched, iterations=40, seed=3, first=0, replicas=replicas,
            quantized=True)):
        alone = diagnostics.ensemble_statistics(x, objective)
        for array, value in zip((ens.consensus_sq, ens.r_sq, ens.f_worst), alone):
            assert array[:, k].tobytes() == value.tobytes(), k


@pytest.mark.parametrize("n", [8, 16, 32])
def test_gap_decay_exponent_is_minus_8_over_n(n):
    # The step is sized against the summed objective's curvature while each
    # gradient enters the network average with weight 1/n, so the mean
    # iterate's slowest mode contracts by 1 - 4/(n(k+1)) per round and the
    # gap decays like k^(-8/n). Setting of scripts/decay_exponent_study.py;
    # it measures -1.075, -0.586, -0.275. A tolerance of 0.12 keeps -8/n
    # apart from an n-independent -1/2 at n = 8 and 32 (0.5 and 0.25 away).
    objective = well_conditioned_instance(n, 2)
    mixing = lazy_metropolis(path_topology(n))
    trace = run_experiment(objective, mixing, iterations=20_000, seed=1,
                           bits=16)
    slope = fit_loglog_slope(trace.column("k"), trace.column("f_gap_avg_max"),
                             200, 20_000)
    assert abs(slope - (-8.0 / n)) <= 0.12, (n, slope)
