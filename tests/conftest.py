import functools
import operator

import numpy as np
import pytest

from qdgm import algorithm
from qdgm.errors import GradientBoundError, NonFiniteIterateError
from qdgm.graph import NetworkTopology, lazy_metropolis, path_topology
from qdgm.objective import build_objective, well_conditioned_instance
from qdgm.quantizer import check_range
from qdgm.schedules import Schedule

# collected by the acceptance tests; printed in the terminal summary so each
# criterion yields one visible pass/fail line even when capture is on
ACCEPTANCE_RESULTS: list[tuple[int, bool, str]] = []


def report_acceptance(number: int, passed: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS.append((number, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, passed, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number}: {status} - {detail}")


def schedule(**overrides) -> Schedule:
    """A Schedule of unit constants, b = 1 and spectral gap 0.5, with ``overrides``."""
    fields = dict(mu=1.0, lipschitz=1.0, grad_bound=1.0, dims=1, n=1, bits=1, spectral_gap=0.5)
    return Schedule(**{**fields, **overrides})


def constants(sched: Schedule, k: int) -> tuple:
    """run_round's constants of round k, evaluated alone from the schedule: alpha_k,
    beta_k and the grid."""
    return sched.alpha(k), float(sched.beta(k)), sched.grid(k)


def in_order_sum(terms):
    """Reference sum: the Python floats ``terms`` added one after another, in order."""
    return functools.reduce(operator.add, terms)


def consensus_error(x_rows):
    """Reference formula: the squared Frobenius deviation of the rows from their mean,
    for one (n, d) matrix or for each matrix of an (R, n, d) stack, in Python floats
    with every sum in order: the agents for the mean, then the n d squares row by row."""
    x = np.asarray(x_rows, dtype=np.float64)
    if x.ndim == 3:
        return np.array([consensus_error(matrix) for matrix in x])
    rows = np.atleast_2d(x).tolist()
    xbar = [in_order_sum(column) / len(rows) for column in zip(*rows)]
    return in_order_sum([(v - m) * (v - m) for row in rows for v, m in zip(row, xbar)])


def in_order_statistics(x, optimum):
    """Reference formula: xbar, ||x - 1 xbar^T||_F^2 and ||xbar - x*||^2 of one (n, d)
    matrix in Python floats, every sum in order, as consensus_error adds."""
    rows = x.tolist()
    xbar = [in_order_sum(column) / len(rows) for column in zip(*rows)]
    r_sq = in_order_sum([(m - o) * (m - o) for m, o in zip(xbar, optimum.tolist())])
    return np.array(xbar), consensus_error(x), r_sq


def global_value(objective, x):
    """Reference formula: f(x) = sum_i (w_i^T x - b_i)^2 at a point x (a float) or at
    each row of a (..., d) stack."""
    x = np.asarray(x, dtype=np.float64)
    residuals = np.matmul(objective.features, x[..., None])[..., 0] - objective.targets
    values = np.square(residuals).sum(axis=-1)
    return float(values) if x.ndim == 1 else values


def running_averages(xs):
    """Reference formula: the (t+1)-weighted averages z_0 = 0, z_1, ... of the iterates
    ``xs`` of rounds 0, 1, ...: z_k = U_k / (k (k+1) / 2), where U_k = sum_{t<k} (t+1) x_t
    is added one round at a time, in round order."""
    total = np.zeros_like(xs[0])
    zs = [total]
    for t, x in enumerate(xs[:-1]):
        total = total + (t + 1) * x
        zs.append(total / ((t + 1) * (t + 2) // 2))
    return zs


class CountedArray(np.ndarray):
    """An array that counts the numpy ufunc calls (``calls``) and the array functions,
    such as np.concatenate (``functions``), made on it and its results."""

    calls = 0
    functions = 0
    __array_priority__ = 1.0  # np.concatenate and its kin return the subclass too

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        CountedArray.calls += 1
        plain = [a.view(np.ndarray) if isinstance(a, CountedArray) else a for a in inputs]
        if out is not None:
            kwargs["out"] = tuple(o.view(np.ndarray) for o in out)
        result = getattr(ufunc, method)(*plain, **kwargs)
        if out is not None:
            return out[0]
        return result.view(CountedArray) if isinstance(result, np.ndarray) else result

    def __array_function__(self, func, types, args, kwargs):
        CountedArray.functions += 1
        return super().__array_function__(func, types, args, kwargs)


class ReplicaStreams:
    """The engine's stream rule written out: replica ``first + r`` of an
    (R, n, d) stack reads default_rng([seed, first + r]) in order, n*d
    uniforms u per quantized round k >= 1, handed to the engine as 1 - u;
    round 0 reads none."""

    def __init__(self, seed: int, shape: tuple, first: int = 0):
        self.shape = shape
        self.streams = [np.random.default_rng([seed, first + r]) for r in range(shape[0])]

    def __call__(self, k: int) -> np.ndarray:
        """The complements 1 - u round k reads, drawn from the streams when k >= 1."""
        if k == 0:
            return np.ones(self.shape)
        return 1.0 - np.stack([stream.random(self.shape[1:]) for stream in self.streams])


def engine_states(blocks):
    """The (k, x_k) of the engine's (first round, iterates) blocks, in round order."""
    for first, xs in blocks:
        for j, x in enumerate(xs):
            yield first + j, x


def reference_rounds(objective, mixing, schedule, *, iterations, seed, first, replicas,
                     quantized):
    """algorithm._run_rounds written out round by round: each round's constants and
    uniforms drawn on their own, and each new iterate checked against its range as soon
    as it is made, a non-finite one reported as made by its round. Yields one-round
    blocks, so a consumer of the engine reads it too."""
    x = np.zeros((replicas, objective.n, objective.dims))
    draws = ReplicaStreams(seed, x.shape, first)
    yield 0, x[None]
    for k in range(iterations):
        x = algorithm.run_round(x, mixing, objective, *constants(schedule, k),
                                draws(k) if quantized else None)
        try:
            check_range(x, float(schedule.grid(k + 1).range), k + 1)
        except GradientBoundError:
            if np.isfinite(x).all():
                raise
            raise NonFiniteIterateError(f"non-finite iterate at round {k}") from None
        yield k + 1, x[None]


@pytest.fixture
def path3():
    return path_topology(3)


@pytest.fixture
def triangle():
    return NetworkTopology.from_edges(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def pair():
    return NetworkTopology.from_edges(2, [(0, 1)])


@pytest.fixture
def hand_objective():
    # two orthogonal agents; optimum (1, 2) with zero residual
    return build_objective(np.array([[1.0, 0.0], [0.0, 1.0]]),
                           np.array([1.0, 2.0]))


@pytest.fixture
def small_instance():
    return well_conditioned_instance(4, 2)


@pytest.fixture
def small_mixing(small_instance):
    return lazy_metropolis(path_topology(small_instance.n))
