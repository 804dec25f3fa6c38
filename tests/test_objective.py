import numpy as np
import pytest

from conftest import global_value, in_order_sum
from qdgm.errors import DegenerateInstanceError
from qdgm.objective import (add_in_order, build_objective, generate_instance, gradient_matrix,
                            save_instance_csv, well_conditioned_instance)


def agent_gradient(obj, agent, x):
    """Agent ``agent``'s gradient at x: its row of ``gradient_matrix`` with
    every agent at x."""
    return gradient_matrix(obj, np.tile(x, (obj.n, 1)))[agent]


def test_hand_instance_constants(hand_objective):
    obj = hand_objective
    assert np.allclose(obj.optimum, [1.0, 2.0])
    assert obj.f_star == 0.0
    assert obj.mu == pytest.approx(2.0, abs=1e-12)
    assert obj.lipschitz == pytest.approx(2.0, abs=1e-12)


def test_hand_instance_values(hand_objective):
    assert global_value(hand_objective, np.zeros(2)) == pytest.approx(5.0)
    assert global_value(hand_objective, hand_objective.optimum) == pytest.approx(0.0)


def test_zero_targets_give_zero_value_at_origin():
    obj = build_objective(np.array([[0.3, 0.1], [0.2, 0.9]]), np.zeros(2))
    assert global_value(obj, np.zeros(2)) == 0.0


def test_gradients_sum_to_zero_at_optimum(hand_objective):
    total = sum(agent_gradient(hand_objective, i, hand_objective.optimum)
                for i in range(hand_objective.n))
    assert np.abs(total).max() < 1e-12


def test_single_agent_gradient():
    obj = build_objective(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 0.0]))
    assert np.allclose(agent_gradient(obj, 0, np.zeros(2)), [-2.0, 0.0])
    assert global_value(obj, np.zeros(2)) == pytest.approx(1.0)
    assert np.allclose(agent_gradient(obj, 0, np.array([1.0, 0.0])), [0.0, 0.0])


def test_gradient_matches_finite_differences():
    obj = generate_instance(8, 3, seed=11)
    rng = np.random.default_rng(0)
    h = 1e-6
    for _ in range(10):
        x = rng.uniform(-1, 1, size=3)
        agent = int(rng.integers(obj.n))
        grad = agent_gradient(obj, agent, x)
        w, b = obj.features[agent], obj.targets[agent]
        fd = np.empty(3)
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd[j] = ((w @ (x + e) - b) ** 2 - (w @ (x - e) - b) ** 2) / (2 * h)
        assert np.abs(grad - fd).max() <= 1e-5 * max(1.0, np.abs(grad).max())


def test_gradient_matrix_matches_per_agent():
    obj = generate_instance(6, 2, seed=4)
    rng = np.random.default_rng(1)
    x_rows = rng.uniform(-1, 1, size=(6, 2))
    stacked = gradient_matrix(obj, x_rows)
    for i in range(6):
        # agent i's term 2 w_i (w_i^T x_i - b_i) at its own iterate
        w, b = obj.features[i], obj.targets[i]
        assert np.allclose(stacked[i], 2.0 * w * (w @ x_rows[i] - b), atol=1e-15)
    # each matrix of an (R, n, d) stack gets the same rows as on its own
    stack = rng.uniform(-1, 1, size=(3, 6, 2))
    assert np.array_equal(gradient_matrix(obj, stack),
                          [gradient_matrix(obj, rows) for rows in stack])


def test_gradient_matrix_uses_the_cached_twice_features():
    # (2.0 * w) * r is what 2.0 * w * r evaluates, so the constant keeps every bit
    obj = generate_instance(40, 5, seed=3)
    rng = np.random.default_rng(8)
    for shape in ((40, 5), (3, 40, 5)):
        x = rng.uniform(-1.0, 1.0, size=shape)
        residuals = np.einsum("...ij,ij->...i", x, obj.features) - obj.targets
        want = 2.0 * obj.features * residuals[..., None]
        assert np.all(gradient_matrix(obj, x) == want)
    assert np.all(obj.twice_features == 2.0 * obj.features)
    with pytest.raises(ValueError, match="read-only"):
        obj.twice_features[0, 0] = 1.0


def test_optimum_beats_random_perturbations():
    obj = generate_instance(40, 5, seed=7)
    rng = np.random.default_rng(2)
    for _ in range(100):
        probe = obj.optimum + rng.uniform(-0.5, 0.5, size=5)
        assert global_value(obj, probe) >= obj.f_star


def test_strong_convexity_and_smoothness_probes():
    obj = generate_instance(12, 3, seed=9)
    rng = np.random.default_rng(3)
    r = obj.operating_radius

    def grad_f(x):
        return 2.0 * obj.features.T @ (obj.features @ x - obj.targets)

    for _ in range(200):
        x = rng.uniform(-r, r, size=3)
        y = rng.uniform(-r, r, size=3)
        lhs = global_value(obj, x) - global_value(obj, y) - grad_f(y) @ (x - y)
        assert lhs >= obj.mu / 2 * np.sum((x - y) ** 2) - 1e-8
        assert np.linalg.norm(grad_f(x) - grad_f(y)) <= \
            obj.lipschitz * np.linalg.norm(x - y) + 1e-8


def test_certified_gradient_bound_holds_on_box():
    obj = generate_instance(10, 4, seed=13)
    rng = np.random.default_rng(5)
    x = rng.uniform(-obj.operating_radius, obj.operating_radius, size=(10_000, 4))
    # per-agent gradient norms over the whole box never exceed the bound
    residuals = x @ obj.features.T - obj.targets  # (samples, agents)
    norms = 2.0 * np.abs(residuals) * np.linalg.norm(obj.features, axis=1)
    assert norms.max() <= obj.grad_bound


def test_generate_deterministic_and_shape():
    a = generate_instance(6, 2, seed=20)
    b = generate_instance(6, 2, seed=20)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.targets, b.targets)
    assert a.mu == b.mu and a.grad_bound == b.grad_bound
    assert a.mu > 0 and a.mu <= a.lipschitz


def test_generate_rejects_underdetermined():
    with pytest.raises(ValueError, match="at least as many agents"):
        generate_instance(2, 3, seed=0)


def test_degenerate_data_rejected():
    w = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])  # rank one
    with pytest.raises(DegenerateInstanceError, match="degenerate instance"):
        build_objective(w, np.array([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("entry", [np.inf, np.nan, 1e300])
def test_non_finite_gram_matrix_rejected(entry):
    # an infinite or NaN feature, or one whose square overflows, leaves a Gram
    # matrix eigvalsh cannot decompose; the typed error comes first
    w = np.array([[1.0, 0.0], [0.0, 1.0], [entry, 1.0]])
    with pytest.raises(DegenerateInstanceError, match="Gram matrix is not finite"):
        build_objective(w, np.array([1.0, 2.0, 3.0]))


def test_overflowing_draws_say_why_none_was_usable():
    with pytest.raises(DegenerateInstanceError, match=(
            "^degenerate instance: the Gram matrix is not finite; no usable draw in")):
        generate_instance(4, 2, seed=0, feature_high=1e300)


def test_well_conditioned_instance_properties(small_instance):
    obj = small_instance
    assert obj.mu == pytest.approx(obj.lipschitz)
    assert obj.grad_bound <= obj.lipschitz  # keeps gradients inside the
    # region where the contraction constants apply
    assert obj.f_star > 0.0


def test_instance_csv_roundtrip(tmp_path):
    obj = generate_instance(7, 3, seed=77)
    path = tmp_path / "instance.csv"
    save_instance_csv(obj, path)
    header = path.read_text().splitlines()[0]
    assert header == "w_1,w_2,w_3,b"
    # the package only writes the file; numpy reads it back bit for bit
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(data[:, :-1], obj.features)
    assert np.array_equal(data[:, -1], obj.targets)
    # constants recomputed, not stored: must agree exactly
    loaded = build_objective(data[:, :-1], data[:, -1])
    assert loaded.mu == obj.mu
    assert loaded.grad_bound == obj.grad_bound
    assert np.array_equal(loaded.optimum, obj.optimum)


def test_values_never_below_optimum():
    obj = well_conditioned_instance(6, 3)
    rng = np.random.default_rng(6)
    for _ in range(200):
        assert global_value(obj, rng.uniform(-2, 2, size=3)) >= obj.f_star


def _spread_terms(shape, seed):
    """Signed terms whose magnitudes span 1e-8 to 1e8, so the order of the adds shows."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, size=shape)


@pytest.mark.parametrize("m", [1, 2, 8, 9, 129])
@pytest.mark.parametrize("term_shape", [(), (1,), (1, 1), (2,), (3, 5)])
def test_add_in_order_adds_the_terms_one_after_another(m, term_shape):
    # every C-contiguous shape, a lone column included, sums its first axis in order
    terms = _spread_terms((m, *term_shape), seed=m)
    columns = terms.reshape(m, -1).T.tolist()
    expected = np.array([in_order_sum(column) for column in columns]).reshape(term_shape)
    result = np.asarray(add_in_order(terms))
    assert result.shape == term_shape
    assert result.tobytes() == expected.tobytes()


def test_bare_reduce_adds_a_lone_column_out_of_order():
    # numpy's rule that add_in_order guards against: without its accumulate
    # branch, some lone column would not be summed in order
    misses = 0
    for seed in range(5):
        for shape in [(129,), (129, 1), (129, 1, 1)]:
            terms = _spread_terms(shape, seed)
            expected = in_order_sum(terms.ravel().tolist())
            misses += float(np.add.reduce(terms).ravel()[0]) != expected
    assert misses >= 1
