import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdgm.errors import GraphSamplingError, MixingError
from qdgm.graph import (MixingMatrix, NetworkTopology,
                        generate_random_connected_graph, is_connected,
                        lazy_metropolis, load_edge_list, path_topology,
                        save_edge_list, spectral_gap)


def test_path3_weights_exact(path3):
    mix = lazy_metropolis(path3)
    a = mix.entries
    assert a[0, 1] == 0.25 and a[1, 2] == 0.25
    assert a[0, 0] == 0.75 and a[2, 2] == 0.75
    assert a[1, 1] == 0.5
    assert a[0, 2] == 0.0


def test_path3_sigma2_hand_value(path3):
    # eigenvalues of the path-3 matrix are 1, 3/4, 1/4
    mix = lazy_metropolis(path3)
    assert mix.sigma2 == pytest.approx(0.75, abs=1e-12)
    assert spectral_gap(mix) == pytest.approx(0.25, abs=1e-12)


def test_triangle_weights_and_gap(triangle):
    mix = lazy_metropolis(triangle)
    off = mix.entries[~np.eye(3, dtype=bool)]
    assert np.all(off == 0.25)
    assert np.all(np.diag(mix.entries) == 0.5)
    assert mix.sigma2 == pytest.approx(0.25, abs=1e-12)
    assert spectral_gap(mix) == pytest.approx(0.75, abs=1e-12)


def test_single_edge_mixing(pair):
    mix = lazy_metropolis(pair)
    assert np.all(mix.entries == 0.5)
    assert mix.sigma2 == pytest.approx(0.0, abs=1e-12)
    assert spectral_gap(mix) == pytest.approx(1.0, abs=1e-12)


def test_sigma2_matches_independent_eigensolve(path3, triangle):
    for topo in (path3, triangle):
        mix = lazy_metropolis(topo)
        # general (non-symmetric) solver as the second implementation
        evals = sorted(np.real(np.linalg.eigvals(mix.entries)), reverse=True)
        assert abs(mix.sigma2 - evals[1]) < 1e-10


def test_generate_two_nodes_full_probability():
    topo = generate_random_connected_graph(2, 1.0, seed=123)
    assert topo.edges == ((0, 1),)


def test_generate_three_nodes_complete():
    topo = generate_random_connected_graph(3, 1.0, seed=5)
    assert topo.edges == ((0, 1), (0, 2), (1, 2))


def test_generate_deterministic():
    a = generate_random_connected_graph(12, 0.3, seed=42)
    b = generate_random_connected_graph(12, 0.3, seed=42)
    assert a.edges == b.edges
    c = generate_random_connected_graph(12, 0.3, seed=43)
    assert a.edges != c.edges


def test_generate_benchmark_size():
    # expected edge count 0.158 * C(40, 2) is ~123; allow sampling spread
    topo = generate_random_connected_graph(40, 0.158, seed=7)
    assert is_connected(topo.adjacency())
    assert 80 <= topo.edge_count <= 170


def test_generate_gives_up():
    with pytest.raises(GraphSamplingError, match="could not sample connected graph"):
        generate_random_connected_graph(50, 1e-9, seed=0, retry_limit=3)


def test_generate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        generate_random_connected_graph(1, 0.5, seed=0)
    with pytest.raises(ValueError):
        generate_random_connected_graph(5, 0.0, seed=0)


def test_topology_validation():
    with pytest.raises(ValueError, match="self-loop"):
        NetworkTopology.from_edges(3, [(0, 0), (0, 1), (1, 2)])
    with pytest.raises(ValueError, match="not connected"):
        NetworkTopology.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="out of range"):
        NetworkTopology.from_edges(3, [(0, 5)])
    # duplicate and reversed edges collapse to one undirected edge
    topo = NetworkTopology.from_edges(2, [(0, 1), (1, 0), (0, 1)])
    assert topo.edge_count == 1


def test_spectral_gap_rejects_identity():
    with pytest.raises(MixingError, match="disconnected or periodic"):
        spectral_gap(MixingMatrix(np.eye(3), 1.0))


@pytest.mark.parametrize("entries, sigma2, message", [
    ([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]], 0.5, "not symmetric"),
    ([[0.5, 0.25, 0.0], [0.25, 0.5, 0.25], [0.0, 0.25, 0.5]], 0.5, "column sums deviate"),
    ([[1.5, -0.5, 0.0], [-0.5, 1.0, 0.5], [0.0, 0.5, 0.5]], 0.5, "entries outside"),
    ([[0.5, 0.25, 0.25], [0.25, 0.75, 0.0], [0.25, 0.0, 0.75]], 0.5, "on a non-edge"),
    (np.eye(3), 1.0, "disconnected or periodic"),
], ids=["asymmetric", "column-sums", "negative-entry", "non-edge", "disconnected"])
def test_mixing_validate_refuses_each_broken_invariant(path3, entries, sigma2, message):
    # each matrix breaks one invariant and keeps the ones checked before it
    with pytest.raises(MixingError, match=message):
        MixingMatrix(np.array(entries, dtype=float), sigma2).validate(path3)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(4, 25), p=st.floats(0.2, 1.0), seed=st.integers(0, 10_000))
def test_lazy_metropolis_invariants(n, p, seed):
    topo = generate_random_connected_graph(n, p, seed)
    mix = lazy_metropolis(topo)
    a = mix.entries
    assert np.abs(a.sum(axis=0) - 1.0).max() <= 1e-12
    assert np.abs(a.sum(axis=1) - 1.0).max() <= 1e-12
    assert np.array_equal(a, a.T)
    assert a.min() >= 0.0 and a.max() <= 1.0
    mix.validate(topo)
    ones = np.ones(n)
    assert np.linalg.norm(a @ ones - ones) <= 1e-10
    # contraction on the orthogonal complement of the all-ones vector
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v -= v.mean()
    assert np.linalg.norm(a @ v) <= mix.sigma2 * np.linalg.norm(v) + 1e-10
    assert 0.0 < spectral_gap(mix) <= 1.0


def test_edge_list_roundtrip(tmp_path):
    topo = generate_random_connected_graph(9, 0.4, seed=3)
    path = tmp_path / "g.edges"
    save_edge_list(topo, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == f"9 {topo.edge_count}"
    loaded = load_edge_list(path)
    assert loaded.edges == topo.edges
    assert loaded == topo


def test_edge_list_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("3 2\n0 1\n")
    with pytest.raises(ValueError, match="promises 2 edges"):
        load_edge_list(bad)


def test_path_topology_shape():
    topo = path_topology(5)
    assert topo.edge_count == 4
    assert topo.edges == ((0, 1), (1, 2), (2, 3), (3, 4))
    assert topo.adjacency().sum(axis=1).tolist() == [1, 2, 2, 2, 1]


def test_connectivity_by_frontier_growth():
    # a path labelled against the order the frontier grows in, needing one
    # step per agent, then the same path cut in the middle
    order = [5, 3, 0, 4, 1, 2]
    adj = NetworkTopology.from_edges(6, zip(order, order[1:])).adjacency()
    assert np.array_equal(adj, adj.T) and not adj.diagonal().any()
    assert is_connected(adj)
    adj[0, 4] = adj[4, 0] = False
    assert not is_connected(adj)
    assert is_connected(np.zeros((1, 1), dtype=bool))
