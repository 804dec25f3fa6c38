"""Pinned graph outputs: sampled edge lists and mixing matrices, bit for bit.

Each digest is the sha256 over, in order for every graph, the bytes
``save_edge_list`` writes, ``lazy_metropolis(topo).entries.tobytes()`` and
the float64 bytes of its ``sigma2``. A change that moves any of them on
purpose re-pins these digests and says so.
"""
import hashlib

import numpy as np
import pytest

from qdgm.graph import (generate_random_connected_graph, lazy_metropolis,
                        load_edge_list, path_topology, save_edge_list)

SAMPLED = {
    (40, 0.158): "9128b7c47fdf3f98c0a526ddf566adcc5a12ff4c1dc8bcd715a3913cb4bf8a92",
    (12, 0.3): "a89fee26e8937d3f970b5759d3aaf9937bf2511eaa49f61a6014f06490130e7a",
    (5, 0.5): "17dcaf676fc3b8e792bd1b97ac95a37d3a8e16398c8c15bfb652338e5721e033",
    (25, 0.2): "2873ef7e9dac3b0970ca838df73a2a74781f1fb93ad5eb5a7af6c0586b66370d",
    (2, 1.0): "f06f576c790a90d9eae4cf75232aad6a462572df811e49db759133106fdf2438",
    (3, 1.0): "ecdd55fc9a95a1c6270a8f950a22a5e3210a8684d81f45d3b6b06d12b37e4502",
}
PATHS_1_TO_6 = "a94ef9af4f3f941c476c3168c3994c71c42707ef87a07c9070c1bb257ac91a7d"


def _digest(topologies, path) -> str:
    h = hashlib.sha256()
    for topo in topologies:
        save_edge_list(topo, path)
        h.update(path.read_bytes())
        loaded = load_edge_list(path)
        assert (loaded.n, loaded.edges) == (topo.n, topo.edges)
        mix = lazy_metropolis(topo)
        mix.validate(topo)
        h.update(mix.entries.tobytes())
        h.update(np.float64(mix.sigma2).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("n,p", list(SAMPLED))
def test_sampled_graphs_match_golden_digest(n, p, tmp_path):
    topologies = (generate_random_connected_graph(n, p, seed) for seed in range(100))
    assert _digest(topologies, tmp_path / "g.edges") == SAMPLED[(n, p)]


def test_path_graphs_match_golden_digest(tmp_path):
    topologies = (path_topology(n) for n in range(1, 7))
    assert _digest(topologies, tmp_path / "g.edges") == PATHS_1_TO_6
