"""Tests for the Topology facade (end-to-end bandwidth/latency/transfers)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.net.topology import Topology
from repro.sim.rng import spawn_generator


def test_bandwidth_within_link_range(small_topology):
    top = small_topology
    n = top.n
    off = ~np.eye(n, dtype=bool)
    vals = top._bandwidth[off]
    assert vals.min() >= 0.1 - 1e-12
    assert vals.max() <= 10.0 + 1e-12


def test_bandwidth_symmetric(small_topology):
    assert np.array_equal(small_topology._bandwidth, small_topology._bandwidth.T)


def test_latency_positive_offdiagonal(small_topology):
    top = small_topology
    off = ~np.eye(top.n, dtype=bool)
    assert np.all(top._latency[off] > 0)
    assert np.all(np.diag(top._latency) == 0)


def test_latency_triangle_inequality(small_topology):
    """Shortest-path latencies satisfy the triangle inequality."""
    lat = small_topology._latency
    n = small_topology.n
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b, c = rng.integers(0, n, size=3)
        assert lat[a, c] <= lat[a, b] + lat[b, c] + 1e-9


def test_self_transfer_is_free(small_topology):
    assert small_topology.transfer_time(3, 3, 1e9) == 0.0


def test_zero_bytes_is_free(small_topology):
    assert small_topology.transfer_time(0, 1, 0.0) == 0.0


def test_transfer_time_formula(small_topology):
    top = small_topology
    t = top.transfer_time(0, 1, 100.0)
    assert t == pytest.approx(100.0 / top.bandwidth(0, 1) + top.latency(0, 1))


def test_transfer_time_monotone_in_size(small_topology):
    top = small_topology
    assert top.transfer_time(0, 1, 200.0) > top.transfer_time(0, 1, 100.0)


def test_rows_match_matrix(small_topology):
    top = small_topology
    assert np.array_equal(top.bandwidth_row(2), top._bandwidth[2])
    assert np.array_equal(top.latency_row(2), top._latency[2])


def test_mean_bandwidth_positive(small_topology):
    mb = small_topology.mean_bandwidth()
    assert 0.1 <= mb <= 10.0


def test_invalid_bandwidth_range_rejected():
    from repro.net.waxman import generate_waxman

    g = generate_waxman(5, spawn_generator(0, "t"))
    with pytest.raises(ValueError):
        Topology(g, bw_min=0.0, bw_max=1.0)
    with pytest.raises(ValueError):
        Topology(g, bw_min=5.0, bw_max=1.0)


def test_single_node_topology():
    top = Topology.waxman(1, spawn_generator(1, "t"))
    assert top.n == 1
    assert top.transfer_time(0, 0, 100.0) == 0.0


def test_waxman_factory_deterministic():
    a = Topology.waxman(20, spawn_generator(5, "t"))
    b = Topology.waxman(20, spawn_generator(5, "t"))
    assert np.allclose(a._bandwidth, b._bandwidth)
    assert np.allclose(a._latency, b._latency)


@pytest.mark.parametrize("n", [60, 240])
def test_all_pairs_latency_equals_undirected_search(n):
    """The adjacency stores both directions of every link, so the directed
    search gives the undirected one's matrix, bit for bit."""
    from scipy.sparse.csgraph import dijkstra

    top = Topology.waxman(n, spawn_generator(7, "t"))
    undirected = dijkstra(top._adjacency(), directed=False)
    assert np.array_equal(top._latency.view(np.int64), undirected.view(np.int64))


@pytest.mark.parametrize("n", [300, 1200])
def test_landmark_latency_rows_equal_undirected_search(n):
    from scipy.sparse.csgraph import dijkstra

    top = Topology.waxman(n, spawn_generator(7, "t"), exact_paths=False)
    undirected = dijkstra(top._adjacency(), directed=False, indices=top._lat_landmarks)
    assert np.array_equal(top._lat_lm.view(np.int64), undirected.view(np.int64))
