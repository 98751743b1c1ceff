"""Tests for widest-path bottleneck bandwidth (:func:`widest_paths`).

The descending-Kruskal sweep is checked against a brute-force widest-path
computation via networkx on random graphs (property test), in both of its
outputs: the block-filled all-pairs matrix and the maximum-spanning forest
with its exact pair mean.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.topology import widest_paths


def all_pairs_bottleneck(n, edges, widths):
    """The sweep's block-filled ``(n, n)`` matrix."""
    return widest_paths(n, edges, widths, matrix=True).matrix


def _brute_force(n, edges, widths):
    """Widest path via max-spanning-tree property in networkx."""
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for (u, v), w in zip(edges, widths):
        g.add_edge(int(u), int(v), weight=float(w))
    out = np.zeros((n, n))
    np.fill_diagonal(out, np.inf)
    if g.number_of_edges() == 0:
        return out
    mst = nx.maximum_spanning_tree(g)
    for u in range(n):
        if u not in mst:
            continue
        lengths = {}
        # DFS carrying the min edge weight along the tree path.
        stack = [(u, np.inf)]
        seen = {u}
        while stack:
            x, w = stack.pop()
            for y in mst.neighbors(x):
                if y in seen:
                    continue
                seen.add(y)
                w2 = min(w, mst[x][y]["weight"])
                lengths[y] = w2
                stack.append((y, w2))
        for v, w in lengths.items():
            out[u, v] = w
    return out


def test_triangle():
    # 0-1 width 10, 1-2 width 2, 0-2 width 5: widest 0->2 is direct (5).
    edges = np.array([[0, 1], [1, 2], [0, 2]])
    widths = np.array([10.0, 2.0, 5.0])
    b = all_pairs_bottleneck(3, edges, widths)
    assert b[0, 1] == 10.0
    assert b[0, 2] == 5.0
    assert b[1, 2] == 5.0  # via 0: min(10, 5) = 5 beats direct 2


def test_chain_bottleneck_is_min_edge():
    edges = np.array([[0, 1], [1, 2], [2, 3]])
    widths = np.array([7.0, 3.0, 9.0])
    b = all_pairs_bottleneck(4, edges, widths)
    assert b[0, 3] == 3.0
    assert b[1, 3] == 3.0
    assert b[2, 3] == 9.0


def test_disconnected_pairs_are_zero():
    edges = np.array([[0, 1]])
    widths = np.array([4.0])
    b = all_pairs_bottleneck(3, edges, widths)
    assert b[0, 1] == 4.0
    assert b[0, 2] == 0.0
    assert b[1, 2] == 0.0


def test_diagonal_is_infinite():
    b = all_pairs_bottleneck(3, np.array([[0, 1]]), np.array([1.0]))
    assert np.all(np.isinf(np.diag(b)))


def test_symmetry():
    rng = np.random.default_rng(0)
    n = 20
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(len(iu)) < 0.2
    edges = np.stack([iu[mask], ju[mask]], axis=1)
    widths = rng.uniform(0.1, 10, size=len(edges))
    b = all_pairs_bottleneck(n, edges, widths)
    assert np.array_equal(b, b.T)


def test_empty_graph():
    b = all_pairs_bottleneck(4, np.empty((0, 2), dtype=np.int64), np.empty(0))
    assert np.all(b[~np.eye(4, dtype=bool)] == 0.0)


def test_single_node():
    b = all_pairs_bottleneck(1, np.empty((0, 2), dtype=np.int64), np.empty(0))
    assert b.shape == (1, 1)
    assert np.isinf(b[0, 0])


def test_mismatched_lengths_rejected():
    import pytest

    with pytest.raises(ValueError):
        all_pairs_bottleneck(3, np.array([[0, 1]]), np.array([1.0, 2.0]))


def test_parallel_widths_keep_max():
    """Two routes between components: the wider one defines the bottleneck."""
    edges = np.array([[0, 1], [0, 2], [1, 3], [2, 3]])
    widths = np.array([1.0, 8.0, 1.0, 8.0])
    b = all_pairs_bottleneck(4, edges, widths)
    assert b[0, 3] == 8.0  # via node 2


@given(
    n=st.integers(min_value=2, max_value=14),
    seed=st.integers(0, 2**20),
    p=st.floats(min_value=0.1, max_value=0.9),
)
@settings(max_examples=40, deadline=None)
def test_property_matches_networkx_brute_force(n, seed, p):
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(len(iu)) < p
    edges = np.stack([iu[mask], ju[mask]], axis=1)
    widths = rng.uniform(0.1, 10.0, size=len(edges))
    ours = all_pairs_bottleneck(n, edges, widths)
    ref = _brute_force(n, edges, widths)
    assert np.allclose(ours, ref)


def test_forest_mode_builds_no_matrix_and_same_forest():
    rng = np.random.default_rng(3)
    n = 30
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(len(iu)) < 0.15
    edges = np.stack([iu[mask], ju[mask]], axis=1)
    widths = rng.uniform(0.1, 10.0, size=len(edges))
    forest = widest_paths(n, edges, widths)
    full = widest_paths(n, edges, widths, matrix=True)
    assert forest.matrix is None
    assert (forest.u, forest.v, forest.width, forest.mean) == (
        full.u, full.v, full.width, full.mean
    )


@given(
    n=st.integers(min_value=2, max_value=14),
    seed=st.integers(0, 2**20),
    p=st.floats(min_value=0.05, max_value=0.9),
)
@settings(max_examples=40, deadline=None)
def test_property_forest_and_mean_match_brute_force(n, seed, p):
    """The forest spans every component and its pair mean is the mean
    widest-path width over all connected pairs."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(len(iu)) < p
    edges = np.stack([iu[mask], ju[mask]], axis=1)
    widths = rng.uniform(0.1, 10.0, size=len(edges))
    ours = widest_paths(n, edges, widths)
    ref = _brute_force(n, edges, widths)
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(map(tuple, edges.tolist()))
    assert len(ours.u) == n - nx.number_connected_components(g)
    connected = ref[np.triu_indices(n, k=1)]
    connected = connected[connected > 0]
    expected = float(connected.mean()) if len(connected) else 0.0
    assert np.isclose(ours.mean, expected)
