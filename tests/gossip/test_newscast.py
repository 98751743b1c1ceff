"""Tests for the Newscast membership overlay."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.gossip.newscast import NewscastOverlay
from repro.sim.rng import spawn_generator


def _overlay(n=40, cache=None, seed=0):
    return NewscastOverlay(list(range(n)), spawn_generator(seed, "nc"), cache_size=cache)


def test_cache_size_default_is_logarithmic():
    ov = _overlay(64)
    assert ov.cache_size == max(8, 2 * int(np.ceil(np.log2(64))))


def test_bootstrap_fills_caches():
    ov = _overlay(40)
    for i in range(40):
        assert 0 < len(ov.cache[i]) <= ov.cache_size
        assert i not in ov.cache[i]


def test_cache_bounded_after_cycles():
    ov = _overlay(50)
    for c in range(20):
        ov.run_cycle(float(c))
    for i in range(50):
        assert len(ov.cache[i]) <= ov.cache_size
        assert i not in ov.cache[i]


def test_sample_returns_live_distinct_peers():
    ov = _overlay(40)
    for c in range(5):
        ov.run_cycle(float(c))
    s = ov.sample(0, 5)
    assert len(s) == len(set(s)) <= 5
    assert all(p in ov.live and p != 0 for p in s)


def test_sample_from_unknown_node_is_empty():
    ov = _overlay(10)
    assert ov.sample(999, 3) == []


def test_remove_node_stops_sampling_it():
    ov = _overlay(30, seed=3)
    ov.remove_node(7)
    for c in range(10):
        ov.run_cycle(float(c))
    for i in ov.live:
        assert 7 not in ov.sample(i, 30)


def test_add_node_rejoins_overlay():
    ov = _overlay(30, seed=4)
    ov.remove_node(5)
    for c in range(3):
        ov.run_cycle(float(c))
    ov.add_node(5, 3.0)
    assert 5 in ov.live
    assert len(ov.cache[5]) > 0
    # After a few cycles the rejoined node spreads back into caches.
    for c in range(4, 14):
        ov.run_cycle(float(c))
    known_by = sum(1 for i in ov.live if 5 in ov.cache.get(i, {}))
    assert known_by > 0


def test_overlay_connects_everyone_over_time():
    """Random shuffles mix descriptors: every node gets sampled eventually."""
    ov = _overlay(25, seed=5)
    seen: set[int] = set()
    for c in range(30):
        ov.run_cycle(float(c))
        for i in ov.live:
            seen.update(ov.sample(i, 3))
    assert seen == set(range(25))


def test_known_live_excludes_dead():
    ov = _overlay(20, seed=6)
    for c in range(5):
        ov.run_cycle(float(c))
    ov.remove_node(3)
    for i in ov.live:
        assert 3 not in ov.known_live(i)


def test_add_node_beyond_the_constructed_rows_raises():
    ov = _overlay(10, seed=7)
    ov.remove_node(4)
    live = set(ov.live)
    with pytest.raises(IndexError):
        ov.add_node(10, 1.0)
    with pytest.raises(IndexError):
        ov.add_node(-1, 1.0)
    assert ov.live == live


def test_degenerate_cache_reseed_replays_exactly():
    """Force the reseed path: every peer in node 0's cache departs, so
    node 0's next pick finds no live entry and it reseeds from a random
    live node.  Every cache snapshot (in slot order, which is the order
    the next partner draw reads) and the following draw are hashed; the
    expected hash was recorded before the caches moved onto the shared
    record table."""
    ov = NewscastOverlay(list(range(12)), spawn_generator(3, "nc"), cache_size=3)
    for peer in list(ov.cache[0]):
        ov.remove_node(peer)
    h = hashlib.sha256()
    for c in range(6):
        ov.run_cycle(300.0 * c)
        cache = ov.cache
        for i in sorted(cache):
            h.update(repr((i, list(cache[i].items()))).encode())
    draw = ov.sample_one_batch(ov.live_array())
    h.update(repr(draw.tolist()).encode())
    assert (ov.reseeds, ov.shuffles) == (2, 52)
    assert draw.tolist() == [2, 0, 1, 8, 2, 1, 6, 4, 2]
    assert h.hexdigest() == (
        "c00eac126f170e835e1fede279859cc5f2223079ce040c9332600c8dcd4cbfb2"
    )


def _slots(ov):
    return {i: list(c.items()) for i, c in sorted(ov.cache.items())}


def test_reseed_appends_to_a_cache_that_is_not_full():
    ov = NewscastOverlay(list(range(12)), spawn_generator(3, "nc"), cache_size=3)
    for i in range(12):
        ov.remove_node(i)
    ov.add_node(0, 1.0)  # joins an empty overlay, so its cache is empty
    ov.add_node(1, 2.0)
    assert _slots(ov) == {0: [], 1: [(0, 2.0)]}
    ov.run_cycle(300.0)  # node 0 reseeds into its empty cache
    assert (ov.reseeds, ov.shuffles) == (1, 1)
    assert _slots(ov) == {0: [(1, 300.0)], 1: [(0, 300.0)]}
    ov.add_node(5, 400.0)
    ov.remove_node(1)
    ov.run_cycle(600.0)  # node 0's one entry has left: reseed appends
    assert (ov.reseeds, ov.shuffles) == (2, 2)
    assert _slots(ov) == {0: [(5, 600.0), (1, 400.0)], 5: [(0, 600.0), (1, 400.0)]}
