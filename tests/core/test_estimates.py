"""Tests for Eq. (4)-(6) estimation and the ResourceView."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core.estimates import ResourceView


class FlatBandwidth:
    """Uniform test bandwidth: ``bw`` Mb/s everywhere, zero latency."""

    def __init__(self, bw=10.0):
        self.bw = bw

    def pairs(self, srcs, dsts):
        return np.full(len(srcs), self.bw), np.zeros(len(srcs))


def _view(ids=(0, 1, 2), caps=(1.0, 2.0, 4.0), loads=(0.0, 0.0, 0.0), bw=10.0, home=0):
    return ResourceView(list(ids), list(caps), list(loads), FlatBandwidth(bw), home)


class TestQueueDelay:
    def test_r_is_load_over_capacity(self):
        v = _view(loads=(100.0, 100.0, 100.0))
        assert np.allclose(v.queue_delays(), [100.0, 50.0, 25.0])

    def test_idle_nodes_zero_delay(self):
        assert np.allclose(_view().queue_delays(), 0.0)


class TestLtd:
    def test_no_inputs_no_image_is_zero(self):
        assert np.allclose(_view().ltd_vector(0.0, []), 0.0)

    def test_image_from_home_free_on_home(self):
        v = _view(home=0)
        ltd = v.ltd_vector(50.0, [])
        assert ltd[0] == 0.0          # local to home
        assert ltd[1] == pytest.approx(5.0)

    def test_input_free_on_source_node(self):
        v = _view()
        ltd = v.ltd_vector(0.0, [(1, 100.0)])
        assert ltd[1] == 0.0
        assert ltd[0] == pytest.approx(10.0)

    def test_ltd_is_max_over_inputs(self):
        v = _view()
        ltd = v.ltd_vector(0.0, [(1, 100.0), (2, 300.0)])
        assert ltd[0] == pytest.approx(30.0)  # slowest transfer dominates

    def test_zero_size_inputs_ignored(self):
        v = _view()
        assert np.allclose(v.ltd_vector(0.0, [(1, 0.0)]), 0.0)


class TestFt:
    def test_ft_combines_queue_and_execution(self):
        v = _view(loads=(100.0, 0.0, 0.0))
        ft = v.ft_vector(200.0, 0.0, [])
        # node 0: R=100, et=200 -> 300; node 1: et=100; node 2: et=50.
        assert np.allclose(ft, [300.0, 100.0, 50.0])

    def test_st_is_max_of_r_and_ltd(self):
        # Big transfer: LTD dominates R on idle nodes.
        v = _view()
        ft = v.ft_vector(100.0, 0.0, [(0, 1000.0)])
        assert ft[0] == pytest.approx(100.0)        # local data
        assert ft[1] == pytest.approx(100.0 + 50.0)  # 100s transfer > R=0
        assert ft[2] == pytest.approx(100.0 + 25.0)

    def test_best_picks_argmin(self):
        v = _view(loads=(100.0, 0.0, 0.0))
        node, ft = v.best(200.0, 0.0, [])
        assert node == 2
        assert ft == pytest.approx(50.0)

    def test_best_ft_matches_vector_min(self):
        v = _view(loads=(10.0, 20.0, 30.0))
        assert v.best_ft(50.0, 10.0, [(1, 40.0)]) == pytest.approx(
            v.ft_vector(50.0, 10.0, [(1, 40.0)]).min()
        )


class TestMutation:
    def test_add_load_raises_queue_delay(self):
        v = _view()
        before = v.ft_vector(100.0, 0.0, []).copy()
        v.add_load(2, 400.0)
        after = v.ft_vector(100.0, 0.0, [])
        assert after[2] == pytest.approx(before[2] + 100.0)
        assert after[0] == before[0]

    def test_add_load_invokes_writeback(self):
        v = _view()
        seen = []
        v.add_load(1, 50.0, on_update=lambda nid, load: seen.append((nid, load)))
        assert seen == [(1, 50.0)]

    def test_add_load_unknown_node_raises(self):
        with pytest.raises(KeyError):
            _view().add_load(99, 1.0)

    def test_repeated_picks_spread_load(self):
        """Charging the chosen node steers later picks elsewhere (line 15)."""
        v = _view(caps=(4.0, 4.0, 4.0))
        picks = []
        for _ in range(3):
            node, _ = v.best(100.0, 0.0, [])
            picks.append(node)
            v.add_load(node, 100.0)
        assert set(picks) == {0, 1, 2}


class TestValidation:
    def test_empty_view_rejected(self):
        with pytest.raises(ValueError):
            ResourceView([], [], [], FlatBandwidth(), 0)

    def test_misaligned_arrays_rejected(self):
        with pytest.raises(ValueError):
            ResourceView([0, 1], [1.0], [0.0, 0.0], FlatBandwidth(), 0)

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResourceView([0], [0.0], [0.0], FlatBandwidth(), 0)

    def test_len(self):
        assert len(_view()) == 3


class CountingBandwidth:
    """Random dense bandwidth/latency that counts Eq. (4) pair lookups per
    source, gathered as arrays (as an exact topology's matrices answer)."""

    def __init__(self, n=12, seed=3):
        rng = np.random.default_rng(seed)
        self.bw = rng.uniform(1.0, 100.0, (n, n))
        self.lat = rng.uniform(0.0, 0.2, (n, n))
        self.lookups: Counter[int] = Counter()

    def pairs(self, srcs, dsts):
        self.lookups.update(srcs.tolist())
        return self.bw[srcs, dsts], self.lat[srcs, dsts]


class CountingScalarBandwidth(CountingBandwidth):
    """The same knowledge looked up one pair at a time (as a scalable
    topology answers)."""

    def pairs(self, srcs, dsts):
        self.lookups.update(srcs.tolist())
        uv = list(zip(srcs.tolist(), dsts.tolist()))
        return (
            np.array([self.bw[u, v] for u, v in uv]),
            np.array([self.lat[u, v] for u, v in uv]),
        )


#: (image Mb, inputs) per task; the first repeats later, and sources 9 and
#: 11 lie outside the candidate set.
_TASKS = [
    (50.0, [(3, 40.0)]),
    (0.0, [(2, 10.0), (9, 20.0)]),
    (50.0, [(3, 40.0)]),
    (25.0, []),
    (0.0, [(11, 0.0)]),
    (10.0, [(9, 5.0), (3, 7.5)]),
]
_IDS = [0, 1, 2, 3, 4, 5, 6, 7]
_CAPS = [1.0, 2.0, 4.0, 1.0, 2.0, 4.0, 8.0, 3.0]


def _counting_view(provider, loads=None):
    loads = list(loads) if loads is not None else [5.0 * k for k in range(len(_IDS))]
    return ResourceView(list(_IDS), list(_CAPS), loads, provider, home_id=0)


def _expected_lookups(home=0):
    """One pair lookup per transfer source and candidate of each *distinct*
    task."""
    want: Counter[int] = Counter()
    for image, inputs in {(image, tuple(inputs)) for image, inputs in _TASKS}:
        if image > 0.0:
            want[home] += len(_IDS)
        for src, mb in inputs:
            if mb > 0.0:
                want[src] += len(_IDS)
    return want


@pytest.mark.parametrize("provider_cls", [CountingBandwidth, CountingScalarBandwidth])
class TestLtdMemo:
    def test_each_distinct_task_evaluated_once_per_view(self, provider_cls):
        provider = provider_cls()
        view = _counting_view(provider)
        for round_ in range(3):
            for image, inputs in _TASKS:
                view.best(100.0, image, inputs)
                view.best_ft(100.0, image, inputs)
                view.ft_vector(100.0, image, inputs)
                view.ltd_vector(image, inputs)
            view.add_load(_IDS[round_ + 1], 40.0)
        assert provider.lookups == _expected_lookups()
        # The memo is per view: a new view evaluates every task again.
        fresh = _counting_view(provider)
        for image, inputs in _TASKS:
            fresh.best_ft(100.0, image, inputs)
        assert provider.lookups == _expected_lookups() + _expected_lookups()

    def test_estimates_after_add_load_equal_a_fresh_views(self, provider_cls):
        view = _counting_view(provider_cls())
        loads = [5.0 * k for k in range(len(_IDS))]
        for image, inputs in _TASKS:
            view.best(100.0, image, inputs)
        for nid, load in ((2, 40.0), (5, 300.0), (2, 7.5)):
            view.add_load(nid, load)
            loads[_IDS.index(nid)] += load
        fresh = _counting_view(provider_cls(), loads)
        for image, inputs in _TASKS:
            for load in (1.0, 100.0, 5000.0):
                assert view.best(load, image, inputs) == fresh.best(load, image, inputs)
                assert view.best_ft(load, image, inputs) == fresh.best_ft(load, image, inputs)
                assert np.array_equal(
                    view.ft_vector(load, image, inputs), fresh.ft_vector(load, image, inputs)
                )

    def test_memoized_ltd_equals_a_fresh_vector_views(self, provider_cls):
        # One view answers every task from its memo; the reference is a new
        # view per task over the array-gathering provider, so neither memo
        # keys nor the provider's lookup order can drift unnoticed.
        view = _counting_view(provider_cls())
        for image, inputs in _TASKS + _TASKS[::-1]:
            reference = _counting_view(CountingBandwidth())
            assert np.array_equal(view.ltd_vector(image, inputs),
                                  reference.ltd_vector(image, inputs))

    def test_ltd_vector_returns_a_copy(self, provider_cls):
        view = _counting_view(provider_cls())
        image, inputs = _TASKS[0]
        first = view.ltd_vector(image, inputs)
        first[:] = -1.0
        assert (view.ltd_vector(image, inputs) >= 0.0).all()
