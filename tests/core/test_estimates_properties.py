"""Property-based tests (hypothesis) for the Eq. (4)-(6) estimators."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimates import ResourceView


class FlatBandwidth:
    def __init__(self, bw: float):
        self.bw = bw

    def pairs(self, srcs, dsts):
        return np.full(len(srcs), self.bw), np.zeros(len(srcs))


views = st.builds(
    lambda caps, loads, bw: ResourceView(
        list(range(len(caps))),
        caps,
        loads[: len(caps)] + [0.0] * max(0, len(caps) - len(loads)),
        FlatBandwidth(bw),
        home_id=0,
    ),
    caps=st.lists(st.floats(min_value=0.5, max_value=16.0), min_size=1, max_size=12),
    loads=st.lists(st.floats(min_value=0.0, max_value=1e5), min_size=12, max_size=12),
    bw=st.floats(min_value=0.1, max_value=10.0),
)


@given(view=views, load=st.floats(min_value=0.0, max_value=1e4))
@settings(max_examples=60, deadline=None)
def test_ft_at_least_execution_time(view, load):
    """FT >= pure execution time on every candidate (queueing/transfers can
    only delay)."""
    ft = view.ft_vector(load, 0.0, [])
    et = load / view.capacities
    assert np.all(ft >= et - 1e-9)


@given(view=views, load=st.floats(min_value=1.0, max_value=1e4))
@settings(max_examples=60, deadline=None)
def test_ft_monotone_in_queue_load(view, load):
    """Adding queue load to a node never lowers any FT."""
    before = view.ft_vector(load, 0.0, []).copy()
    view.add_load(int(view.ids[0]), 1000.0)
    after = view.ft_vector(load, 0.0, [])
    assert np.all(after >= before - 1e-9)


@given(
    view=views,
    load=st.floats(min_value=1.0, max_value=1e4),
    data=st.floats(min_value=0.0, max_value=1e4),
)
@settings(max_examples=60, deadline=None)
def test_ft_monotone_in_input_size(view, load, data):
    """Bigger dependent data never lowers any FT (Eq. 4/5)."""
    src = int(view.ids[0])
    small = view.ft_vector(load, 0.0, [(src, data)])
    large = view.ft_vector(load, 0.0, [(src, data * 2 + 1.0)])
    assert np.all(large >= small - 1e-9)


@given(view=views, load=st.floats(min_value=0.0, max_value=1e4))
@settings(max_examples=60, deadline=None)
def test_best_is_the_vector_minimum(view, load):
    node, ft = view.best(load, 0.0, [])
    vec = view.ft_vector(load, 0.0, [])
    assert ft == vec.min()
    assert vec[list(view.ids).index(node)] == ft


@given(view=views)
@settings(max_examples=40, deadline=None)
def test_ltd_is_max_over_inputs(view):
    """LTD with two inputs equals the elementwise max of the singles."""
    srcs = [int(view.ids[0]), int(view.ids[-1])]
    a = view.ltd_vector(0.0, [(srcs[0], 100.0)])
    b = view.ltd_vector(0.0, [(srcs[1], 300.0)])
    both = view.ltd_vector(0.0, [(srcs[0], 100.0), (srcs[1], 300.0)])
    assert np.allclose(both, np.maximum(a, b))
