"""The cycle batch of Eq. (4): ``ltd_rows`` and how phase 1 seeds its views.

The oracle is the plain-Python Eq. (4) loop the batch replaced, fed by
the providers' scalar ground truth (``Topology.bandwidth``/``latency`` and
``LandmarkEstimator.estimate``); every comparison is bit for bit.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from regression.golden import event_stream_config

from repro.core.estimates import (
    LandmarkBandwidth,
    OracleBandwidth,
    ltd_rows,
)
from repro.experiments.campaign import result_digest
from repro.experiments.config import ExperimentConfig
from repro.grid.system import P2PGridSystem
from repro.net.landmarks import LandmarkEstimator
from repro.net.topology import Topology
from repro.net.waxman import WaxmanGraph, generate_waxman
from repro.sim.rng import spawn_generator
from repro.workflow.generator import chain_workflow


def reference_ltd(bw, lat, home_id, ids, image_mb, inputs):
    """Eq. (4) one candidate at a time: the image from the home, then each
    input from its source; a candidate holding the data pays nothing and a
    zero-bandwidth pair costs ``inf``."""
    ltd = [0.0] * len(ids)
    for src, mb in ((home_id, image_mb), *inputs):
        if not mb > 0.0:
            continue
        for k, nid in enumerate(ids):
            if nid != src:
                b = bw(src, nid)
                t = mb / b + lat(src, nid) if b else np.inf
                if t > ltd[k]:
                    ltd[k] = t
    return ltd


def _bits(row):
    return np.asarray(row, dtype=np.float64).tobytes()


@lru_cache(maxsize=None)
def _network(n, seed, exact, isolate):
    """A Waxman topology and its landmark estimator; with ``isolate`` the
    last node loses its links, so every pair with it has zero bandwidth."""
    graph = generate_waxman(n, spawn_generator(seed, "graph"))
    if isolate:
        keep = (graph.edges != n - 1).all(axis=1)
        graph = WaxmanGraph(n, graph.positions, graph.edges[keep], graph.distances[keep],
                            graph.alpha, graph.beta, graph.plane_size)
    topology = Topology(graph, rng=spawn_generator(seed, "links"), exact_paths=exact)
    return topology, LandmarkEstimator(topology, spawn_generator(seed, "landmarks"))


def _provider(network, landmark):
    """``(provider, scalar bandwidth lookup, scalar latency lookup)``."""
    topology, estimator = network
    if landmark:
        return LandmarkBandwidth(estimator, topology), estimator.estimate, topology.latency
    return OracleBandwidth(topology), topology.bandwidth, topology.latency


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_provider_pairs_equal_the_scalar_lookups(data):
    n = data.draw(st.sampled_from([8, 20]), label="n")
    network = _network(n, data.draw(st.integers(0, 1)), data.draw(st.booleans()),
                       data.draw(st.booleans()))
    provider, bw, lat = _provider(network, data.draw(st.booleans(), label="landmark"))
    node = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(node, node), min_size=1, max_size=30))
    srcs, dsts = (np.array(column) for column in zip(*pairs))
    got_bw, got_lat = provider.pairs(srcs, dsts)
    assert _bits(got_bw) == _bits([bw(u, v) for u, v in pairs])
    assert _bits(got_lat) == _bits([lat(u, v) for u, v in pairs])


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_batch_equals_the_scalar_reference(data):
    n = data.draw(st.sampled_from([8, 20, 100]), label="n")
    network = _network(n, data.draw(st.integers(0, 1)), data.draw(st.booleans()),
                       data.draw(st.booleans()))
    provider, bw, lat = _provider(network, data.draw(st.booleans(), label="landmark"))
    node = st.integers(0, n - 1)
    mb = st.one_of(st.just(0.0), st.floats(0.001, 5000.0))
    key = st.tuples(mb, st.lists(st.tuples(node, mb), max_size=4).map(tuple))
    homes = []
    for _ in range(data.draw(st.integers(1, 5), label="homes")):
        home = data.draw(node)
        others = data.draw(st.permutations([v for v in range(n) if v != home]))
        ids = others[: data.draw(st.integers(1, n - 1), label="candidates")]
        if data.draw(st.booleans(), label="home is a candidate"):
            ids.insert(data.draw(st.integers(0, len(ids))), home)
        homes.append((home, ids, data.draw(st.lists(key, max_size=5))))

    result = ltd_rows(provider, homes)

    assert len(result) == len(homes)
    for (home, ids, keys), rows in zip(homes, result):
        assert set(rows) == set(keys)
        for image_mb, inputs in keys:
            row = rows[(image_mb, inputs)]
            assert isinstance(row, list) == (len(ids) <= 64)
            want = reference_ltd(bw, lat, home, ids, image_mb, inputs)
            assert _bits(row) == _bits(want)


def test_a_zero_bandwidth_pair_costs_inf():
    topology, estimator = _network(20, 0, True, True)
    key = (0.0, ((19, 5.0),))  # node 19 has no links
    for provider in (OracleBandwidth(topology), LandmarkBandwidth(estimator, topology)):
        (rows,) = ltd_rows(provider, [(0, [0, 1, 19], [key])])
        assert rows[key] == [np.inf, np.inf, 0.0]


def test_oracle_provider_builds_no_matrix_on_a_scalable_topology():
    topology = Topology.waxman(40, spawn_generator(3, "t"), exact_paths=False)
    provider = OracleBandwidth(topology)
    srcs = np.array([0, 5, 5, 39, 7, 12])
    dsts = np.array([1, 5, 38, 0, 22, 12])
    bw, lat = provider.pairs(srcs, dsts)
    assert topology._bw_mat is None and topology._lat_mat is None
    pairs = list(zip(srcs.tolist(), dsts.tolist()))
    assert _bits(bw) == _bits([topology.bandwidth(u, v) for u, v in pairs])
    assert _bits(lat) == _bits([topology.latency(u, v) for u, v in pairs])


def test_seeded_rows_equal_a_fresh_evaluation_at_each_turn():
    """Every view a cycle seeds holds, at its home's turn, the Eq. (4) rows
    a from-scratch evaluation over that moment's candidates and inputs
    gives — also after earlier homes' dead-target skips evicted records."""
    config = event_stream_config("fail-reschedule")
    system = P2PGridSystem(config)
    bw, lat = system.landmarks.estimate, system.topology.latency
    policy = system.bundle.phase1
    plan = policy.plan
    checked = []

    def spy(ctx):
        view = ctx.view
        ids = system.phase1._build_view(ctx.home_id).ids.tolist()
        assert ids == view.ids.tolist()
        for wx in ctx.workflows:
            for tid in wx.schedule_points:
                image_mb, inputs = wx.wf.tasks[tid].image_size, tuple(wx.inputs_for(tid))
                row = view._ltd_memo[(image_mb, inputs)]
                want = reference_ltd(bw, lat, ctx.home_id, ids, image_mb, inputs)
                assert _bits(row) == _bits(want)
                checked.append(tid)
        return plan(ctx)

    policy.plan = spy
    result = system.run()
    assert system.phase1.dead_target_skips > 0
    assert len(checked) > 100
    assert result_digest(result) == result_digest(P2PGridSystem(config).run())


def test_run_for_home_rejects_rows_over_other_candidates():
    system = P2PGridSystem(
        ExperimentConfig(n_nodes=20, load_factor=1, total_time=3600.0, seed=13),
        workflows=[(0, chain_workflow("c", 2, load=100.0, data=0.0))],
    )
    for c in range(4):
        system._gossip_cycle(c)
    workflows = system.phase1.plannable(0)
    ((ids, rows),) = system.phase1._ltd_batch([(0, workflows)])
    assert len(ids) > 1
    with pytest.raises(ValueError, match="other candidates"):
        system.phase1.run_for_home(0, workflows, (ids[::-1], rows))
    assert system.phase1.dispatches == 0
    system.phase1.run_for_home(0, workflows, (ids, rows))
    assert system.phase1.dispatches == 1
