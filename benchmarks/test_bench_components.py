"""Smoke runs of the performance-critical components.

Each test runs one hot path identified while profiling once and checks the
shape of its output: the event loop, the vectorized FT evaluation, the RPM
backward pass, the widest-path bandwidth sweep, gossip cycles and the
full-ahead planner.  ``perfbench/`` times these layers end to end.
"""

from __future__ import annotations

import numpy as np

from repro.core.estimates import ResourceView
from repro.core.fullahead.heft import HeftPlanner
from repro.core.fullahead.planner import GlobalView
from repro.grid.state import WorkflowExecution
from repro.gossip.aggregation import AggregationGossip
from repro.gossip.epidemic import EpidemicGossip
from repro.gossip.newscast import NewscastOverlay
from repro.net.topology import widest_paths
from repro.net.waxman import generate_waxman
from repro.sim.engine import Simulator
from repro.sim.rng import spawn_generator
from repro.workflow.analysis import rest_path_after
from repro.workflow.generator import WorkflowParams, random_workflow


def test_bench_event_loop_throughput():
    """Schedule+execute 10k trivial events."""

    def run():
        sim = Simulator()
        for i in range(10_000):
            sim.schedule(float(i % 100), lambda: None)
        sim.run()
        return sim.events_executed

    assert run() == 10_000


def test_bench_ft_vector():
    """One vectorized Formula-(9) evaluation over a 24-candidate RSS."""

    class Flat:
        def pairs(self, srcs, dsts):
            return np.full(len(srcs), 5.0), np.full(len(srcs), 0.01)

    view = ResourceView(
        list(range(24)),
        [float(1 + i % 16) for i in range(24)],
        [float(100 * i) for i in range(24)],
        Flat(),
        home_id=0,
    )
    inputs = [(1, 500.0), (2, 800.0), (3, 120.0)]
    out = view.ft_vector(5000.0, 50.0, inputs)
    assert len(out) == 24


def test_bench_rpm_backward_pass():
    """Rest-path computation over a Table-I-sized workflow (Eq. 7)."""
    wf = random_workflow(
        "w", spawn_generator(3, "bench"), WorkflowParams(task_range=(30, 30))
    )
    out = rest_path_after(wf, 6.2, 1.5)
    assert len(out) == wf.n_tasks


def test_bench_bottleneck_matrix():
    """All-pairs widest-path matrix over a 300-node Waxman graph."""
    g = generate_waxman(300, spawn_generator(4, "bench"))
    widths = spawn_generator(5, "bench").uniform(0.1, 10.0, size=g.m)
    mat = widest_paths(g.n, g.edges, widths, matrix=True).matrix
    assert mat.shape == (300, 300)


def test_bench_gossip_cycle():
    """One full mixed-gossip cycle on 200 nodes."""
    ov = NewscastOverlay(list(range(200)), spawn_generator(6, "bench"))
    ep = EpidemicGossip(ov, lambda i: (0.0, 4.0), spawn_generator(7, "bench"))
    ag = AggregationGossip(ov, spawn_generator(8, "bench"))
    ag.register_metric("cap", lambda i: float(i % 5))
    clock = {"t": 0.0}

    def cycle():
        clock["t"] += 300.0
        ov.run_cycle(clock["t"])
        ep.run_cycle(clock["t"])
        ag.run_cycle(clock["t"])

    cycle()
    assert ep.mean_known_nodes() > 0


def test_bench_fullahead_planner():
    """HEFT planning of 60 workflows over 100 nodes (vectorized EFT)."""
    rng = spawn_generator(9, "bench")
    wxs = [
        WorkflowExecution(random_workflow(f"w{i}", rng), i % 10, 0.0, 1.0)
        for i in range(60)
    ]
    n = 100
    bw = np.full((n, n), 5.0)
    np.fill_diagonal(bw, np.inf)
    view = GlobalView(
        node_ids=np.arange(n, dtype=np.int64),
        capacities=np.asarray([1.0 + (i % 16) for i in range(n)]),
        bandwidth=bw,
        latency=np.zeros((n, n)),
        avg_capacity=6.2,
        avg_bandwidth=5.0,
    )
    plan = HeftPlanner().plan(view, wxs)
    assert len(plan.assignment) > 0
