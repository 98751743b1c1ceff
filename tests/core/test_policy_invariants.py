"""Randomized invariant tests for the phase-1/phase-2 policies.

Stdlib-``random`` fuzzing over every registry bundle: whatever the DAG
shape, the RSS contents or the stamp values, a policy must

* only target nodes that exist in its resource view,
* charge the view exactly once per pick (Algorithm 1 line 15),
* return an element of ``runnable`` from phase-2 ``select``, and
* produce the same decision sequence for the same seed (determinism is
  the foundation the golden-fingerprint harness and the campaign cache
  both rest on).
"""

from __future__ import annotations

import random

import pytest

from repro.core.estimates import ResourceView
from repro.core.heuristics.base import SchedulingContext
from repro.core.heuristics.registry import algorithm_names, get_bundle
from repro.grid.state import TaskDispatch, WorkflowExecution
from repro.workflow.dag import Workflow
from repro.workflow.task import Task

PHASE1_BUNDLES = [n for n in algorithm_names() if not get_bundle(n).full_ahead]
ALL_BUNDLES = algorithm_names()


class FlatBandwidth:
    """Uniform bandwidth, tiny latency."""

    def __init__(self, bw: float = 10.0):
        self.bw = bw

    def pairs(self, srcs, dsts):
        import numpy as np

        return np.full(len(srcs), self.bw), np.full(len(srcs), 0.01)


def _random_workflow(rnd: random.Random, wid: str) -> Workflow:
    """A random layered DAG built with stdlib randomness only."""
    n = rnd.randint(2, 12)
    tasks = [
        Task(tid=i, load=rnd.uniform(100.0, 5000.0), image_size=rnd.uniform(1.0, 50.0))
        for i in range(n)
    ]
    edges: dict[tuple[int, int], float] = {}
    for v in range(1, n):
        # Every task gets at least one precedent (connected DAG, ids are a
        # valid topological order by construction).
        n_prec = rnd.randint(1, min(3, v))
        for u in rnd.sample(range(v), n_prec):
            edges[(u, v)] = rnd.choice([0.0, rnd.uniform(1.0, 500.0)])
    return Workflow(wid, tasks, edges)


class CountingView(ResourceView):
    """ResourceView that records every Algorithm-1-line-15 charge."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls: list[tuple[int, float]] = []

    def add_load(self, node_id, load, on_update=None):
        self.calls.append((int(node_id), float(load)))
        return super().add_load(node_id, load, on_update)


def _make_context(rnd: random.Random, n_workflows: int = 3) -> SchedulingContext:
    home = 0
    ids = [home] + sorted(rnd.sample(range(1, 40), rnd.randint(2, 10)))
    view = CountingView(
        ids=ids,
        capacities=[rnd.choice([1.0, 2.0, 4.0, 8.0, 16.0]) for _ in ids],
        loads=[rnd.uniform(0.0, 20000.0) for _ in ids],
        bandwidth=FlatBandwidth(),
        home_id=home,
    )
    workflows = []
    for w in range(n_workflows):
        wx = WorkflowExecution(
            _random_workflow(rnd, f"wf{w}"), home, submit_time=0.0, eft=1.0
        )
        # Randomly advance the workflow: finish a prefix of tasks on random
        # nodes so schedule points sit mid-DAG with real input locations.
        n_done = rnd.randint(0, len(wx.wf.tasks) - 1)
        for tid in wx.wf.topo_order[:n_done]:
            wx.mark_finished(tid, rnd.choice(ids), float(rnd.randint(0, 100)))
        if wx.schedule_points:
            workflows.append(wx)
    ctx = SchedulingContext(
        home_id=home,
        now=1000.0,
        workflows=workflows,
        view=view,
        avg_capacity=6.2,
        avg_bandwidth=5.05,
    )
    return ctx


@pytest.mark.parametrize("name", PHASE1_BUNDLES)
@pytest.mark.parametrize("seed", [1, 7, 1234])
def test_phase1_invariants(name, seed):
    rnd = random.Random(seed)
    ctx = _make_context(rnd)
    if not ctx.workflows:
        pytest.skip("random draw produced no schedulable workflow")
    n_points = sum(len(wx.schedule_points) for wx in ctx.workflows)
    calls = ctx.view.calls
    decisions = get_bundle(name).phase1.plan(ctx)

    # Every schedule point is dispatched exactly once, to a view node.
    assert len(decisions) == n_points
    seen = set()
    valid_ids = set(int(i) for i in ctx.view.ids)
    for d in decisions:
        assert d.target in valid_ids
        key = (d.wx.wf.wid, d.tid)
        assert key not in seen, f"{key} dispatched twice"
        assert d.tid in d.wx.schedule_points
        seen.add(key)

    # Algorithm 1 line 15: the view is charged exactly once per pick, with
    # the task's own load against the chosen target.
    assert len(calls) == len(decisions)
    expected = [(d.target, d.wx.wf.tasks[d.tid].load) for d in decisions]
    assert calls == expected


@pytest.mark.parametrize("name", PHASE1_BUNDLES)
def test_phase1_decision_order_is_deterministic(name):
    def run(seed):
        rnd = random.Random(seed)
        ctx = _make_context(rnd)
        if not ctx.workflows:
            pytest.skip("random draw produced no schedulable workflow")
        decisions = get_bundle(name).phase1.plan(ctx)
        return [(d.wx.wf.wid, d.tid, d.target, d.estimated_ft) for d in decisions]

    assert run(99) == run(99)


@pytest.mark.parametrize("name", ALL_BUNDLES)
@pytest.mark.parametrize("seed", [3, 77])
def test_phase2_select_returns_a_runnable_element(name, seed):
    rnd = random.Random(seed)
    phase2 = get_bundle(name).phase2
    for trial in range(20):
        runnable = [
            TaskDispatch(
                wid=f"w{rnd.randint(0, 3)}",
                tid=t,
                load=rnd.uniform(10.0, 5000.0),
                image_size=rnd.uniform(0.0, 100.0),
                home_id=0,
                target_id=1,
                dispatch_time=float(rnd.randint(0, 5000)),
                seq=t,
                ms_stamp=rnd.uniform(0.0, 1e4),
                rpm_stamp=rnd.uniform(0.0, 1e4),
                sufferage_stamp=rnd.uniform(0.0, 1e3),
                deadline_stamp=rnd.uniform(0.0, 1e4),
                et_stamp=rnd.uniform(0.0, 1e3),
            )
            for t in range(rnd.randint(1, 8))
        ]
        pick = phase2.select(runnable, now=float(rnd.randint(0, 10000)))
        assert pick in runnable
        # Deterministic: same runnable list, same answer.
        assert phase2.select(list(runnable), now=0.0) is phase2.select(
            list(runnable), now=0.0
        )
