"""Algorithm 1's two shortcuts are exact.

* Eq. (7)'s rest path is swept only down to the earliest schedule point:
  every schedule point's entry must equal the full sweep's bit for bit,
  in any progress state, churn invalidations included.
* Line 15's write-back goes straight to the RSS slot the candidate was
  read from: a planned home's row must equal the row that
  ``apply_local_update`` (a search by record key) writes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import ExperimentConfig
from repro.grid.state import WorkflowExecution
from repro.grid.system import P2PGridSystem
from repro.sim.rng import spawn_generator
from repro.workflow.analysis import _ranks, rest_path_after
from repro.workflow.generator import random_workflow


def _reference_after(wf, cap, bw):
    """The backward sweep written out from the DAG's own maps."""
    rank, after = {}, {}
    for tid in reversed(wf.topo_order):
        best = 0.0
        for s, data in wf.successors[tid].items():
            best = max(best, data / bw + rank[s])
        after[tid] = best
        rank[tid] = wf.tasks[tid].load / cap + best
    return after


@given(
    seed=st.integers(0, 10_000),
    steps=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 99)), max_size=40),
    cap=st.floats(0.5, 16.0),
    bw=st.floats(0.1, 1000.0),
)
@settings(max_examples=150, deadline=None)
def test_cut_rest_path_equals_full_sweep_at_every_schedule_point(seed, steps, cap, bw):
    wf = random_workflow("w", spawn_generator(seed, "shortcut"))
    wx = WorkflowExecution(wf, home_id=0, submit_time=0.0, eft=1.0)
    for action, pick in steps:
        if action == 0 and wx.schedule_points:
            tid = sorted(wx.schedule_points)[pick % len(wx.schedule_points)]
            wx.mark_dispatched(tid)
        elif action == 1 and wx.dispatched:
            tid = sorted(wx.dispatched)[pick % len(wx.dispatched)]
            wx.mark_finished(tid, node_id=pick, time=0.0)
        elif action == 2 and wx.finished:
            # Churn: a finished precedent is invalidated, possibly above a
            # finished successor that now lies below a schedule point.
            tid = sorted(wx.finished)[pick % len(wx.finished)]
            wx.invalidate_task(tid)
    full = _ranks(wf, cap, bw)[0]
    reference = _reference_after(wf, cap, bw)
    cut = rest_path_after(wf, cap, bw, wx.schedule_points)
    for tid in wx.schedule_points:
        assert cut[tid].hex() == full[tid].hex() == reference[tid].hex()


def test_invalidated_precedent_keeps_its_finished_successor_swept():
    wf = random_workflow("w", spawn_generator(11, "shortcut"))
    wx = WorkflowExecution(wf, home_id=0, submit_time=0.0, eft=1.0)
    order = wf.topo_order
    for tid in order[: len(order) // 2]:
        if tid in wx.schedule_points:
            wx.mark_dispatched(tid)
        wx.mark_finished(tid, node_id=1, time=0.0)
    entry = order[0]
    wx.invalidate_task(entry)
    assert entry in wx.schedule_points
    cut = rest_path_after(wf, 2.0, 30.0, wx.schedule_points)
    assert cut.keys() == _ranks(wf, 2.0, 30.0)[0].keys()
    assert cut[entry] == _ranks(wf, 2.0, 30.0)[0][entry]


def _planned_rows(config, by_key: bool):
    """Each home's RSS row right after its plan, for one phase-1 cycle.

    With ``by_key`` the line-15 write-back searches the row for the
    target's record (``apply_local_update``) instead of writing the slot
    the view read the candidate from.
    """
    system = P2PGridSystem(config)
    for cycle in range(6):
        system._gossip_cycle(cycle)
    runner, epidemic = system.phase1, system.epidemic
    rows = {}
    if by_key:
        build_view = runner._build_view

        def keyed_view(home_id):
            view = build_view(home_id)
            ids, now = view.ids.tolist(), system.sim.now

            def writeback(k, new_load):
                if k:
                    epidemic.apply_local_update(home_id, ids[k], new_load, now)

            view.writeback = writeback
            return view

        runner._build_view = keyed_view
    plan = system.bundle.phase1.plan

    def spy(ctx):
        decisions = plan(ctx)
        t = epidemic.table
        m = int(t.lens[ctx.home_id])
        rows[ctx.home_id] = (t.keys[ctx.home_id, :m].copy(), t.floats[:, ctx.home_id, :m].copy())
        return decisions

    system.bundle.phase1.plan = spy
    before = epidemic.table.floats.copy()
    runner.run_cycle()
    return rows, before


@pytest.mark.parametrize(
    "overrides",
    [dict(algorithm="dsmf"), dict(algorithm="dheft"), dict(algorithm="dsmf", rss_mode="oracle")],
    ids=["dsmf", "dheft", "dsmf-oracle"],
)
def test_planned_rss_row_equals_the_keyed_write_back(overrides):
    config = ExperimentConfig(
        n_nodes=30, load_factor=3, total_time=3600.0, seed=21, **overrides
    )
    slot_rows, before = _planned_rows(config, by_key=False)
    key_rows, _ = _planned_rows(config, by_key=True)
    assert slot_rows.keys() == key_rows.keys() and slot_rows
    written = 0
    for home, (keys, floats) in slot_rows.items():
        ref_keys, ref_floats = key_rows[home]
        assert np.array_equal(keys, ref_keys)
        assert np.array_equal(floats, ref_floats)
        written += int(np.count_nonzero(floats != before[:, home, : keys.size]))
    if overrides.get("rss_mode") != "oracle":
        assert written > 0  # the write-back path ran
