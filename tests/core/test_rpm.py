"""Tests for compute_priorities (Eq. 7/8) against a real ResourceView."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.estimates import ResourceView
from repro.core.rpm import compute_priorities
from repro.grid.state import WorkflowExecution
from repro.workflow.generator import chain_workflow, fork_join_workflow


class FlatBandwidth:
    def pairs(self, srcs, dsts):
        return np.full(len(srcs), 10.0), np.zeros(len(srcs))


def _view(caps=(1.0, 2.0, 4.0), loads=(0.0, 0.0, 0.0)):
    return ResourceView(list(range(len(caps))), list(caps), list(loads),
                        FlatBandwidth(), home_id=0)


def test_chain_rpm_is_ft_plus_rest_path():
    wf = chain_workflow("c", 3, load=100.0, data=50.0, image=0.0)
    wx = WorkflowExecution(wf, 0, 0.0, 1.0)
    prio = compute_priorities(wx, _view(), avg_capacity=2.0, avg_bandwidth=5.0)
    # Schedule point = entry. best FT = 100/4 = 25 on the fastest node.
    # rest path = ett(50/5) + eet(100/2) twice = 10+50+10+50 = 120.
    assert prio.rpm[0] == pytest.approx(25.0 + 120.0)
    assert prio.makespan == prio.rpm[0]


def test_makespan_is_max_over_schedule_points():
    wf = fork_join_workflow("f", 3, load=100.0, data=0.0, image=0.0)
    wx = WorkflowExecution(wf, 0, 0.0, 1.0)
    wx.mark_finished(0, 0, 0.0)
    prio = compute_priorities(wx, _view(), 2.0, 5.0)
    assert len(prio.rpm) == 3
    assert prio.makespan == pytest.approx(max(prio.rpm.values()))


def test_empty_schedule_points_zero_makespan():
    wf = chain_workflow("c", 2, data=0.0)
    wx = WorkflowExecution(wf, 0, 0.0, 1.0)
    wx.mark_dispatched(0)
    prio = compute_priorities(wx, _view(), 1.0, 1.0)
    assert prio.rpm == {}
    assert prio.makespan == 0.0


def test_queue_load_raises_rpm():
    wf = chain_workflow("c", 2, load=100.0, data=0.0, image=0.0)
    wx = WorkflowExecution(wf, 0, 0.0, 1.0)
    idle = compute_priorities(wx, _view(), 1.0, 1.0).makespan
    busy = compute_priorities(
        wx, _view(loads=(1000.0, 1000.0, 1000.0)), 1.0, 1.0
    ).makespan
    assert busy > idle


def test_deadline_is_slack():
    wf = fork_join_workflow("f", 2, load=100.0, data=0.0, image=0.0)
    wx = WorkflowExecution(wf, 0, 0.0, 1.0)
    wx.mark_finished(0, 0, 0.0)
    prio = compute_priorities(wx, _view(), 1.0, 1.0)
    for tid in prio.rpm:
        assert prio.deadline(tid) == pytest.approx(prio.makespan - prio.rpm[tid])
        assert prio.deadline(tid) >= 0.0


def test_data_location_affects_rpm():
    """A schedule point whose input data sits on a slow-to-reach node has a
    larger transfer term in its best FT."""
    wf = chain_workflow("c", 2, load=100.0, data=500.0, image=0.0)
    wx = WorkflowExecution(wf, 0, 0.0, 1.0)
    wx.mark_finished(0, 1, 0.0)  # data on node 1

    class SlowFrom1(FlatBandwidth):
        def pairs(self, srcs, dsts):
            bw, lat = super().pairs(srcs, dsts)
            bw[srcs == 1] = 0.5
            return bw, lat

    fast = compute_priorities(wx, _view(), 1.0, 1.0).makespan
    slow_view = ResourceView([0, 1, 2], [1.0, 2.0, 4.0], [0.0] * 3,
                             SlowFrom1(), home_id=0)
    slow = compute_priorities(wx, slow_view, 1.0, 1.0).makespan
    assert slow >= fast
