"""Unit tests for phase-1 and phase-2 policies against controlled views."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.estimates import ResourceView
from repro.core.heuristics.base import SchedulingContext
from repro.core.heuristics.dheft import DheftPhase1, LongestRpmPhase2
from repro.core.heuristics.dsdf import DsdfPhase1, DsdfPhase2
from repro.core.heuristics.dsmf import DsmfPhase1, DsmfPhase2
from repro.core.heuristics.listfree import MaxMinPhase1, MinMinPhase1, SufferagePhase1
from repro.core.heuristics.phase2 import FcfsPhase2, LsfPhase2, LtfPhase2, StfPhase2
from repro.grid.state import TaskDispatch, WorkflowExecution
from repro.workflow.generator import chain_workflow, fork_join_workflow


class FlatBandwidth:
    def pairs(self, srcs, dsts):
        return np.full(len(srcs), 10.0), np.zeros(len(srcs))


def _wx(wf, home=0):
    wx = WorkflowExecution(wf, home_id=home, submit_time=0.0, eft=1.0)
    return wx


def _ctx(workflows, caps=(1.0, 2.0, 4.0)):
    ids = list(range(len(caps)))
    view = ResourceView(ids, list(caps), [0.0] * len(caps), FlatBandwidth(), home_id=0)
    return SchedulingContext(
        home_id=0,
        now=0.0,
        workflows=workflows,
        view=view,
        avg_capacity=float(np.mean(caps)),
        avg_bandwidth=5.0,
    )


def _dispatch(**kw):
    defaults = dict(
        wid="w",
        tid=0,
        load=100.0,
        image_size=0.0,
        home_id=0,
        target_id=1,
        dispatch_time=0.0,
        seq=0,
    )
    defaults.update(kw)
    d = TaskDispatch(**defaults)
    d.pending_inputs = 0
    return d


class TestDsmfPhase1:
    def test_short_workflow_dispatched_first(self):
        short = _wx(chain_workflow("short", 2, load=100.0, data=0.0))
        long = _wx(chain_workflow("long", 8, load=100.0, data=0.0))
        ctx = _ctx([long, short])
        decisions = DsmfPhase1().plan(ctx)
        assert decisions[0].wx.wf.wid == "short"

    def test_within_workflow_longest_rpm_first(self):
        # Fork-join: after the split finishes, branches are schedule points.
        wf = fork_join_workflow("f", 3, load=100.0, data=0.0)
        wx = _wx(wf)
        wx.mark_finished(0, 0, 0.0)
        ctx = _ctx([wx])
        decisions = DsmfPhase1().plan(ctx)
        rpms = [d.stamps["rpm"] for d in decisions]
        assert rpms == sorted(rpms, reverse=True)

    def test_all_schedule_points_dispatched(self):
        wxs = [_wx(chain_workflow(f"w{i}", 3, data=0.0)) for i in range(4)]
        ctx = _ctx(wxs)
        decisions = DsmfPhase1().plan(ctx)
        assert len(decisions) == 4  # one entry schedule point each

    def test_no_workflows_no_decisions(self):
        assert DsmfPhase1().plan(_ctx([])) == []

    def test_view_charged_between_picks(self):
        """Successive dispatches must not all pile on the fastest node."""
        wxs = [_wx(chain_workflow(f"w{i}", 1, load=1000.0, data=0.0)) for i in range(6)]
        ctx = _ctx(wxs, caps=(4.0, 4.0, 4.0))
        decisions = DsmfPhase1().plan(ctx)
        targets = {d.target for d in decisions}
        assert len(targets) == 3


class TestPooledPolicies:
    def _two_wx(self):
        a = _wx(chain_workflow("a", 2, load=100.0, data=0.0))
        b = _wx(chain_workflow("b", 2, load=800.0, data=0.0))
        return a, b

    def test_minmin_picks_smallest_ft_first(self):
        a, b = self._two_wx()
        decisions = MinMinPhase1().plan(_ctx([a, b]))
        assert decisions[0].wx.wf.wid == "a"

    def test_maxmin_picks_largest_best_ft_first(self):
        a, b = self._two_wx()
        decisions = MaxMinPhase1().plan(_ctx([a, b]))
        assert decisions[0].wx.wf.wid == "b"

    def test_sufferage_prefers_task_with_most_to_lose(self):
        a, b = self._two_wx()
        decisions = SufferagePhase1().plan(_ctx([a, b]))
        # With caps (1,2,4): sufferage of each task is (load/2 - load/4);
        # the heavier task suffers more.
        assert decisions[0].wx.wf.wid == "b"
        assert decisions[0].stamps["sufferage"] > 0

    def test_et_stamp_present(self):
        a, b = self._two_wx()
        for policy in (MinMinPhase1(), MaxMinPhase1(), SufferagePhase1()):
            d = policy.plan(_ctx([a.__class__(a.wf, 0, 0.0, 1.0), b.__class__(b.wf, 0, 0.0, 1.0)]))
            assert all("et" in x.stamps for x in d)

    def test_all_tasks_dispatched_once(self):
        wxs = [_wx(chain_workflow(f"w{i}", 2, data=0.0)) for i in range(5)]
        for policy in (MinMinPhase1(), MaxMinPhase1(), SufferagePhase1()):
            fresh = [_wx(chain_workflow(f"w{i}", 2, data=0.0)) for i in range(5)]
            decisions = policy.plan(_ctx(fresh))
            assert len(decisions) == 5
            assert len({(d.wx.wf.wid, d.tid) for d in decisions}) == 5


class TestDheftDsdfPhase1:
    def test_dheft_descending_rpm_across_workflows(self):
        a = _wx(chain_workflow("a", 2, load=100.0, data=0.0))
        b = _wx(chain_workflow("b", 6, load=100.0, data=0.0))
        decisions = DheftPhase1().plan(_ctx([a, b]))
        assert decisions[0].wx.wf.wid == "b"  # longer chain = larger RPM
        rpms = [d.stamps["rpm"] for d in decisions]
        assert rpms == sorted(rpms, reverse=True)

    def test_dsdf_zero_slack_for_critical_sp(self):
        wx = _wx(chain_workflow("a", 3, data=0.0))
        decisions = DsdfPhase1().plan(_ctx([wx]))
        # A chain's only schedule point IS the critical path: slack 0.
        assert decisions[0].stamps["deadline"] == pytest.approx(0.0)

    def test_dsdf_ascending_deadline(self):
        wf = fork_join_workflow("f", 3, load=100.0, data=0.0)
        wx = _wx(wf)
        wx.mark_finished(0, 0, 0.0)
        decisions = DsdfPhase1().plan(_ctx([wx]))
        deadlines = [d.stamps["deadline"] for d in decisions]
        assert deadlines == sorted(deadlines)


class TestPhase2Policies:
    def test_dsmf_shortest_ms_then_longest_rpm(self):
        a = _dispatch(wid="a", ms_stamp=50.0, rpm_stamp=10.0, seq=1)
        b = _dispatch(wid="b", ms_stamp=20.0, rpm_stamp=5.0, seq=2)
        c = _dispatch(wid="c", ms_stamp=20.0, rpm_stamp=9.0, seq=3)
        assert DsmfPhase2().select([a, b, c], 0.0) is c

    def test_fcfs_by_dispatch_time(self):
        a = _dispatch(wid="a", dispatch_time=5.0, seq=9)
        b = _dispatch(wid="b", dispatch_time=1.0, seq=10)
        assert FcfsPhase2().select([a, b], 0.0) is b

    def test_fcfs_ties_by_seq(self):
        a = _dispatch(wid="a", dispatch_time=1.0, seq=2)
        b = _dispatch(wid="b", dispatch_time=1.0, seq=1)
        assert FcfsPhase2().select([a, b], 0.0) is b

    def test_stf_picks_lightest(self):
        a = _dispatch(wid="a", load=500.0)
        b = _dispatch(wid="b", load=100.0, seq=1)
        assert StfPhase2().select([a, b], 0.0) is b

    def test_ltf_picks_heaviest(self):
        a = _dispatch(wid="a", load=500.0)
        b = _dispatch(wid="b", load=100.0, seq=1)
        assert LtfPhase2().select([a, b], 0.0) is a

    def test_lsf_picks_largest_sufferage(self):
        a = _dispatch(wid="a", sufferage_stamp=3.0)
        b = _dispatch(wid="b", sufferage_stamp=8.0, seq=1)
        assert LsfPhase2().select([a, b], 0.0) is b

    def test_longest_rpm_phase2(self):
        a = _dispatch(wid="a", rpm_stamp=100.0)
        b = _dispatch(wid="b", rpm_stamp=300.0, seq=1)
        assert LongestRpmPhase2().select([a, b], 0.0) is b

    def test_dsdf_phase2_min_deadline(self):
        a = _dispatch(wid="a", deadline_stamp=10.0)
        b = _dispatch(wid="b", deadline_stamp=2.0, seq=1)
        assert DsdfPhase2().select([a, b], 0.0) is b

    def test_single_candidate(self):
        d = _dispatch(wid="x")
        for policy in (
            DsmfPhase2(),
            FcfsPhase2(),
            StfPhase2(),
            LtfPhase2(),
            LsfPhase2(),
            LongestRpmPhase2(),
            DsdfPhase2(),
        ):
            assert policy.select([d], 0.0) is d
