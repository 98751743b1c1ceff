"""Tests for the trace recorder and schedule analysis."""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.grid.system import P2PGridSystem
from repro.obs import (
    TraceRecorder,
    gantt_ascii,
    node_utilization,
    waiting_time_breakdown,
)
from repro.workflow.generator import chain_workflow, diamond_workflow


def _traced_system(workflows=None, **kw):
    base = dict(
        algorithm="dsmf",
        n_nodes=16,
        load_factor=1,
        total_time=6 * 3600.0,
        seed=17,
        task_range=(2, 6),
    )
    base.update(kw)
    recorder = TraceRecorder()
    system = P2PGridSystem(ExperimentConfig(**base), workflows=workflows, recorder=recorder)
    return system, recorder


class TestRecorder:
    def test_records_dispatch_start_finish(self):
        wf = chain_workflow("c", 3, load=500.0, data=10.0)
        system, rec = _traced_system([(0, wf)])
        system.run()
        assert len(rec.of_kind("dispatch")) == 3
        assert len(rec.of_kind("start")) == 3
        assert len(rec.of_kind("finish")) == 3

    def test_event_order_per_task(self):
        wf = chain_workflow("c", 2, load=500.0, data=10.0)
        system, rec = _traced_system([(0, wf)])
        system.run()
        for tid in (0, 1):
            times = {
                e.kind: e.time for e in rec.for_workflow("c") if e.tid == tid
            }
            assert times["dispatch"] <= times["start"] <= times["finish"]

    def test_task_intervals_pair_up(self):
        wf = diamond_workflow("d", load=500.0, data=10.0)
        system, rec = _traced_system([(0, wf)])
        system.run()
        intervals = rec.task_intervals()
        assert len(intervals) == 4
        for _, _, _, start, finish in intervals:
            assert finish >= start

    def test_churn_events_recorded(self):
        system, rec = _traced_system(
            load_factor=1, n_nodes=20, dynamic_factor=0.2, total_time=4 * 3600.0
        )
        system.run()
        assert len(rec.of_kind("node_down")) > 0
        assert len(rec.of_kind("node_up")) > 0

    def test_for_node_filter(self):
        wf = chain_workflow("c", 3, load=500.0, data=10.0)
        system, rec = _traced_system([(0, wf)])
        system.run()
        node = rec.of_kind("start")[0].node
        assert all(e.node == node for e in rec.for_node(node))


class TestAnalysis:
    @pytest.fixture()
    def traced(self):
        wf1 = chain_workflow("a", 3, load=2000.0, data=10.0)
        wf2 = chain_workflow("b", 2, load=1000.0, data=10.0)
        system, rec = _traced_system([(0, wf1), (1, wf2)])
        system.run()
        return system, rec

    def test_utilization_between_zero_and_one(self, traced):
        system, rec = traced
        util = node_utilization(rec, horizon=system.config.total_time)
        assert util
        assert all(0.0 < u <= 1.0 for u in util.values())

    def test_waiting_breakdown_counts_all_tasks(self, traced):
        _, rec = traced
        stats = waiting_time_breakdown(rec)
        assert stats["tasks"] == 5
        assert stats["mean_exec"] > 0
        assert stats["mean_wait"] >= 0

    def test_gantt_renders(self, traced):
        _, rec = traced
        chart = gantt_ascii(rec, width=40)
        assert "node" in chart
        assert "a" in chart.split("\n")[-1] or "b" in chart.split("\n")[-1]

    def test_gantt_empty_trace(self):
        assert gantt_ascii(TraceRecorder()) == "(no executed tasks)"
