"""Tests for schedule analysis over recorded traces."""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.grid.system import P2PGridSystem
from repro.obs import (
    TraceRecorder,
    gantt_ascii,
    gossip_round_stats,
    node_utilization,
    time_attribution,
    transfer_stats,
    waiting_time_breakdown,
)
from repro.workflow.generator import chain_workflow


@pytest.fixture(scope="module")
def traced():
    """One recorded tiny run shared across the module."""
    config = ExperimentConfig(
        algorithm="dsmf",
        n_nodes=16,
        load_factor=1,
        total_time=6 * 3600.0,
        seed=17,
        task_range=(2, 6),
    )
    recorder = TraceRecorder()
    result = P2PGridSystem(config, recorder=recorder).run()
    return recorder, result


class TestUtilizationAndWaits:
    def test_node_utilization_bounds(self, traced):
        recorder, result = traced
        util = node_utilization(recorder, horizon=result.total_time)
        assert util
        for frac in util.values():
            assert 0.0 <= frac <= 1.0

    def test_waiting_time_breakdown(self, traced):
        recorder, _ = traced
        breakdown = waiting_time_breakdown(recorder)
        assert breakdown["tasks"] > 0
        assert breakdown["mean_wait"] >= 0
        assert breakdown["mean_exec"] > 0

    def test_empty_recorder(self):
        rec = TraceRecorder()
        assert waiting_time_breakdown(rec) == {
            "mean_wait": 0.0, "mean_exec": 0.0, "tasks": 0.0,
        }
        assert node_utilization(rec, horizon=1.0) == {}
        assert gantt_ascii(rec) == "(no executed tasks)"


class TestTransfers:
    def test_transfer_stats_pair_counts(self, traced):
        recorder, _ = traced
        stats = transfer_stats(recorder)
        n_starts = len(recorder.of_kind("transfer_start"))
        n_done = len(recorder.of_kind("transfer_done"))
        assert stats["transfers"] == n_done
        assert stats["unfinished"] == n_starts - n_done
        assert stats["mean_seconds"] > 0
        assert stats["total_megabits"] > 0

    def test_transfer_counts_match_system(self, traced):
        """The trace sees exactly what the TransferManager counted."""
        recorder, result = traced
        stats = transfer_stats(recorder)
        telemetry_free_total = stats["transfers"] + stats["unfinished"]
        assert telemetry_free_total == len(recorder.of_kind("transfer_start"))
        # completed transfers moved all accounted megabits (tolerance:
        # the two sides sum the same floats in different orders)
        started = sum(e.size for e in recorder.of_kind("transfer_start"))
        assert stats["total_megabits"] <= started + 1e-6 * max(started, 1.0)

    def test_empty(self):
        stats = transfer_stats(TraceRecorder())
        assert stats == {
            "transfers": 0.0, "unfinished": 0.0,
            "mean_seconds": 0.0, "total_megabits": 0.0,
        }


class TestGossip:
    def test_round_stats(self, traced):
        recorder, _ = traced
        stats = gossip_round_stats(recorder)
        assert stats["rounds"] > 0
        assert stats["messages"] > 0
        assert stats["mean_messages_per_round"] == pytest.approx(
            stats["messages"] / stats["rounds"]
        )

    def test_empty(self):
        assert gossip_round_stats(TraceRecorder()) == {
            "rounds": 0.0, "messages": 0.0, "mean_messages_per_round": 0.0,
        }


class TestAttribution:
    def test_components_compose(self, traced):
        recorder, _ = traced
        attribution = time_attribution(recorder)
        breakdown = waiting_time_breakdown(recorder)
        assert attribution["tasks"] == breakdown["tasks"]
        assert attribution["wait_seconds"] == pytest.approx(
            breakdown["mean_wait"] * breakdown["tasks"]
        )
        assert attribution["exec_seconds"] > 0
        assert attribution["transfer_seconds"] > 0


class TestGantt:
    def test_renders_rows_and_legend(self):
        wf = chain_workflow("c", 3, load=500.0, data=10.0)
        config = ExperimentConfig(
            algorithm="dsmf", n_nodes=8, load_factor=1,
            total_time=2 * 3600.0, seed=3, task_range=(2, 4),
        )
        recorder = TraceRecorder()
        P2PGridSystem(config, workflows=[(0, wf)], recorder=recorder).run()
        chart = gantt_ascii(recorder, width=40)
        assert "node" in chart
        assert "t=0" in chart
        assert "=c" in chart  # legend maps a marker to the workflow
