"""Ablation benches for the reproduction's model design choices.

These go beyond the paper's figures: each isolates one model ingredient
(partial information, staleness, bandwidth estimation error, scheduling
interval, transfer contention, rescheduling) and quantifies its effect.
"""

from __future__ import annotations

import pytest
from conftest import run_one, run_sweep

pytestmark = pytest.mark.slow


class TestRssSizeAblation:
    """Partial information: how much does the O(log n) RSS bound cost?"""

    @pytest.fixture(scope="class")
    def sweep(self):
        import numpy as np

        log2n = int(np.ceil(np.log2(60)))
        # The bench's default 24 h horizon is validated to converge every
        # algorithm under the paper's 2*log2(n) RSS, but the deliberately
        # handicapped half-size view makes placements bad enough that the
        # slowest tail (large transfers over ~0.1 Mb/s links) is still in
        # flight at 24 h.  The paper quotes *converged* numbers, so this
        # ablation runs a 36 h horizon (= Table I's experimental time, at
        # which every variant below finishes all 180 workflows) rather
        # than asserting completion mid-tail.
        return run_sweep(
            {
                "half": {"rss_capacity": max(2, log2n // 2)},
                "paper": {"rss_capacity": 2 * log2n},
                "quad": {"rss_capacity": 4 * log2n},
                "oracle": {"rss_mode": "oracle"},
            },
            total_time=36 * 3600.0,
        )

    def test_bench_ablation_rss_size(self, sweep):
        # Full knowledge converges within the bench's default 24 h horizon,
        # which the half-size view does not.
        oracle = run_one(rss_mode="oracle")
        assert oracle.n_done == oracle.n_workflows
        # Bigger views help (or at least never hurt much) ...
        assert sweep["quad"].act <= sweep["half"].act * 1.15
        # ... and the paper's 2*log2(n) sits within 30% of full oracle
        # knowledge — the core "random bounded RSS suffices" claim.
        assert sweep["paper"].act <= sweep["oracle"].act * 1.3

    def test_everything_completes(self, sweep):
        for label, r in sweep.items():
            assert r.n_done == r.n_workflows, label


class TestGossipStalenessAblation:
    """Staleness of load records: longer gossip cycles, worse decisions."""

    @pytest.fixture(scope="class")
    def sweep(self):
        return run_sweep(
            {
                "fresh": {"gossip_interval": 60.0},
                "paper": {"gossip_interval": 300.0},
                "stale": {"gossip_interval": 1800.0},
            }
        )

    def test_bench_ablation_gossip_staleness(self, sweep):
        # Fresh info should not be worse than very stale info.
        assert sweep["fresh"].act <= sweep["stale"].act * 1.10

    def test_all_complete(self, sweep):
        for label, r in sweep.items():
            assert r.completion_rate > 0.9, label


class TestLandmarkAblation:
    """Bandwidth estimation error vs an oracle bandwidth matrix."""

    def test_bench_ablation_landmarks(self):
        landmark = run_one(use_landmark_bandwidth=True)
        oracle = run_one(use_landmark_bandwidth=False)
        # Estimation error costs a bounded amount (same order of magnitude).
        assert landmark.act <= oracle.act * 1.35
        assert landmark.n_done == landmark.n_workflows


class TestIntervalAblation:
    """Periodic (paper) vs immediate (event-driven) phase-1 dispatch."""

    def test_bench_ablation_interval(self):
        periodic = run_one(load_factor=1)
        immediate = run_one(load_factor=1, immediate_dispatch=True)
        # Removing the cycle wait can only speed workflows up at light load.
        assert immediate.act <= periodic.act


class TestContentionAblation:
    """The paper's contention-free transfer assumption, quantified."""

    def test_bench_ablation_contention(self):
        free = run_one(data_range=(100.0, 10_000.0))
        shared = run_one(data_range=(100.0, 10_000.0), transfer_contention=True)
        # Sharing inbound links can only slow things down.
        assert shared.act >= free.act * 0.99


class TestRescheduleAblation:
    """The paper's future-work fix under harsh fail-churn semantics."""

    def test_bench_ablation_reschedule(self):
        plain = run_one(dynamic_factor=0.2, churn_mode="fail", load_factor=2)
        fixed = run_one(
            dynamic_factor=0.2,
            churn_mode="fail",
            load_factor=2,
            reschedule_failed=True,
        )
        assert fixed.n_done > plain.n_done
        assert fixed.n_failed == 0
