"""Tests for the extra baseline policies (OLB, random)."""

from __future__ import annotations

import numpy as np

from repro.core.estimates import ResourceView
from repro.core.heuristics.base import SchedulingContext
from repro.core.heuristics.extras import OlbPhase1, RandomPhase1
from repro.core.heuristics.registry import get_bundle
from repro.experiments.config import ExperimentConfig
from repro.grid.state import WorkflowExecution
from repro.grid.system import P2PGridSystem
from repro.workflow.generator import chain_workflow


class FlatBandwidth:
    def pairs(self, srcs, dsts):
        return np.full(len(srcs), 10.0), np.zeros(len(srcs))


def _ctx(loads=(0.0, 500.0, 500.0)):
    view = ResourceView([0, 1, 2], [2.0, 2.0, 2.0], list(loads),
                        FlatBandwidth(), home_id=0)
    wx = WorkflowExecution(chain_workflow("c", 1, load=100.0, data=0.0), 0, 0.0, 1.0)
    return SchedulingContext(home_id=0, now=0.0, workflows=[wx], view=view,
                             avg_capacity=2.0, avg_bandwidth=5.0)


def test_olb_picks_least_loaded():
    decisions = OlbPhase1().plan(_ctx(loads=(900.0, 100.0, 500.0)))
    assert decisions[0].target == 1


def test_olb_ignores_capacity_by_design():
    view = ResourceView([0, 1], [16.0, 1.0], [10.0, 0.0], FlatBandwidth(), 0)
    wx = WorkflowExecution(chain_workflow("c", 1, load=100.0, data=0.0), 0, 0.0, 1.0)
    ctx = SchedulingContext(0, 0.0, [wx], view, 2.0, 5.0)
    # OLB picks node 1 (zero queue) even though node 0 is 16x faster.
    assert OlbPhase1().plan(ctx)[0].target == 1


def test_random_is_seed_deterministic():
    a = RandomPhase1(seed=3).plan(_ctx())
    b = RandomPhase1(seed=3).plan(_ctx())
    assert a[0].target == b[0].target


def test_registered_bundles_run_end_to_end():
    for name in ("olb", "random"):
        cfg = ExperimentConfig(algorithm=name, n_nodes=20, load_factor=1,
                               total_time=6 * 3600.0, seed=9, task_range=(2, 6))
        result = P2PGridSystem(cfg).run()
        assert result.n_done > 0, name


def test_serious_heuristics_beat_the_floors():
    """Sanity floor: DSMF outperforms both extra baselines."""
    results = {}
    for name in ("dsmf", "olb", "random"):
        cfg = ExperimentConfig(algorithm=name, n_nodes=30, load_factor=2,
                               total_time=12 * 3600.0, seed=9, task_range=(2, 12))
        results[name] = P2PGridSystem(cfg).run()
    assert results["dsmf"].act < results["random"].act
    assert results["dsmf"].ae > results["random"].ae
    assert results["dsmf"].act < results["olb"].act


def test_bundle_registry_exposes_extras():
    assert get_bundle("olb").phase1.name == "olb"
    assert get_bundle("random").phase1.name == "random"
