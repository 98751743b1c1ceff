"""Tests for the Phase1Runner (Algorithm 1 orchestration)."""

from __future__ import annotations


from repro.experiments.config import ExperimentConfig
from repro.grid.system import P2PGridSystem
from repro.workflow.generator import chain_workflow


def _system(**kw):
    base = dict(
        algorithm="dsmf",
        n_nodes=20,
        load_factor=1,
        total_time=4 * 3600.0,
        seed=13,
        task_range=(2, 6),
    )
    base.update(kw)
    return P2PGridSystem(ExperimentConfig(**base))


def test_view_includes_home_itself():
    system = _system()
    view = system.phase1._build_view(0)
    assert 0 in view.ids
    assert len(view) >= 1


def test_oracle_view_covers_all_alive_nodes():
    system = _system(rss_mode="oracle")
    view = system.phase1._build_view(0)
    assert len(view) == system.config.n_nodes


def test_gossip_view_limited_to_rss():
    system = _system()
    # Run a few gossip cycles so RSS fills.
    for c in range(5):
        system._gossip_cycle(c)
    view = system.phase1._build_view(0)
    assert 1 < len(view) <= system.epidemic.rss_capacity + 1


def test_run_for_home_dispatches_schedule_points():
    wf = chain_workflow("c", 3, load=100.0, data=0.0)
    system = P2PGridSystem(
        ExperimentConfig(n_nodes=20, load_factor=1, total_time=3600.0, seed=13),
        workflows=[(0, wf)],
    )
    wx = system.executions["c"]
    assert wx.schedule_points == {0}
    system.phase1.run_for_home(0, [wx])
    assert wx.schedule_points == set()
    assert 0 in wx.dispatched
    assert system.phase1.dispatches == 1


def test_dead_target_skipped_and_record_evicted():
    wf = chain_workflow("c", 2, load=100.0, data=0.0)
    system = P2PGridSystem(
        ExperimentConfig(n_nodes=20, load_factor=1, total_time=3600.0, seed=13),
        workflows=[(0, wf)],
    )
    # Fill RSS, then kill every node the scheduler can see except home.
    for c in range(6):
        system._gossip_cycle(c)
    rss_before = dict(system.epidemic.rss_view(0))
    assert rss_before
    for nid in list(rss_before):
        system.nodes[nid].alive = False
    # Force the decision onto a dead node by making home very slow/busy.
    system.nodes[0].capacity = 0.001
    system.phase1.run_for_home(0, system.phase1.plannable(0))
    wx = system.executions["c"]
    if system.phase1.dead_target_skips:
        # Task stayed a schedule point, and the stale record is gone.
        assert wx.schedule_points == {0}
        assert len(system.epidemic.rss_view(0)) < len(rss_before)
    else:  # fell back to self-execution: also legal under Formula (9)
        assert 0 in wx.dispatched


def test_only_wids_restricts_planning():
    wa = chain_workflow("a", 2, load=100.0, data=0.0)
    wb = chain_workflow("b", 2, load=100.0, data=0.0)
    system = P2PGridSystem(
        ExperimentConfig(n_nodes=20, load_factor=1, total_time=3600.0, seed=13),
        workflows=[(0, wa), (0, wb)],
    )
    system.phase1.run_for_home(0, [system.executions["a"]])
    assert system.executions["a"].dispatched
    assert not system.executions["b"].dispatched


def test_cycle_counter_advances():
    system = _system()
    before = system.phase1.cycles_run
    system.phase1.run_cycle()
    assert system.phase1.cycles_run == before + 1
