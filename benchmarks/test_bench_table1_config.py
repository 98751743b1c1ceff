"""Table I — the experimental setting, as implemented.

Verifies that the default configuration *is* Table I, and builds the
system (topology generation + all-pairs matrices + gossip bootstrap +
workflow generation) at a few hundred nodes, the fixed set-up every
experiment pays.
"""

from __future__ import annotations

from conftest import bench_config

from repro.experiments.figures import table1_settings
from repro.grid.system import P2PGridSystem


def test_bench_table1_config():
    system = P2PGridSystem(bench_config(n_nodes=200))
    # Construction builds the full substrate stack.
    assert system.topology.n == 200
    assert len(system.executions) == 600  # load factor 3
    assert len(system.overlay.live) == 200


def test_table1_values_match_paper():
    rows = dict(table1_settings())
    assert rows["# of tasks per workflow"] == "2 ~ 30"
    assert rows["computing amount per task"] == "100 ~ 10000 MI"
    assert rows["image size per task"] == "10 ~ 100 Mb"
    assert rows["network bandwidth"] == "0.1 ~ 10 Mb/s"
    assert rows["node capacity"] == "1, 2, 4, 8 or 16 MIPS"
    assert rows["fan-out per task"] == "1 ~ 5"
    assert rows["total experimental time"] == "36 hours"
    assert rows["scheduling interval"] == "15 minutes"


def test_capacity_distribution_covers_all_tiers():
    system = P2PGridSystem(bench_config(n_nodes=200))
    caps = {n.capacity for n in system.nodes}
    assert caps == {1.0, 2.0, 4.0, 8.0, 16.0}


def test_workload_within_table1_ranges():
    system = P2PGridSystem(bench_config(n_nodes=100))
    for wx in system.executions.values():
        real = [t for t in wx.wf.tasks.values() if not t.virtual]
        assert 2 <= len(real) <= 30
        for t in real:
            assert 100.0 <= t.load <= 10_000.0
            assert 10.0 <= t.image_size <= 100.0
