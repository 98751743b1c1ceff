"""Fig. 12/13/14 — DSMF under churn (throughput, ACT, AE vs dynamic factor).

Paper claims reproduced here:
* throughput degrades as the dynamic factor grows (Fig. 12);
* completed workflows keep relatively stable finish time and efficiency
  for df <= 0.2 (Fig. 13/14) — "no notable performance degradation under
  the ratio of 20% churning nodes".
"""

from __future__ import annotations

import pytest
from conftest import bench_config, run_sweep

from repro.experiments.figures import FIGURES, figure_cells

pytestmark = pytest.mark.slow

DFS = (0.0, 0.1, 0.2, 0.4)


@pytest.fixture(scope="module")
def sweep():
    results = run_sweep(figure_cells(FIGURES["12"], bench_config(), legend=DFS)).values()
    return dict(zip(DFS, results))


def test_bench_fig12_churn_throughput(sweep):
    done = {df: sweep[df].n_done for df in DFS}
    # Heavy churn hurts throughput vs the static run...
    assert done[0.4] < done[0.0]
    # ...while moderate churn costs little (paper: stable up to df=0.2).
    assert done[0.2] >= 0.85 * done[0.0]
    assert done[0.1] >= 0.95 * done[0.0]


def test_bench_fig13_churn_finish_time(sweep):
    """ACT of *finished* workflows degrades gracefully up to df=0.2
    (Fig. 13's curves for df<=0.2 track the static one)."""
    base = sweep[0.0].act
    assert sweep[0.1].act < 1.25 * base
    assert sweep[0.2].act < 1.5 * base
    # Churn never *helps*: the static run is the fastest.
    assert base == min(r.act for r in sweep.values())


def test_bench_fig14_churn_efficiency(sweep):
    """AE of finished workflows degrades gracefully with df."""
    base = sweep[0.0].ae
    assert sweep[0.1].ae > 0.6 * base
    assert sweep[0.2].ae > 0.5 * base
    # No failures under suspend churn semantics.
    for df in DFS:
        assert sweep[df].n_failed == 0
