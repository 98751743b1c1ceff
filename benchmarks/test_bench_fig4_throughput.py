"""Fig. 4 — throughput of the eight algorithms in a static grid.

Paper claims reproduced here:
* HEFT and DHEFT have the lowest throughput in the beginning stage;
* SMF performs best early; DSMF is second / best decentralized.
"""

from __future__ import annotations

import pytest
from conftest import BENCH, run_one

from repro.core.heuristics.registry import PAPER_ALGORITHMS
from repro.experiments.figures import FIGURES, fold_figure

pytestmark = pytest.mark.slow


def _tp_at(result, hour: int) -> float:
    times, tp = result.series("throughput")
    for t, v in zip(times, tp):
        if t >= hour:
            return v
    return tp[-1]


def test_bench_fig4_throughput(static_suite):
    """Runs one representative DSMF run inline; asserts Fig. 4's early ordering."""
    run_one(algorithm="dsmf")

    quarter = int(BENCH["total_time"] / 3600 / 4)
    early = {alg: _tp_at(r, quarter) for alg, r in static_suite.items()}

    # SMF and DSMF lead the early phase...
    leaders = sorted(early, key=early.get, reverse=True)[:3]
    assert "dsmf" in leaders
    assert "smf" in leaders
    # ... while the longest-rank-first algorithms trail.
    assert early["dheft"] <= min(early["dsmf"], early["smf"])

    # By the (converged) horizon everyone has finished essentially all
    # workflows — the paper's curves meet at the right edge of Fig. 4.
    for alg, r in static_suite.items():
        assert r.n_done >= 0.9 * r.n_workflows, alg


def test_fig4_harness_produces_full_series(static_suite):
    fig = fold_figure(FIGURES["4"], static_suite)
    assert set(fig.series) == set(PAPER_ALGORITHMS)
    for xs, ys in fig.series.values():
        assert len(xs) == len(ys) > 4
