"""Fig. 7 — average finish time vs load factor (1..8).

Paper claims reproduced here: ACT grows with the load factor (more
resource competition), and DSMF stays among the best decentralized
algorithms as competition intensifies (the paper highlights lf = 6..8).
"""

from __future__ import annotations

import pytest
from conftest import bench_config, run_sweep

from repro.experiments.figures import FIGURES, figure_cells

pytestmark = pytest.mark.slow

LOAD_FACTORS = (1, 4, 8)
ALGS = ("dsmf", "min-min", "max-min", "dheft")


@pytest.fixture(scope="module")
def sweep():
    specs = figure_cells(FIGURES["7"], bench_config(), legend=ALGS, x=LOAD_FACTORS)
    results = run_sweep(specs).values()
    return dict(zip(((alg, lf) for lf in LOAD_FACTORS for alg in ALGS), results))


def test_bench_fig7_load_factor(sweep):
    # ACT increases with resource competition for every algorithm.
    for alg in ALGS:
        acts = [sweep[(alg, lf)].act for lf in LOAD_FACTORS]
        assert acts[0] < acts[-1], (alg, acts)

    # At the highest competition DSMF beats the decentralized rivals.
    hi = LOAD_FACTORS[-1]
    for rival in ("min-min", "max-min", "dheft"):
        assert sweep[("dsmf", hi)].act < sweep[(rival, hi)].act, rival


def test_fig7_completion_rate_degrades_gracefully(sweep):
    """Higher load factors leave more work unfinished at the horizon, but
    DSMF keeps finishing a solid share."""
    rates = [sweep[("dsmf", lf)].completion_rate for lf in LOAD_FACTORS]
    assert rates[0] >= rates[-1]
    assert rates[-1] > 0.3
