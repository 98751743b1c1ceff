"""Fig. 8 — average efficiency vs load factor.

Paper claims reproduced here: AE decreases as the load factor grows
(queueing dilutes efficiency), and DSMF retains an efficiency advantage
over the decentralized rivals under high competition.
"""

from __future__ import annotations

import pytest
from conftest import bench_config, run_one, run_sweep

from repro.experiments.figures import FIGURES, figure_cells

pytestmark = pytest.mark.slow

LOAD_FACTORS = (1, 4, 8)
ALGS = ("dsmf", "min-min", "dheft")


@pytest.fixture(scope="module")
def sweep():
    specs = figure_cells(FIGURES["8"], bench_config(), legend=ALGS, x=LOAD_FACTORS)
    results = run_sweep(specs).values()
    return dict(zip(((alg, lf) for lf in LOAD_FACTORS for alg in ALGS), results))


def test_bench_fig8_load_factor(sweep):
    run_one(algorithm="min-min", load_factor=4)

    for alg in ALGS:
        aes = [sweep[(alg, lf)].ae for lf in LOAD_FACTORS]
        assert aes[0] > aes[-1], (alg, aes)  # efficiency falls with load

    hi = LOAD_FACTORS[-1]
    for rival in ("min-min", "dheft"):
        assert sweep[("dsmf", hi)].ae > sweep[(rival, hi)].ae, rival


def test_fig8_efficiency_band(sweep):
    """Converged AE sits in the paper's plotted band (0–0.7)."""
    for (alg, lf), r in sweep.items():
        assert 0.0 < r.ae < 1.0, (alg, lf, r.ae)
