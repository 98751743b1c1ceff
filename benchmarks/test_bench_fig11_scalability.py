"""Fig. 11 — system scalability of DSMF.

Paper claims reproduced here:
(a) the number of resource nodes known per node (RSS size) stays bounded by
    a small constant (< 30) as the system scales — O(log2 n) space;
(b/c) DSMF's average efficiency and finish time stay roughly stable with
    scale, thanks to the fully decentralized design.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import bench_config, run_one, run_sweep

from repro.experiments.figures import FIGURES, figure_cells

pytestmark = pytest.mark.slow

SCALES = (50, 100, 200)


@pytest.fixture(scope="module")
def sweep():
    results = run_sweep(figure_cells(FIGURES["11"], bench_config(), x=SCALES)).values()
    return dict(zip(SCALES, results))


def test_bench_fig11_scalability(sweep):
    run_one(algorithm="dsmf", n_nodes=SCALES[-1])

    # (a) RSS stays small and sub-linear: growing the system 4x grows the
    # per-node view by at most ~2 entries (log2 growth), never beyond 30.
    rss = [sweep[n].rss_mean for n in SCALES]
    assert all(r < 30 for r in rss)
    assert rss[-1] <= rss[0] + 2 * np.log2(SCALES[-1] / SCALES[0]) + 2

    # (b, c) quality is roughly flat with scale (same per-node workload).
    aes = [sweep[n].ae for n in SCALES]
    acts = [sweep[n].act for n in SCALES]
    assert max(aes) / max(min(aes), 1e-9) < 2.0
    assert max(acts) / min(acts) < 2.0


def test_fig11_rss_capacity_tracks_log2(sweep):
    """The configured bound is 2*ceil(log2 n) — observed means respect it."""
    for n in SCALES:
        assert sweep[n].rss_mean <= 2 * np.ceil(np.log2(n)) + 1e-9
