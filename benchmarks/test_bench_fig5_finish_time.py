"""Fig. 5 — average finish time (ACT, Eq. 2) of the eight algorithms.

Paper claims reproduced here: DSMF outperforms the other decentralized
algorithms (min-min, max-min, sufferage, DHEFT, DSDF) and full-ahead HEFT
by a double-digit percentage on converged ACT; SMF/DSMF are the two best.
"""

from __future__ import annotations

import pytest

from repro.experiments.figures import FIGURES, fold_figure

pytestmark = pytest.mark.slow

DECENTRALIZED_RIVALS = ("min-min", "max-min", "sufferage", "dheft", "dsdf")


def test_bench_fig5_finish_time(static_suite):
    act = {alg: r.act for alg, r in static_suite.items()}

    # DSMF beats every decentralized rival on ACT.
    for rival in DECENTRALIZED_RIVALS:
        assert act["dsmf"] < act[rival], (rival, act)

    # The paper quotes 20%~60% reduction; require at least 10% vs the
    # rival average at bench scale.
    rival_mean = sum(act[r] for r in DECENTRALIZED_RIVALS) / len(DECENTRALIZED_RIVALS)
    assert act["dsmf"] < 0.9 * rival_mean

    # DSMF also beats full-ahead HEFT.
    assert act["dsmf"] < act["heft"]

    # The two best algorithms overall are SMF and DSMF.
    best_two = sorted(act, key=act.get)[:2]
    assert "dsmf" in best_two


def test_fig5_series_monotone_after_warmup(static_suite):
    """Cumulative ACT rises as longer workflows complete."""
    fig = fold_figure(FIGURES["5"], static_suite)
    for alg, (xs, ys) in fig.series.items():
        nonzero = [y for y in ys if y > 0]
        assert nonzero, alg
        assert nonzero[-1] >= nonzero[0] * 0.5
