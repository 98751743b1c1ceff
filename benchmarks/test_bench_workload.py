"""Workload scenarios — paper-default identity and arrival-process shape.

The scenario registry must never change the science silently: the
``paper-fig4`` preset has to reproduce the plain Table-I batch run
bit-identically, while the streaming scenarios (Poisson, bursty) must
actually spread submissions over the horizon and still converge.
"""

from __future__ import annotations

from conftest import bench_config, run_sweep

from repro.experiments.campaign import result_digest
from repro.grid.system import P2PGridSystem


def test_bench_paper_scenario_is_bit_identical():
    """`paper-fig4` replays the default batch workload exactly."""
    plain = P2PGridSystem(bench_config()).run()
    scenario = P2PGridSystem(bench_config(scenario="paper-fig4")).run()
    assert result_digest(scenario) == result_digest(plain)


def test_bench_streaming_scenarios_converge():
    """Poisson and bursty arrivals run end-to-end through the campaign
    runner and finish (nearly) everything within the bench horizon."""
    results = run_sweep(
        {
            "batch": {},
            "poisson": {"scenario": "poisson-steady"},
            "storm": {"scenario": "burst-storm"},
        }
    )
    for label, r in results.items():
        assert r.n_done >= 0.9 * r.n_workflows, label
        assert r.act > 0 and r.ae > 0, label

    # Streaming runs really do stagger submissions (batch: all at t=0).
    batch_subs = {rec.submit_time for rec in results["batch"].records}
    assert batch_subs == {0.0}
    for label in ("poisson", "storm"):
        subs = sorted(rec.submit_time for rec in results[label].records)
        assert subs[-1] > 0.0, label
        horizon = bench_config().total_time
        assert subs[-1] <= horizon

    # With arrivals spread over the horizon the early system is less
    # contended, so finished workflows respond at least as fast on
    # average as the t=0 burst.
    assert results["poisson"].act <= results["batch"].act * 1.5
