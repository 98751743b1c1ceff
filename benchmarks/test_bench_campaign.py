"""Campaign runner — parallel fan-out speedup and cache effectiveness.

A 2-algorithm × 4-seed sweep (the shape of one paper-figure cell) run
three ways: serial, fanned out across worker processes, and replayed from
the result cache.  The parallel path must be bit-identical to the serial
one; the speedup assertion is gated on the host actually having more than
one core (CI runners vary).  This module measures the campaign runner
itself, so it builds its runners directly.
"""

from __future__ import annotations

import os
import statistics

import pytest

from repro.experiments.campaign import CampaignRunner, sweep_specs
from repro.experiments.config import ExperimentConfig

#: Sweep cell small enough that the whole bench stays under a minute even
#: serially on one core.
SWEEP_BASE = ExperimentConfig(
    n_nodes=40,
    load_factor=1,
    total_time=6 * 3600.0,
    task_range=(2, 12),
)

JOBS = 4

#: Alternating serial/parallel pairs behind the speedup check: its floor
#: applies to their median ratio, so one round slowed by a neighbour on a
#: shared host does not decide it.
PAIRS = 5


def _specs():
    return sweep_specs(["dsmf", "dheft"], [1, 2, 3, 4], base=SWEEP_BASE)


@pytest.mark.slow  # wall-time ratio gate: keep off shared CI runners
def test_bench_campaign_parallel_speedup():
    """Every parallel sweep is identical to the serial one and, given
    cores, faster over the median of alternating pairs."""
    ratios = []
    for _ in range(PAIRS):
        serial = CampaignRunner(jobs=1, use_cache=False).run(_specs())
        parallel = CampaignRunner(jobs=JOBS, use_cache=False).run(_specs())

        # Fan-out must never change the science: bit-identical outcomes.
        assert parallel.fingerprint() == serial.fingerprint()
        assert [r.label for r in parallel] == [r.label for r in serial]
        ratios.append(serial.wall_seconds / parallel.wall_seconds)

    if (os.cpu_count() or 1) >= 2:
        # With real cores the 8-run sweep should overlap meaningfully;
        # 1.3x is a deliberately loose floor for noisy shared CI runners.
        assert statistics.median(ratios) > 1.3, ratios


def test_bench_campaign_cache_replay(tmp_path):
    specs = _specs()
    cold = CampaignRunner(jobs=1, cache_dir=tmp_path).run(specs)
    assert cold.n_cached == 0

    warm = CampaignRunner(jobs=1, cache_dir=tmp_path).run(specs)
    assert warm.n_cached == len(specs)
    assert warm.fingerprint() == cold.fingerprint()
    # The replay reads eight pickles; anything near the cold wall time
    # means the cache is broken.  (The acceptance bar is <10%.)
    assert warm.wall_seconds < cold.wall_seconds * 0.1
