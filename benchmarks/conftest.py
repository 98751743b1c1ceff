"""Shared infrastructure for the benchmark harness.

Every paper table/figure has one ``test_bench_*`` module.  Simulations are
deterministic (fixed seeds), so each bench runs its simulation exactly once
and then asserts the paper's qualitative *shape* claims on the result — who
wins, by roughly what factor, how trends move.  These modules time nothing;
the repository's one timing benchmark is ``perfbench/``.  Absolute numbers
differ from the paper (different testbed), which is expected;
``scripts/render_experiments.py`` prints the comparison from a
``scripts/collect_experiments.py`` collection.

The figure benches run their ``FIGURES`` entry's grid
(:mod:`repro.experiments.figures`) over a reduced scale (``BENCH`` below)
so the whole suite finishes in minutes; the CLI regenerates any figure at
``medium``/``paper`` scale.
"""

from __future__ import annotations

import os
from typing import Mapping, Sequence

import pytest

from repro.experiments.campaign import RunSpec
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import FIGURES, figure_cells
from repro.experiments.request import campaign_of, execute
from repro.grid.system import P2PGridSystem
from repro.workload.scenarios import apply_scenario

#: Fan-out for the sweep fixtures (the single-run benches always run
#: inline).  Results are deterministic per config, so the worker count only
#: affects wall time, never the asserted numbers.
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "0")) or (os.cpu_count() or 1)

#: Opt-in result cache for the sweep fixtures.  Off by default so every
#: bench simulates; set REPRO_BENCH_CACHE_DIR to iterate on assertion
#: thresholds without re-simulating.
BENCH_CACHE_DIR = os.environ.get("REPRO_BENCH_CACHE_DIR")

#: Reduced-scale bench setting (validated to preserve the paper's ordering).
#: 24 simulated hours let every algorithm converge (finish its workload) so
#: ACT/AE comparisons are apples-to-apples, like the paper's quoted
#: "converged" numbers.
BENCH = dict(
    n_nodes=60,
    load_factor=3,
    total_time=24 * 3600.0,
    seed=7,
    task_range=(2, 30),
)


def bench_config(scenario: str | None = None, **overrides) -> ExperimentConfig:
    """The Fig. 4–6 base setting at bench scale.

    ``scenario`` applies a named workload preset from
    :mod:`repro.workload.scenarios`; explicit ``overrides`` win over it.
    """
    if scenario is not None:
        return apply_scenario(ExperimentConfig(**BENCH), scenario, **overrides)
    return ExperimentConfig(**{**BENCH, **overrides})


def run_one(**overrides):
    """Build and run one system; returns the RunResult."""
    return P2PGridSystem(bench_config(**overrides)).run()


def run_sweep(variants: Mapping[str, dict] | Sequence[RunSpec], **common) -> dict:
    """Run bench cells as one campaign request
    (:func:`repro.experiments.request.execute`).

    ``variants`` is either a list of :class:`RunSpec` (e.g. a ``FIGURES``
    entry's :func:`figure_cells`) or a mapping of label to
    :func:`bench_config` overrides, with ``common`` overrides applied to
    every variant.  Fans out across :data:`BENCH_JOBS` processes and
    returns ``label -> RunResult`` in cell order — bit-identical to running
    each cell serially via :func:`run_one`.
    """
    specs = variants
    if isinstance(variants, Mapping):
        specs = [
            RunSpec(label, bench_config(**{**common, **overrides}))
            for label, overrides in variants.items()
        ]
    return execute(
        campaign_of(specs),
        jobs=min(BENCH_JOBS, len(specs)),
        cache_dir=BENCH_CACHE_DIR,
        use_cache=BENCH_CACHE_DIR is not None,
    ).results()


@pytest.fixture(scope="session")
def static_suite():
    """Fig. 4/5/6's grid (one static run per paper algorithm), shared by
    their benches."""
    return run_sweep(figure_cells(FIGURES["4"], bench_config()))
