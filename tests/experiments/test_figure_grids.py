"""The §IV registry runs exactly the grids its consumers ran before it.

The reference grids below are literal copies of the loops that each
consumer used to carry on its own: the collector's per-figure groups, the
``repro figure`` harnesses and the ``benchmarks/`` fixtures.  Two
differences are deliberate and spelled out where they apply: ``repro
figure table2`` gains DSMF's own second phase, and ``repro figure 11`` at
``medium``/``paper`` runs the collector's scales up to 2000 nodes.
"""

from __future__ import annotations

import pytest

from repro.core.heuristics.registry import PAPER_ALGORITHMS
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import CCR_CASES, FIGURES, base_config, figure_cells

LOAD_FACTORS = (1, 2, 3, 4, 5, 6, 7, 8)
DYNAMIC_FACTORS = (0.0, 0.1, 0.2, 0.3, 0.4)
COLLECTOR_SCALES = (100, 200, 400, 600, 800, 1000, 1400, 2000)
BASES = ("min-min", "max-min", "sufferage", "dheft", "dsmf")


def collector_grid(profile: str, seed: int) -> dict[str, list[ExperimentConfig]]:
    """``scripts/collect_experiments.py``'s grid before the registry."""
    groups = {}
    groups["fig456"] = [base_config(profile, seed=seed, algorithm=alg) for alg in PAPER_ALGORITHMS]
    groups["fig78"] = [
        base_config(profile, seed=seed, algorithm=alg, load_factor=lf)
        for lf in LOAD_FACTORS
        for alg in PAPER_ALGORITHMS
    ]
    groups["fig910"] = [
        base_config(profile, seed=seed, algorithm=alg, load_range=loads, data_range=data)
        for (_, loads, data) in CCR_CASES
        for alg in PAPER_ALGORITHMS
    ]
    horizon = base_config(profile, seed=seed).total_time
    groups["fig11"] = [
        ExperimentConfig(algorithm="dsmf", seed=seed, n_nodes=s, total_time=horizon)
        for s in COLLECTOR_SCALES
    ]
    groups["fig121314"] = [
        base_config(profile, seed=seed, algorithm="dsmf", dynamic_factor=df)
        for df in DYNAMIC_FACTORS
    ]
    groups["table2"] = [
        base_config(profile, seed=seed, algorithm=name)
        for b in BASES
        for name in (b, f"{b}-fcfs")
    ]
    return groups


def figure_grid(name: str, profile: str, seed: int = 1) -> list[ExperimentConfig]:
    """``repro figure <name>``'s grid before the registry (with the two
    deliberate changes noted in the module docstring)."""
    base = base_config(profile, seed=seed)
    if name in ("4", "5", "6"):
        return [base.with_(algorithm=alg) for alg in PAPER_ALGORITHMS]
    if name in ("7", "8"):
        return [base.with_(load_factor=lf, algorithm=alg)
                for lf in LOAD_FACTORS for alg in PAPER_ALGORITHMS]
    if name in ("9", "10"):
        return [base.with_(load_range=loads, data_range=data, algorithm=alg)
                for _, loads, data in CCR_CASES for alg in PAPER_ALGORITHMS]
    if name == "11":
        scales = (100, 200, 400) if profile == "small" else COLLECTOR_SCALES
        return [ExperimentConfig(algorithm="dsmf", n_nodes=s, seed=seed,
                                 total_time=base.total_time) for s in scales]
    if name in ("12", "13", "14"):
        return [base.with_(algorithm="dsmf", dynamic_factor=df) for df in DYNAMIC_FACTORS]
    assert name == "table2"
    return [base.with_(algorithm=a) for b in BASES for a in (b, f"{b}-fcfs")]


#: benchmarks/conftest.py's ``BENCH`` setting.
BENCH = dict(n_nodes=60, load_factor=3, total_time=24 * 3600.0, seed=7, task_range=(2, 30))


def bench_config(**overrides) -> ExperimentConfig:
    return ExperimentConfig(**{**BENCH, **overrides})


#: Each ``benchmarks/test_bench_*.py`` fixture grid before the registry,
#: with the axes its fixture now selects from the ``FIGURES`` entry.
BENCH_GRIDS = {
    "4": ({}, [bench_config(algorithm=alg) for alg in PAPER_ALGORITHMS]),
    "7": (
        dict(legend=("dsmf", "min-min", "max-min", "dheft"), x=(1, 4, 8)),
        [bench_config(algorithm=alg, load_factor=lf)
         for alg in ("dsmf", "min-min", "max-min", "dheft") for lf in (1, 4, 8)],
    ),
    "8": (
        dict(legend=("dsmf", "min-min", "dheft"), x=(1, 4, 8)),
        [bench_config(algorithm=alg, load_factor=lf)
         for alg in ("dsmf", "min-min", "dheft") for lf in (1, 4, 8)],
    ),
    "9": (
        dict(legend=("dsmf", "min-min", "dheft")),
        [bench_config(algorithm=alg, load_range=loads, data_range=data)
         for _, loads, data in CCR_CASES for alg in ("dsmf", "min-min", "dheft")],
    ),
    "10": (
        dict(legend=("dsmf", "sufferage", "dheft")),
        [bench_config(algorithm=alg, load_range=loads, data_range=data)
         for _, loads, data in CCR_CASES for alg in ("dsmf", "sufferage", "dheft")],
    ),
    "11": (dict(x=(50, 100, 200)),
           [bench_config(algorithm="dsmf", n_nodes=n) for n in (50, 100, 200)]),
    "12": (dict(legend=(0.0, 0.1, 0.2, 0.4)),
           [bench_config(algorithm="dsmf", dynamic_factor=df) for df in (0.0, 0.1, 0.2, 0.4)]),
    "table2": (dict(x=BASES), [bench_config(algorithm=a) for b in BASES for a in (b, f"{b}-fcfs")]),
}


def test_collector_medium_grid_matches():
    reference = [cfg for group in collector_grid("medium", 1).values() for cfg in group]
    assert len(reference) == 127
    assert len(set(reference)) == 105
    base = base_config("medium", seed=1)
    table = {s.config for entry in FIGURES.values()
             for s in figure_cells(entry, base, "medium")}
    assert table == set(reference)


@pytest.mark.parametrize("profile", ["small", "medium"])
@pytest.mark.parametrize("name", list(FIGURES))
def test_repro_figure_grid_matches(name, profile):
    cells = figure_cells(FIGURES[name], base_config(profile, seed=1), profile)
    reference = figure_grid(name, profile)
    assert [s.config for s in cells] == reference
    assert len({s.label for s in cells}) == len(cells)


@pytest.mark.parametrize("name", list(BENCH_GRIDS))
def test_bench_fixture_grid_matches(name):
    axes, reference = BENCH_GRIDS[name]
    cells = figure_cells(FIGURES[name], bench_config(), **axes)
    assert {s.config for s in cells} == set(reference)
    assert len(cells) == len(reference)
