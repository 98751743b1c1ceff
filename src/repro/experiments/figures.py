"""The §IV registry: every figure and table of the paper's evaluation, once.

``FIGURES`` maps a figure name (``"4"`` … ``"14"``, ``"table2"``) to a
:class:`Figure`: the grid of runs over :func:`base_config` — its legend
axis, and its x axis with per-profile defaults — and the metric the figure
plots.  :func:`figure_cells` lists an entry's runs as
:class:`~repro.experiments.campaign.RunSpec`\\ s for the campaign runner,
and :func:`fold_figure` folds the finished runs into the
:class:`FigureResult` the figure draws.  ``repro figure``,
``scripts/collect_experiments.py``, ``scripts/render_experiments.py`` and
the ``benchmarks/`` shape tests all read this table.

Scale profiles (``paper`` / ``medium`` / ``small``) shrink node count and
horizon while keeping all Table I per-task parameters, preserving the
result *shape* (who wins, rough factors, crossovers) at a fraction of the
cost; the results JSON written by ``collect_experiments.py`` records the
profile and seed, and ``render_experiments.py`` prints them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.core.heuristics.registry import PAPER_ALGORITHMS
from repro.experiments.campaign import RunSpec
from repro.experiments.config import ExperimentConfig, ScaleProfile, apply_profile
from repro.metrics.collectors import RunResult

__all__ = [
    "CCR_CASES",
    "FIGURES",
    "Figure",
    "FigureResult",
    "base_config",
    "figure_cells",
    "fold_figure",
    "table1_settings",
]


@dataclass
class FigureResult:
    """Data behind one reproduced figure/table.

    ``series`` maps a legend label to ``(x values, y values)``; for bar
    charts x values are category indices and ``categories`` names them.
    """

    figure: str
    title: str
    xlabel: str
    ylabel: str
    series: dict[str, tuple[list[float], list[float]]]
    categories: list[str] = field(default_factory=list)
    notes: str = ""

    def final_values(self) -> dict[str, float]:
        """Last y value per series (the 'converged' numbers quoted in §IV)."""
        return {k: ys[-1] for k, (xs, ys) in self.series.items() if ys}

    def as_rows(self) -> list[list[object]]:
        """Long-form rows (series, x, y) for tables/CSV."""
        out: list[list[object]] = []
        for label, (xs, ys) in self.series.items():
            for x, y in zip(xs, ys):
                name = self.categories[int(x)] if self.categories else x
                out.append([label, name, y])
        return out


def base_config(
    profile: ScaleProfile | str = ScaleProfile.SMALL, seed: int = 1, **overrides
) -> ExperimentConfig:
    """The Fig. 4–6 experimental setting at the requested scale.

    Paper values: 1000 nodes, three workflows each, loads 100–10000 MI,
    data 10–1000 Mb (CCR ≈ 0.16), 36 hours.  Explicit ``overrides`` win
    over the profile's scale values.
    """
    cfg = apply_profile(ExperimentConfig(seed=seed), ScaleProfile(profile))
    return cfg.with_(**overrides) if overrides else cfg


@dataclass(frozen=True)
class Figure:
    """One §IV figure or table as a grid over :func:`base_config`.

    Every ``legend`` value is one plotted series, and ``cell(legend, x)``
    gives the config overrides of one run.  Without an ``x`` axis the
    figure plots the ``metric`` series over simulated time; with one, it
    plots the converged ``metric`` attribute per x category.  ``x`` maps
    each scale profile to its default axis.  A ``metric`` mapping plots
    several attributes of the one legend value, one series each (Fig. 11).
    """

    figure: str
    title: str
    ylabel: str
    legend: tuple
    cell: Callable[[Any, Any], dict]
    metric: str | Mapping[str, str]
    x: Optional[Mapping[ScaleProfile, tuple]] = None
    xlabel: str = "Time (Hour)"
    #: Format of a legend value's series label.
    series_label: str = "{}"


#: The paper's four (task-load range, data-size range) combinations.
CCR_CASES: list[tuple[str, tuple[float, float], tuple[float, float]]] = [
    ("load:10-1000 data:10-1000", (10.0, 1000.0), (10.0, 1000.0)),
    ("load:10-1000 data:100-10000", (10.0, 1000.0), (100.0, 10_000.0)),
    ("load:100-10000 data:10-1000", (100.0, 10_000.0), (10.0, 1000.0)),
    ("load:100-10000 data:100-10000", (100.0, 10_000.0), (100.0, 10_000.0)),
]
_CCR = {name: {"load_range": loads, "data_range": data} for name, loads, data in CCR_CASES}

#: Fig. 11's scales: the paper's x-axis up to 2000 nodes.
_SCALES = (100, 200, 400, 600, 800, 1000, 1400, 2000)


def _every_profile(axis: Sequence) -> dict[ScaleProfile, tuple]:
    return dict.fromkeys(ScaleProfile, tuple(axis))


_STATIC = Figure(
    "fig4", "Throughput of Workflows in Static P2P Grid System",
    "# of workflows finished", PAPER_ALGORITHMS,
    lambda alg, _: {"algorithm": alg}, "throughput",
)
_LOAD = Figure(
    "fig7", "Average Finish-Time of Workflows under Different Load Factor",
    "Average finish-time (s)", PAPER_ALGORITHMS,
    lambda alg, lf: {"algorithm": alg, "load_factor": lf}, "act",
    _every_profile(range(1, 9)), "case",
)
_CCR_SWEEP = Figure(
    "fig9", "Average Finish-Time of Workflows under Different CCRs",
    "Average finish-time (s)", PAPER_ALGORITHMS,
    lambda alg, case: {"algorithm": alg, **_CCR[case]}, "act",
    _every_profile(_CCR), "case",
)
_CHURN = Figure(
    "fig12", "Throughput of DSMF in Dynamic Environment",
    "# of workflows finished", (0.0, 0.1, 0.2, 0.3, 0.4),
    lambda df, _: {"algorithm": "dsmf", "dynamic_factor": df}, "throughput",
    series_label="dynamic factor={:g}",
)

FIGURES: dict[str, Figure] = {
    "4": _STATIC,
    "5": replace(
        _STATIC, figure="fig5", metric="act", ylabel="Average finish-time (s)",
        title="Average Finish-time of Workflows in Static P2P Grid System",
    ),
    "6": replace(
        _STATIC, figure="fig6", metric="ae", ylabel="Average efficiency",
        title="Average Efficiency of Workflows in Static P2P Grid System",
    ),
    "7": _LOAD,
    "8": replace(
        _LOAD, figure="fig8", metric="ae", ylabel="Average efficiency",
        title="Average Efficiency of Workflows under Different Load Factor",
    ),
    "9": _CCR_SWEEP,
    "10": replace(
        _CCR_SWEEP, figure="fig10", metric="ae", ylabel="Average efficiency",
        title="Average Efficiency of Workflows under Different CCRs",
    ),
    # (a) nodes known per node via the mixed gossip protocol, (b) average
    # efficiency, (c) average finish time.  ``small`` keeps scales <= 400.
    "11": Figure(
        "fig11", "System Scalability of DSMF",
        "(a) known nodes / (b) AE / (c) ACT", ("dsmf",),
        lambda alg, n: {"algorithm": alg, "n_nodes": n},
        {"known_nodes": "rss_mean", "avg_efficiency": "ae", "avg_finish_time": "act"},
        {**_every_profile(_SCALES), ScaleProfile.SMALL: (100, 200, 400)},
        "system scale (n)",
    ),
    "12": _CHURN,
    "13": replace(
        _CHURN, figure="fig13", metric="act", ylabel="Average finish-time (s)",
        title="Average Finish-Time of DSMF in Dynamic Environment",
    ),
    "14": replace(
        _CHURN, figure="fig14", metric="ae", ylabel="Average efficiency",
        title="Average Efficiency of DSMF in Dynamic Environment",
    ),
    # §IV.B prose ("Table II"): converged ACT with the heuristic second
    # phase vs plain FCFS at resource nodes, for the paper's four bases
    # and DSMF's own phase 2.
    "table2": Figure(
        "table2", "Second-phase scheduling vs FCFS (converged ACT)",
        "Average finish-time (s)", ("phase2-heuristic", "phase2-fcfs"),
        lambda phase2, b: {"algorithm": b if phase2 == "phase2-heuristic" else f"{b}-fcfs"},
        "act", _every_profile(("min-min", "max-min", "sufferage", "dheft", "dsmf")),
        "base heuristic",
    ),
}


def _axes(entry: Figure, profile, legend, x) -> tuple[tuple, Optional[tuple]]:
    legend = entry.legend if legend is None else tuple(legend)
    if entry.x is None:
        return legend, None
    return legend, entry.x[ScaleProfile(profile)] if x is None else tuple(x)


def _label(entry: Figure, legend, x) -> str:
    series = entry.series_label.format(legend)
    return series if x is None else f"{series}@{x}"


def figure_cells(
    entry: Figure,
    base: ExperimentConfig,
    profile: ScaleProfile | str = ScaleProfile.SMALL,
    legend: Optional[Sequence] = None,
    x: Optional[Sequence] = None,
) -> list[RunSpec]:
    """The runs behind ``entry``: one :class:`RunSpec` per (x, legend) cell.

    Cells are ``base`` with ``entry.cell``'s overrides, x-major.  ``legend``
    and ``x`` select a subset of the axes (an explicit ``x`` is run as
    given); by default the x axis is ``profile``'s.
    """
    legend, xs = _axes(entry, profile, legend, x)
    return [
        RunSpec(_label(entry, lg, xv), base.with_(**entry.cell(lg, xv)))
        for xv in (xs if xs is not None else (None,))
        for lg in legend
    ]


def fold_figure(
    entry: Figure,
    results: Mapping[str, RunResult],
    profile: ScaleProfile | str = ScaleProfile.SMALL,
    legend: Optional[Sequence] = None,
    x: Optional[Sequence] = None,
) -> FigureResult:
    """Fold finished runs (label -> result, e.g. ``CampaignResult.results()``
    of :func:`figure_cells` with the same axes) into the figure's data."""
    legend, xs = _axes(entry, profile, legend, x)
    if xs is None:
        series = {
            entry.series_label.format(lg): results[_label(entry, lg, None)].series(entry.metric)
            for lg in legend
        }
        return FigureResult(entry.figure, entry.title, entry.xlabel, entry.ylabel, series)
    if isinstance(entry.metric, str):
        lines = [(entry.series_label.format(lg), lg, entry.metric) for lg in legend]
    else:
        lines = [(name, lg, attr) for lg in legend for name, attr in entry.metric.items()]
    idx = [float(i) for i in range(len(xs))]
    series = {
        name: (idx, [float(getattr(results[_label(entry, lg, xv)], attr)) for xv in xs])
        for name, lg, attr in lines
    }
    return FigureResult(
        entry.figure, entry.title, entry.xlabel, entry.ylabel, series,
        categories=[str(xv) for xv in xs],
    )


def table1_settings() -> list[tuple[str, str]]:
    """Table I, as implemented by the default configuration."""
    cfg = ExperimentConfig()
    return [
        ("# of nodes", "200 ~ 2000 (config n_nodes; default 1000)"),
        ("# of tasks per workflow", f"{cfg.task_range[0]} ~ {cfg.task_range[1]}"),
        ("computing amount per task", f"{cfg.load_range[0]:g} ~ {cfg.load_range[1]:g} MI"),
        ("image size per task", f"{cfg.image_range[0]:g} ~ {cfg.image_range[1]:g} Mb"),
        ("dependent data size", "100 ~ 10000 Mb (Fig.4-6 use 10 ~ 1000)"),
        ("network bandwidth", f"{cfg.bw_min:g} ~ {cfg.bw_max:g} Mb/s"),
        ("node capacity", "1, 2, 4, 8 or 16 MIPS"),
        ("CCR", "0.16 ~ 16 (via load/data ranges)"),
        ("fan-out per task", f"{cfg.fanout_range[0]} ~ {cfg.fanout_range[1]}"),
        ("total experimental time", f"{cfg.total_time / 3600:g} hours"),
        ("scheduling interval", f"{cfg.schedule_interval / 60:g} minutes"),
        ("gossip cycle", f"{cfg.gossip_interval / 60:g} minutes, TTL {cfg.gossip_ttl}"),
    ]
