"""Regeneration harnesses for every table and figure of §IV.

Each ``figN_*`` function runs the simulations the paper's figure aggregates
and returns a :class:`FigureResult` holding the same series/bars the figure
plots.  The ``FIGURES`` dict at the end of this module maps figure names
to these functions; ``python -m repro figure <n>`` renders them as ASCII
plots and CSV.

Scale profiles (``paper`` / ``medium`` / ``small``) shrink node count and
horizon while keeping all Table I per-task parameters, preserving the
result *shape* (who wins, rough factors, crossovers) at a fraction of the
cost; EXPERIMENTS.md records which profile produced the archived numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.core.heuristics.registry import PAPER_ALGORITHMS
from repro.experiments.config import ExperimentConfig, ScaleProfile, apply_profile
from repro.grid.system import P2PGridSystem
from repro.metrics.collectors import RunResult

__all__ = [
    "FigureResult",
    "base_config",
    "fig4_throughput",
    "fig5_finish_time",
    "fig6_efficiency",
    "fig7_finish_time_vs_load",
    "fig8_efficiency_vs_load",
    "fig9_finish_time_vs_ccr",
    "fig10_efficiency_vs_ccr",
    "fig11_scalability",
    "fig12_churn_throughput",
    "fig13_churn_finish_time",
    "fig14_churn_efficiency",
    "run_static_suite",
    "table1_settings",
    "table2_fcfs_ablation",
    "FIGURES",
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


# --------------------------------------------------------------------------
# Base setting (§IV.A / Fig. 4–6)
# --------------------------------------------------------------------------

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


def _run(cfg: ExperimentConfig) -> RunResult:
    return P2PGridSystem(cfg).run()


def run_static_suite(
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    profile: ScaleProfile | str = ScaleProfile.SMALL,
    seed: int = 1,
    progress: Callable[[str, RunResult], None] | None = None,
    **overrides,
) -> dict[str, RunResult]:
    """One static run per algorithm with the shared base setting.

    This is the workhorse behind Fig. 4, 5 and 6 (they share the runs).
    """
    results: dict[str, RunResult] = {}
    for alg in algorithms:
        cfg = base_config(profile, seed=seed, **overrides).with_(algorithm=alg)
        results[alg] = _run(cfg)
        if progress is not None:
            progress(alg, results[alg])
    return results


def _series_figure(
    results: dict[str, RunResult], metric: str, figure: str, title: str, ylabel: str
) -> FigureResult:
    return FigureResult(
        figure=figure,
        title=title,
        xlabel="Time (Hour)",
        ylabel=ylabel,
        series={alg: r.series(metric) for alg, r in results.items()},
    )


def fig4_throughput(
    results: dict[str, RunResult] | None = None, **kw
) -> FigureResult:
    """Fig. 4: workflows finished over time, eight algorithms, static."""
    results = results or run_static_suite(**kw)
    return _series_figure(
        results, "throughput", "fig4",
        "Throughput of Workflows in Static P2P Grid System",
        "# of workflows finished",
    )


def fig5_finish_time(
    results: dict[str, RunResult] | None = None, **kw
) -> FigureResult:
    """Fig. 5: cumulative average finish time (Eq. 2) over time."""
    results = results or run_static_suite(**kw)
    return _series_figure(
        results, "act", "fig5",
        "Average Finish-time of Workflows in Static P2P Grid System",
        "Average finish-time (s)",
    )


def fig6_efficiency(
    results: dict[str, RunResult] | None = None, **kw
) -> FigureResult:
    """Fig. 6: cumulative average efficiency (Eq. 3) over time."""
    results = results or run_static_suite(**kw)
    return _series_figure(
        results, "ae", "fig6",
        "Average Efficiency of Workflows in Static P2P Grid System",
        "Average efficiency",
    )


# --------------------------------------------------------------------------
# Fig. 7/8 — load-factor sweep
# --------------------------------------------------------------------------

def _sweep(
    figure: str,
    title: str,
    ylabel: str,
    categories: list[str],
    configs: list[ExperimentConfig],
    algorithms: Sequence[str],
    metric: str,
    progress: Callable[[str, RunResult], None] | None = None,
) -> FigureResult:
    series: dict[str, tuple[list[float], list[float]]] = {
        alg: ([], []) for alg in algorithms
    }
    for i, cfg in enumerate(configs):
        for alg in algorithms:
            r = _run(cfg.with_(algorithm=alg))
            series[alg][0].append(float(i))
            series[alg][1].append(float(getattr(r, metric)))
            if progress is not None:
                progress(f"{alg}@{categories[i]}", r)
    return FigureResult(
        figure=figure,
        title=title,
        xlabel="case",
        ylabel=ylabel,
        series=series,
        categories=categories,
    )


def _load_factor_sweep(metric, figure, title, ylabel, load_factors, profile, seed,
                       algorithms, progress, **overrides):
    lfs = list(load_factors)
    configs = [
        base_config(profile, seed=seed, **overrides).with_(load_factor=lf)
        for lf in lfs
    ]
    return _sweep(
        figure, title, ylabel, [str(lf) for lf in lfs], configs, algorithms,
        metric, progress,
    )


def fig7_finish_time_vs_load(
    load_factors: Iterable[int] = (1, 2, 3, 4, 5, 6, 7, 8),
    profile: ScaleProfile | str = ScaleProfile.SMALL,
    seed: int = 1,
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    progress=None,
    **overrides,
) -> FigureResult:
    """Fig. 7: converged ACT as the per-node workflow count grows."""
    return _load_factor_sweep(
        "act", "fig7", "Average Finish-Time of Workflows under Different Load Factor",
        "Average finish-time (s)", load_factors, profile, seed, algorithms,
        progress, **overrides,
    )


def fig8_efficiency_vs_load(
    load_factors: Iterable[int] = (1, 2, 3, 4, 5, 6, 7, 8),
    profile: ScaleProfile | str = ScaleProfile.SMALL,
    seed: int = 1,
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    progress=None,
    **overrides,
) -> FigureResult:
    """Fig. 8: converged AE as the per-node workflow count grows."""
    return _load_factor_sweep(
        "ae", "fig8", "Average Efficiency of Workflows under Different Load Factor",
        "Average efficiency", load_factors, profile, seed, algorithms,
        progress, **overrides,
    )


# --------------------------------------------------------------------------
# Fig. 9/10 — CCR sweep
# --------------------------------------------------------------------------

#: The paper's four (task-load range, data-size range) combinations.
CCR_CASES: list[tuple[str, tuple[float, float], tuple[float, float]]] = [
    ("load:10-1000 data:10-1000", (10.0, 1000.0), (10.0, 1000.0)),
    ("load:10-1000 data:100-10000", (10.0, 1000.0), (100.0, 10_000.0)),
    ("load:100-10000 data:10-1000", (100.0, 10_000.0), (10.0, 1000.0)),
    ("load:100-10000 data:100-10000", (100.0, 10_000.0), (100.0, 10_000.0)),
]


def _ccr_sweep(metric, figure, title, ylabel, profile, seed, algorithms,
               progress, **overrides):
    configs = [
        base_config(profile, seed=seed, **overrides).with_(
            load_range=loads, data_range=data
        )
        for _, loads, data in CCR_CASES
    ]
    return _sweep(
        figure, title, ylabel, [c[0] for c in CCR_CASES], configs, algorithms,
        metric, progress,
    )


def fig9_finish_time_vs_ccr(
    profile: ScaleProfile | str = ScaleProfile.SMALL,
    seed: int = 1,
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    progress=None,
    **overrides,
) -> FigureResult:
    """Fig. 9: converged ACT under the four CCR combinations."""
    return _ccr_sweep(
        "act", "fig9", "Average Finish-Time of Workflows under Different CCRs",
        "Average finish-time (s)", profile, seed, algorithms, progress, **overrides,
    )


def fig10_efficiency_vs_ccr(
    profile: ScaleProfile | str = ScaleProfile.SMALL,
    seed: int = 1,
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    progress=None,
    **overrides,
) -> FigureResult:
    """Fig. 10: converged AE under the four CCR combinations."""
    return _ccr_sweep(
        "ae", "fig10", "Average Efficiency of Workflows under Different CCRs",
        "Average efficiency", profile, seed, algorithms, progress, **overrides,
    )


# --------------------------------------------------------------------------
# Fig. 11 — scalability of DSMF
# --------------------------------------------------------------------------

def fig11_scalability(
    scales: Iterable[int] = (100, 200, 400, 600, 800, 1000),
    profile: ScaleProfile | str = ScaleProfile.SMALL,
    seed: int = 1,
    progress=None,
    **overrides,
) -> FigureResult:
    """Fig. 11: DSMF vs system scale — (a) nodes known per node via the
    mixed gossip protocol, (b) average efficiency, (c) average finish time.

    The ``small`` profile shrinks the default scale list; pass ``scales``
    explicitly (e.g. 200..2000) for the paper's x-axis.
    """
    if ScaleProfile(profile) is ScaleProfile.SMALL:
        scales = tuple(s for s in scales if s <= 400) or (100, 200)
    cats = [str(s) for s in scales]
    horizon = base_config(profile, seed=seed).total_time
    known: list[float] = []
    ae: list[float] = []
    act: list[float] = []
    for s in scales:
        params: dict = dict(
            algorithm="dsmf", n_nodes=int(s), seed=seed, total_time=horizon
        )
        params.update(overrides)
        r = _run(ExperimentConfig(**params))
        known.append(r.rss_mean)
        ae.append(r.ae)
        act.append(r.act)
        if progress is not None:
            progress(f"dsmf@n={s}", r)
    idx = [float(i) for i in range(len(cats))]
    return FigureResult(
        figure="fig11",
        title="System Scalability of DSMF",
        xlabel="system scale (n)",
        ylabel="(a) known nodes / (b) AE / (c) ACT",
        series={
            "known_nodes": (idx, known),
            "avg_efficiency": (idx, ae),
            "avg_finish_time": (idx, act),
        },
        categories=cats,
    )


# --------------------------------------------------------------------------
# Fig. 12/13/14 — churn
# --------------------------------------------------------------------------

def _churn_suite(profile, seed, dynamic_factors, progress, **overrides):
    results = {}
    for df in dynamic_factors:
        cfg = base_config(profile, seed=seed, **overrides).with_(
            algorithm="dsmf", dynamic_factor=df
        )
        label = f"dynamic factor={df:g}"
        results[label] = _run(cfg)
        if progress is not None:
            progress(label, results[label])
    return results


def fig12_churn_throughput(
    dynamic_factors: Iterable[float] = (0.0, 0.1, 0.2, 0.3, 0.4),
    profile: ScaleProfile | str = ScaleProfile.SMALL,
    seed: int = 1,
    results: dict[str, RunResult] | None = None,
    progress=None,
    **overrides,
) -> FigureResult:
    """Fig. 12: DSMF throughput over time under churn."""
    results = results or _churn_suite(profile, seed, dynamic_factors, progress, **overrides)
    return _series_figure(
        results, "throughput", "fig12",
        "Throughput of DSMF in Dynamic Environment", "# of workflows finished",
    )


def fig13_churn_finish_time(
    dynamic_factors: Iterable[float] = (0.0, 0.1, 0.2, 0.3, 0.4),
    profile: ScaleProfile | str = ScaleProfile.SMALL,
    seed: int = 1,
    results: dict[str, RunResult] | None = None,
    progress=None,
    **overrides,
) -> FigureResult:
    """Fig. 13: ACT of finished workflows over time under churn."""
    results = results or _churn_suite(profile, seed, dynamic_factors, progress, **overrides)
    return _series_figure(
        results, "act", "fig13",
        "Average Finish-Time of DSMF in Dynamic Environment",
        "Average finish-time (s)",
    )


def fig14_churn_efficiency(
    dynamic_factors: Iterable[float] = (0.0, 0.1, 0.2, 0.3, 0.4),
    profile: ScaleProfile | str = ScaleProfile.SMALL,
    seed: int = 1,
    results: dict[str, RunResult] | None = None,
    progress=None,
    **overrides,
) -> FigureResult:
    """Fig. 14: AE of finished workflows over time under churn."""
    results = results or _churn_suite(profile, seed, dynamic_factors, progress, **overrides)
    return _series_figure(
        results, "ae", "fig14",
        "Average Efficiency of DSMF in Dynamic Environment", "Average efficiency",
    )


# --------------------------------------------------------------------------
# Tables
# --------------------------------------------------------------------------

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


def table2_fcfs_ablation(
    profile: ScaleProfile | str = ScaleProfile.SMALL,
    seed: int = 1,
    bases: Sequence[str] = ("min-min", "max-min", "sufferage", "dheft"),
    progress=None,
    **overrides,
) -> FigureResult:
    """§IV.B prose ("Table II"): converged ACT with the heuristic second
    phase vs plain FCFS at resource nodes.

    The paper reports 31977/33495/30321/30728 (heuristic) vs
    32874/33746/32781/32636 (FCFS) — FCFS is consistently worse.
    """
    series: dict[str, tuple[list[float], list[float]]] = {
        "phase2-heuristic": ([], []),
        "phase2-fcfs": ([], []),
    }
    for i, b in enumerate(bases):
        for label, name in (("phase2-heuristic", b), ("phase2-fcfs", f"{b}-fcfs")):
            cfg = base_config(profile, seed=seed, **overrides).with_(algorithm=name)
            r = _run(cfg)
            series[label][0].append(float(i))
            series[label][1].append(r.act)
            if progress is not None:
                progress(name, r)
    return FigureResult(
        figure="table2",
        title="Second-phase scheduling vs FCFS (converged ACT)",
        xlabel="base heuristic",
        ylabel="Average finish-time (s)",
        series=series,
        categories=list(bases),
    )


#: Dispatch table used by the CLI: name -> harness.
FIGURES: dict[str, Callable[..., FigureResult]] = {
    "4": fig4_throughput,
    "5": fig5_finish_time,
    "6": fig6_efficiency,
    "7": fig7_finish_time_vs_load,
    "8": fig8_efficiency_vs_load,
    "9": fig9_finish_time_vs_ccr,
    "10": fig10_efficiency_vs_ccr,
    "11": fig11_scalability,
    "12": fig12_churn_throughput,
    "13": fig13_churn_finish_time,
    "14": fig14_churn_efficiency,
    "table2": table2_fcfs_ablation,
}
