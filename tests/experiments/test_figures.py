"""Tests for the §IV registry (tiny scale: correctness of plumbing)."""

from __future__ import annotations

import pytest

from repro.experiments.campaign import CampaignRunner
from repro.experiments.cli import main
from repro.experiments.figures import (
    CCR_CASES,
    FIGURES,
    base_config,
    figure_cells,
    fold_figure,
    table1_settings,
)
from repro.metrics.collectors import RunResult

TINY = base_config(
    "small",
    seed=3,
    n_nodes=24,
    total_time=5 * 3600.0,
    load_factor=1,
    task_range=(2, 8),
)


def run(specs, runner=None):
    kw = {} if runner is None else {"runner": runner}
    return CampaignRunner(jobs=1, use_cache=False, **kw).run(specs).results()


def fake_runner(config):
    """Stands in for a simulation: a result shaped by the config alone."""
    return RunResult(
        algorithm=config.algorithm, seed=config.seed, n_nodes=config.n_nodes,
        n_workflows=config.n_nodes, total_time=config.total_time, act=100.0,
        ae=0.5, n_done=config.n_nodes, n_failed=0, events_executed=0,
        wall_seconds=0.0, rss_mean=float(config.n_nodes),
    )


@pytest.fixture(scope="module")
def suite():
    return run(figure_cells(FIGURES["4"], TINY, legend=("dsmf", "heft")))


def test_base_config_profiles():
    small = base_config("small")
    paper = base_config("paper")
    assert small.n_nodes < paper.n_nodes
    assert paper.n_nodes == 1000


def test_run_static_suite_runs_each_algorithm(suite):
    assert set(suite) == {"dsmf", "heft"}
    for r in suite.values():
        assert r.n_workflows == 24


def test_fig4_reuses_precomputed_results(suite):
    fig = fold_figure(FIGURES["4"], suite, legend=("dsmf", "heft"))
    assert fig.figure == "fig4"
    assert set(fig.series) == {"dsmf", "heft"}


def test_fig5_and_fig6_share_runs(suite):
    cells = [figure_cells(FIGURES[n], TINY, legend=("dsmf", "heft")) for n in "456"]
    assert cells[0] == cells[1] == cells[2]
    f5 = fold_figure(FIGURES["5"], suite, legend=("dsmf", "heft"))
    f6 = fold_figure(FIGURES["6"], suite, legend=("dsmf", "heft"))
    assert f5.ylabel != f6.ylabel
    assert set(f5.series) == set(f6.series)


def test_fig7_sweeps_load_factors():
    axes = dict(legend=("dsmf",), x=(1, 2))
    fig = fold_figure(FIGURES["7"], run(figure_cells(FIGURES["7"], TINY, **axes)), **axes)
    assert fig.categories == ["1", "2"]
    xs, ys = fig.series["dsmf"]
    assert len(ys) == 2


def test_fig11_reports_three_series():
    base = base_config("small", seed=3, total_time=4 * 3600.0)
    cells = figure_cells(FIGURES["11"], base, x=(20, 30))
    fig = fold_figure(FIGURES["11"], run(cells), x=(20, 30))
    assert set(fig.series) == {"known_nodes", "avg_efficiency", "avg_finish_time"}
    assert fig.categories == ["20", "30"]


def test_fig11_explicit_scales_run_as_given():
    """An explicit x axis is never shrunk by the ``small`` profile."""
    seen = []

    def runner(config):
        seen.append(config.n_nodes)
        return fake_runner(config)

    scales = (600, 800, 2000)
    cells = figure_cells(FIGURES["11"], base_config("small"), "small", x=scales)
    fig = fold_figure(FIGURES["11"], run(cells, runner), "small", x=scales)
    assert seen == [600, 800, 2000]
    assert fig.categories == ["600", "800", "2000"]
    assert fig.series["known_nodes"][1] == [600.0, 800.0, 2000.0]


def test_fig11_default_scales_follow_the_profile():
    def scales(profile):
        cells = figure_cells(FIGURES["11"], base_config(profile), profile)
        return [s.config.n_nodes for s in cells]

    assert scales("small") == [100, 200, 400]
    assert scales("medium") == scales("paper") == [100, 200, 400, 600, 800, 1000, 1400, 2000]


def test_fig12_churn_series():
    fig = fold_figure(
        FIGURES["12"],
        run(figure_cells(FIGURES["12"], TINY, legend=(0.0, 0.2))),
        legend=(0.0, 0.2),
    )
    assert set(fig.series) == {"dynamic factor=0", "dynamic factor=0.2"}


def test_table2_pairs_heuristic_and_fcfs():
    cells = figure_cells(FIGURES["table2"], TINY, x=("min-min",))
    assert [s.config.algorithm for s in cells] == ["min-min", "min-min-fcfs"]
    fig = fold_figure(FIGURES["table2"], run(cells), x=("min-min",))
    assert set(fig.series) == {"phase2-heuristic", "phase2-fcfs"}
    assert fig.categories == ["min-min"]


def test_table2_categories_include_dsmf():
    """DSMF's own second phase is the record's decisive Table II row."""
    cells = figure_cells(FIGURES["table2"], base_config("small"))
    fig = fold_figure(FIGURES["table2"], run(cells, fake_runner))
    assert "dsmf" in fig.categories
    assert {"dsmf", "dsmf-fcfs"} <= {s.config.algorithm for s in cells}


def test_table1_covers_every_table_row():
    rows = dict(table1_settings())
    for key in ("# of nodes", "# of tasks per workflow", "network bandwidth",
                "node capacity", "CCR"):
        assert key in rows


def test_figure_result_helpers(suite):
    fig = fold_figure(FIGURES["4"], suite, legend=("dsmf", "heft"))
    finals = fig.final_values()
    assert set(finals) == {"dsmf", "heft"}
    rows = fig.as_rows()
    assert all(len(r) == 3 for r in rows)


def test_ccr_cases_match_paper():
    assert len(CCR_CASES) == 4
    names = [c[0] for c in CCR_CASES]
    assert names[0] == "load:10-1000 data:10-1000"


def test_figures_registry_covers_4_to_14():
    for key in [str(k) for k in range(4, 15)] + ["table2"]:
        assert key in FIGURES


def test_progress_callback_invoked(monkeypatch, capsys):
    """``repro figure`` reports each run on stderr as it finishes."""
    class FakeSystem:
        def __init__(self, config):
            self.config = config

        def run(self):
            return fake_runner(self.config)

    monkeypatch.setattr("repro.grid.system.P2PGridSystem", FakeSystem)
    assert main(["figure", "12"]) == 0
    err = capsys.readouterr().err
    assert [line.split("]")[0] for line in err.splitlines()] == [
        f"  [dynamic factor={df:g}" for df in (0.0, 0.1, 0.2, 0.3, 0.4)
    ]
