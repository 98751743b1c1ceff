"""Tests for the top-level convenience API."""

from __future__ import annotations

import pytest

import repro
import repro.api
from repro import available_algorithms, available_scenarios, quick_run, run_experiment
from repro.experiments.config import ExperimentConfig


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_package_reexports_the_whole_api():
    for name in repro.api.__all__:
        assert name in repro.__all__
        assert getattr(repro, name) is getattr(repro.api, name)


def test_available_algorithms_contains_paper_set():
    names = available_algorithms()
    for alg in ("dsmf", "heft", "smf", "min-min", "max-min", "sufferage",
                "dheft", "dsdf"):
        assert alg in names


def test_quick_run_smoke():
    r = quick_run(algorithm="dsmf", n_nodes=24, load_factor=1,
                  duration_hours=4, seed=2, task_range=(2, 6))
    assert r.algorithm == "dsmf"
    assert r.n_workflows == 24
    assert r.n_done > 0


def test_quick_run_forwards_overrides():
    r = quick_run(n_nodes=24, load_factor=1, duration_hours=4, seed=2,
                  rss_mode="oracle", task_range=(2, 6))
    assert r.config["rss_mode"] == "oracle"


def test_quick_run_rejects_bad_algorithm():
    with pytest.raises(ValueError):
        quick_run(algorithm="bogus", n_nodes=24)


def test_available_scenarios_contains_presets():
    names = available_scenarios()
    assert "paper-fig4" in names
    assert "poisson-steady" in names


def test_quick_run_with_scenario():
    r = quick_run(n_nodes=24, load_factor=1, duration_hours=6, seed=2,
                  task_range=(2, 6), scenario="poisson-steady")
    assert r.config["scenario"] == "poisson-steady"
    assert r.config["arrival_process"] == "poisson"
    assert r.n_done > 0


def test_quick_run_explicit_args_win_over_scenario():
    # diurnal-week sets total_time to a week; the explicit duration wins.
    r = quick_run(n_nodes=24, load_factor=1, duration_hours=6, seed=2,
                  task_range=(2, 6), scenario="diurnal-week")
    assert r.total_time == 6 * 3600.0
    assert r.config["arrival_process"] == "diurnal"


def test_quick_run_omitted_args_yield_to_scenario():
    """Omitting duration_hours lets the preset's week-long total_time
    through (regression: argparse/API defaults used to shadow it)."""
    r = quick_run(n_nodes=24, load_factor=1, seed=2, task_range=(2, 6),
                  scenario="diurnal-week")
    assert r.total_time == 7 * 86400.0
    assert max(rec.submit_time for rec in r.records) > 24 * 3600.0


def test_quick_run_rejects_bad_scenario():
    with pytest.raises(ValueError, match="unknown scenario"):
        quick_run(n_nodes=24, scenario="nope")


def test_run_campaign_scenario_paper_default_is_bit_identical(tmp_path):
    """`paper-fig4` and the plain config yield identical fingerprints."""
    from repro import run_campaign

    kw = dict(
        algorithms=["dsmf", "dheft"], seeds=[1, 2], use_cache=False,
        n_nodes=24, load_factor=1, total_time=4 * 3600.0, task_range=(2, 6),
    )
    plain = run_campaign(**kw)
    preset = run_campaign(scenario="paper-fig4", **kw)
    assert preset.fingerprint() == plain.fingerprint()


def test_run_experiment_with_config():
    cfg = ExperimentConfig(n_nodes=24, load_factor=1, total_time=4 * 3600.0,
                           seed=2, task_range=(2, 6))
    r = run_experiment(cfg)
    assert r.n_workflows == 24
