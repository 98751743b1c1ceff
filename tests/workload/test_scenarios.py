"""Tests for the scenario registry."""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.workload.scenarios import (
    apply_scenario,
    get_scenario,
    register_scenario,
    scenario_names,
)


def test_builtin_presets_registered():
    names = scenario_names()
    for expected in (
        "paper-fig4", "poisson-steady", "burst-storm", "diurnal-week",
        "structured-mix", "montage-stream", "synthetic-heavytail",
        "imported-dag", "trace-replay",
    ):
        assert expected in names


def test_paper_default_scenario_has_no_overrides():
    """`paper-fig4` must be exactly the seed configuration."""
    assert dict(get_scenario("paper-fig4").overrides) == {}
    cfg = apply_scenario(ExperimentConfig(), "paper-fig4")
    assert cfg == ExperimentConfig(scenario="paper-fig4")


def test_apply_scenario_stamps_name_and_overrides():
    cfg = apply_scenario(ExperimentConfig(), "poisson-steady")
    assert cfg.scenario == "poisson-steady"
    assert cfg.arrival_process == "poisson"
    # Untouched fields keep their defaults.
    assert cfg.workload_source == "table1"
    assert cfg.n_nodes == ExperimentConfig().n_nodes


def test_apply_scenario_overrides_win_over_the_preset():
    base = ExperimentConfig(n_nodes=20)
    cfg = apply_scenario(base, "burst-storm", burst_on=60.0, load_factor=2)
    assert cfg == apply_scenario(base, "burst-storm").with_(burst_on=60.0, load_factor=2)
    assert (cfg.scenario, cfg.burst_on, cfg.burst_off) == ("burst-storm", 60.0, 5400.0)


def test_every_preset_produces_a_valid_config():
    base = ExperimentConfig(n_nodes=20, load_factor=1)
    for name in scenario_names():
        cfg = apply_scenario(base, name)
        assert cfg.scenario == name


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown scenario"):
        get_scenario("nope")
    with pytest.raises(ValueError, match="unknown scenario"):
        ExperimentConfig(scenario="nope")


def test_register_rejects_duplicates_and_reserved_fields():
    with pytest.raises(ValueError, match="already registered"):
        register_scenario("paper-fig4", "dupe")
    with pytest.raises(ValueError, match="cannot set"):
        register_scenario("bad-preset", "reserved", seed=3)


def test_scenario_overrides_are_read_only():
    sc = get_scenario("burst-storm")
    with pytest.raises(TypeError):
        sc.overrides["burst_on"] = 1.0  # type: ignore[index]


def test_provenance_distinguishes_synthetic_from_imported():
    assert get_scenario("paper-fig4").provenance == "synthetic"
    assert get_scenario("poisson-steady").provenance == "synthetic"
    assert get_scenario("imported-dag").provenance == "imported-dag"
    assert get_scenario("trace-replay").provenance == "trace-replay"
    assert get_scenario("gwa-replay-small").provenance == "trace-replay"
    assert get_scenario("pwa-replay-small").provenance == "trace-replay"
    assert get_scenario("fta-churn-small").provenance == "trace-churn"
    assert get_scenario("trace-churn").provenance == "trace-churn"
