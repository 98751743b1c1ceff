"""Tests for the adaptive capacity sweep driver.

The bisection logic is exercised against a synthetic runner whose
completion rate is an analytic function of ``workload_scale`` — each
heuristic gets a known capacity, so the saturation point the search finds
can be checked against the ground truth without running simulations.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.request import execute, resolve
from repro.experiments.sweep import (
    MIN_SCALE,
    SWEEP_SCHEMA,
    SweepError,
    SweepSettings,
    format_envelope,
    validate_envelope,
)
from repro.metrics.collectors import RunResult

#: Ground-truth capacity per algorithm: completion is perfect up to this
#: scale and degrades linearly beyond it (rate = 1 - (scale - cap)).
CAPACITY = {"dsmf": 2.6, "dheft": 1.9, "heft": 0.4, "smf": 31.0}


def fake_runner(config: ExperimentConfig) -> RunResult:
    """Analytic stand-in for a simulation: completion driven by scale."""
    cap = CAPACITY[config.algorithm]
    scale = config.workload_scale
    rate = 1.0 if scale <= cap else max(0.0, 1.0 - (scale - cap))
    n_workflows = max(1, round(config.load_factor * config.n_nodes * scale))
    n_done = round(rate * n_workflows)
    return RunResult(
        algorithm=config.algorithm, seed=config.seed, n_nodes=config.n_nodes,
        n_workflows=n_workflows, total_time=config.total_time,
        act=1000.0 + scale, ae=rate, n_done=n_done,
        n_failed=n_workflows - n_done, events_executed=10, wall_seconds=0.0,
        rss_mean=1.0, records=[], samples=[],
    )


def sweep(
    cache_dir=None,
    scenarios=("paper-fig4",),
    algorithms=("dsmf",),
    base=ExperimentConfig(n_nodes=20, load_factor=2, total_time=3600.0),
    settings=SweepSettings(resolution=0.25, max_scale=8.0),
    runner=fake_runner,
    progress=None,
):
    """Resolve a sweep manifest over ``base``, then execute it on ``runner``."""
    manifest = {
        "scenarios": list(scenarios),
        "algorithms": list(algorithms),
        "seeds": list(settings.seeds),
        "threshold": settings.threshold,
        "resolution": settings.resolution,
        "max_scale": settings.max_scale,
    }
    return execute(
        resolve("sweep", manifest, base),
        probe_progress=progress,
        runner=runner,
        cache_dir=cache_dir,
        use_cache=cache_dir is not None,
    )


def cell(report, scenario=0, algorithm="dsmf"):
    return report["scenarios"][scenario]["heuristics"][algorithm]


class TestBisection:
    def test_saturation_within_resolution_of_ground_truth(self):
        report = sweep(algorithms=["dsmf", "dheft"])
        for alg in ("dsmf", "dheft"):
            c = cell(report, algorithm=alg)
            # Pass iff rate >= 0.95 iff scale <= cap + 0.05; the largest
            # passing probe sits within one resolution step below that.
            flip = CAPACITY[alg] + 0.05
            assert not c["censored"]
            assert flip - 0.25 <= c["saturation_scale"] <= flip
            # Saturation beats the paper's nominal rate for both.
            assert c["saturation_scale"] > 1.0

    def test_downward_search_when_nominal_rate_fails(self):
        c = cell(sweep(algorithms=["heft"]), algorithm="heft")
        assert not c["censored"]
        assert 0.0 < c["saturation_scale"] < 1.0
        scales = [p["scale"] for p in c["probes"]]
        assert 1.0 in scales and 0.5 in scales  # halving phase ran

    def test_censored_above_max_scale(self):
        c = cell(sweep(algorithms=["smf"]), algorithm="smf")
        assert c["censored"]
        assert c["saturation_scale"] == pytest.approx(8.0)
        assert all(p["passed"] for p in c["probes"])

    def test_censored_below_min_scale(self):
        base = ExperimentConfig(n_nodes=20, load_factor=2, total_time=3600.0)

        def hopeless(config):
            r = fake_runner(config)
            return RunResult(**{**r.__dict__, "n_done": 0, "n_failed": r.n_workflows})

        c = cell(sweep(base=base, runner=hopeless))
        assert c["censored"]
        assert c["saturation_scale"] == 0.0
        assert min(p["scale"] for p in c["probes"]) == pytest.approx(MIN_SCALE)

    def test_probe_scales_never_repeat_within_a_cell(self):
        for alg in CAPACITY:
            c = cell(sweep(algorithms=[alg]), algorithm=alg)
            scales = [p["scale"] for p in c["probes"]]
            assert len(scales) == len(set(scales))

    def test_multi_seed_probes_average_the_completion_rate(self):
        report = sweep(settings=SweepSettings(seeds=(1, 2, 3), resolution=0.25))
        c = cell(report)
        assert report["seeds"] == [1, 2, 3]
        # Every probe aggregated all three seeds' workflows.
        one_seed = max(1, round(2 * 20 * 1.0))
        probe = next(p for p in c["probes"] if p["scale"] == 1.0)
        assert probe["n_workflows"] == 3 * one_seed


class TestCaching:
    def test_second_sweep_is_fully_cache_served(self, tmp_path):
        first = sweep(cache_dir=tmp_path, algorithms=["dsmf", "heft"])
        replay = sweep(cache_dir=tmp_path, algorithms=["dsmf", "heft"])
        for alg in ("dsmf", "heft"):
            assert cell(first, algorithm=alg)["n_cached"] == 0
            c = cell(replay, algorithm=alg)
            assert c["n_cached"] == c["n_probes"]
            assert all(p["from_cache"] for p in c["probes"])
        # Identical search path either way.
        assert [p["scale"] for p in cell(first)["probes"]] == [
            p["scale"] for p in cell(replay)["probes"]
        ]

    def test_overlapping_sweep_shares_cached_probes(self, tmp_path):
        sweep(cache_dir=tmp_path)
        # A finer resolution revisits every coarse probe from cache.
        fine = sweep(
            cache_dir=tmp_path,
            settings=SweepSettings(resolution=0.0625, max_scale=8.0),
        )
        c = cell(fine)
        assert c["n_cached"] >= cell(sweep(cache_dir=None))["n_probes"] - 1
        assert c["n_probes"] > c["n_cached"]  # the finer mids ran fresh


class TestReportShape:
    def test_schema_and_derived_fields(self):
        report = sweep()
        assert report["schema"] == SWEEP_SCHEMA
        assert report["kind"] == "capacity-envelope"
        assert report["criterion"] == {
            "metric": "completion_rate", "threshold": 0.95,
        }
        assert validate_envelope(report) == []
        entry = report["scenarios"][0]
        assert entry["name"] == "paper-fig4"
        assert entry["nominal_workflows"] == 40
        c = cell(report)
        assert c["saturation_workflows"] == round(40 * c["saturation_scale"])
        assert c["saturation_workflows_per_hour"] == pytest.approx(
            c["saturation_workflows"] / (3600.0 / 3600.0)
        )

    def test_probes_sorted_by_scale(self):
        c = cell(sweep())
        scales = [p["scale"] for p in c["probes"]]
        assert scales == sorted(scales)

    def test_format_envelope_ranks_heuristics(self):
        table = format_envelope(sweep(algorithms=["heft", "dsmf"]))
        assert table.index("dsmf") < table.index("heft")  # higher capacity first
        assert "saturation" in table

    def test_format_envelope_marks_censored_cells(self):
        assert ">= max" in format_envelope(sweep(algorithms=["smf"]))

    def test_validate_envelope_flags_broken_reports(self):
        assert validate_envelope({"schema": 99}) != []
        report = sweep()
        cell(report)["probes"] = []
        assert any("no probes" in p for p in validate_envelope(report))


class TestValidation:
    def test_trace_replay_scenarios_are_rejected(self):
        with pytest.raises(SweepError, match="trace"):
            sweep(scenarios=["gwa-replay-small"])

    def test_settings_bounds(self):
        with pytest.raises(SweepError):
            SweepSettings(threshold=0.0)
        with pytest.raises(SweepError):
            SweepSettings(threshold=1.5)
        with pytest.raises(SweepError):
            SweepSettings(resolution=0.0)
        with pytest.raises(SweepError):
            SweepSettings(max_scale=0.5)
        with pytest.raises(SweepError):
            SweepSettings(seeds=())

    def test_empty_request_rejected(self):
        with pytest.raises(SweepError):
            sweep(scenarios=[])
        with pytest.raises(SweepError):
            sweep(algorithms=[])
        with pytest.raises(SweepError, match="duplicate"):
            sweep(algorithms=["dsmf", "dsmf"])

    def test_unknown_scenario_raises(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            sweep(scenarios=["no-such-scenario"])

    def test_progress_callback_sees_every_probe(self):
        seen = []
        report = sweep(progress=lambda sc, alg, p: seen.append((sc, alg, p.scale)))
        assert len(seen) == cell(report)["n_probes"]
        assert all(sc == "paper-fig4" and alg == "dsmf" for sc, alg, _ in seen)
