"""Tests for the campaign layer: caching, hashing, determinism, failures."""

from __future__ import annotations

import os
import pickle
from pathlib import Path

import pytest

from repro.experiments.campaign import (
    CampaignError,
    CampaignRunner,
    RunSpec,
    config_hash,
    result_digest,
    sweep_specs,
)
from repro.experiments.config import ExperimentConfig

#: Small enough for sub-second runs; non-trivial enough to exercise the
#: full pipeline (multi-hour horizon, several workflows per node).
TINY = dict(
    n_nodes=24,
    load_factor=1,
    total_time=4 * 3600.0,
    task_range=(2, 10),
)


def tiny_config(**overrides) -> ExperimentConfig:
    return ExperimentConfig(**{**TINY, **overrides})


def tiny_specs(algorithms=("dsmf", "dheft"), seeds=(1, 2)) -> list[RunSpec]:
    return sweep_specs(algorithms, seeds, base=tiny_config())


# --------------------------------------------------------------------------
# Config hashing
# --------------------------------------------------------------------------

class TestConfigHash:
    def test_stable_across_key_ordering(self):
        cfg = tiny_config()
        spec = cfg.describe()
        shuffled = dict(reversed(list(spec.items())))
        assert list(shuffled) != list(spec)
        assert config_hash(spec) == config_hash(shuffled) == config_hash(cfg)

    def test_stable_across_processes(self):
        # No PYTHONHASHSEED dependence: the digest is content-derived.
        import subprocess
        import sys

        code = (
            "from repro.experiments.campaign import config_hash;"
            "from repro.experiments.config import ExperimentConfig;"
            f"print(config_hash(ExperimentConfig(**{TINY!r})))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        ).stdout.strip()
        assert out == config_hash(tiny_config())

    def test_distinct_configs_distinct_hashes(self):
        assert config_hash(tiny_config(seed=1)) != config_hash(tiny_config(seed=2))
        assert config_hash(tiny_config(algorithm="dsmf")) != config_hash(
            tiny_config(algorithm="dheft")
        )

    def test_workload_path_contents_change_the_hash(self, tmp_path):
        """Editing a referenced DAG/trace file must invalidate the cache
        entry, not silently replay stale results."""
        from repro.workflow.generator import chain_workflow, diamond_workflow
        from repro.workflow.io import save_workflow

        path = tmp_path / "dag.json"
        save_workflow(diamond_workflow("d"), path)
        cfg = tiny_config(workload_source="imported", workload_path=str(path))
        before = config_hash(cfg)
        assert before == config_hash(cfg)  # deterministic
        save_workflow(chain_workflow("d", 3), path)  # edit in place
        assert config_hash(cfg) != before
        # Missing file still hashes (the run reports the real error).
        missing = tiny_config(
            workload_source="imported", workload_path=str(tmp_path / "nope.json")
        )
        assert config_hash(missing) != before


# --------------------------------------------------------------------------
# Sweep construction
# --------------------------------------------------------------------------

class TestSweepSpecs:
    def test_grid_dimensions_and_labels(self):
        specs = sweep_specs(
            ["dsmf", "dheft"], [1, 2, 3], base=tiny_config(),
            variants={"static": {}, "churn": {"dynamic_factor": 0.2}},
        )
        assert len(specs) == 2 * 3 * 2
        labels = [s.label for s in specs]
        assert len(set(labels)) == len(labels)
        assert "dsmf@churn#s2" in labels
        churn = next(s for s in specs if s.label == "dsmf@churn#s2")
        assert churn.config.dynamic_factor == 0.2
        assert churn.config.seed == 2

    def test_common_overrides_apply_everywhere(self):
        specs = sweep_specs(["dsmf"], [1], base=tiny_config(), n_nodes=30)
        assert specs[0].config.n_nodes == 30

    def test_duplicate_cells_rejected(self):
        with pytest.raises(ValueError, match="duplicate sweep cell"):
            sweep_specs(["dsmf"], [1, 1], base=tiny_config())
        with pytest.raises(ValueError, match="duplicate sweep cell"):
            sweep_specs(["dsmf", "dsmf"], [1], base=tiny_config())


# --------------------------------------------------------------------------
# Caching
# --------------------------------------------------------------------------

class TestCache:
    def test_miss_then_hit(self, tmp_path):
        specs = tiny_specs(algorithms=("dsmf",), seeds=(1,))
        runner = CampaignRunner(jobs=1, cache_dir=tmp_path)

        cold = runner.run(specs)
        assert cold.n_cached == 0
        assert not cold.runs[0].from_cache
        assert cold.runs[0].result.n_done > 0

        warm = runner.run(specs)
        assert warm.n_cached == 1
        assert warm.runs[0].from_cache
        assert warm.fingerprint() == cold.fingerprint()
        assert warm.wall_seconds < cold.wall_seconds

    def test_no_cache_never_reads_or_writes(self, tmp_path):
        specs = tiny_specs(algorithms=("dsmf",), seeds=(1,))
        runner = CampaignRunner(jobs=1, cache_dir=tmp_path, use_cache=False)
        runner.run(specs)
        assert list(tmp_path.iterdir()) == []
        again = runner.run(specs)
        assert again.n_cached == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        specs = tiny_specs(algorithms=("dsmf",), seeds=(1,))
        runner = CampaignRunner(jobs=1, cache_dir=tmp_path)
        first = runner.run(specs)
        path = runner._cache_path(first.runs[0].cache_key)
        path.write_bytes(b"not a pickle")
        with pytest.warns(RuntimeWarning, match="quarantined corrupt cache entry"):
            recovered = runner.run(specs)
        assert recovered.n_cached == 0
        assert recovered.fingerprint() == first.fingerprint()
        # ... and the fresh result replaced the corrupt entry.
        assert isinstance(pickle.loads(path.read_bytes()), object)
        assert runner.run(specs).n_cached == 1

    def test_duplicate_specs_run_once(self, tmp_path):
        spec = tiny_specs(algorithms=("dsmf",), seeds=(1,))[0]
        twice = [spec, RunSpec("again", spec.config)]
        campaign = CampaignRunner(jobs=1, cache_dir=tmp_path).run(twice)
        assert len(campaign) == 2
        assert campaign.runs[0].result is campaign.runs[1].result


# --------------------------------------------------------------------------
# Determinism across worker counts
# --------------------------------------------------------------------------

class TestDeterminism:
    def test_jobs1_vs_jobs4_identical(self):
        specs = tiny_specs()
        serial = CampaignRunner(jobs=1, use_cache=False).run(specs)
        parallel = CampaignRunner(jobs=4, use_cache=False).run(specs)
        assert serial.fingerprint() == parallel.fingerprint()
        for a, b in zip(serial.runs, parallel.runs):
            assert a.label == b.label
            assert result_digest(a.result) == result_digest(b.result)
            assert a.result.act == b.result.act
            assert a.result.n_done == b.result.n_done

    def test_spawn_context_identical(self):
        # Explicit spawn proves workers need nothing from the parent's
        # memory (fresh interpreter, pickled frozen configs only).
        specs = tiny_specs(algorithms=("dsmf",), seeds=(1, 2))
        serial = CampaignRunner(jobs=1, use_cache=False).run(specs)
        spawned = CampaignRunner(
            jobs=2, use_cache=False, mp_context="spawn"
        ).run(specs)
        assert serial.fingerprint() == spawned.fingerprint()

    def test_cache_hit_is_bit_identical_to_fresh(self, tmp_path):
        specs = tiny_specs(algorithms=("dsmf",), seeds=(1,))
        fresh = CampaignRunner(jobs=1, use_cache=False).run(specs)
        CampaignRunner(jobs=1, cache_dir=tmp_path).run(specs)
        cached = CampaignRunner(jobs=1, cache_dir=tmp_path).run(specs)
        assert cached.n_cached == 1
        assert cached.fingerprint() == fresh.fingerprint()


# --------------------------------------------------------------------------
# Failure handling
# --------------------------------------------------------------------------

def _boom(config):
    raise RuntimeError(f"worker exploded on seed {config.seed}")


class TestFailures:
    def test_inline_crash_surfaces_as_campaign_error(self):
        specs = tiny_specs(algorithms=("dsmf",), seeds=(1, 2))
        runner = CampaignRunner(jobs=1, use_cache=False, runner=_boom)
        with pytest.raises(CampaignError) as err:
            runner.run(specs)
        assert len(err.value.failures) == 2
        assert "dsmf#s1" in str(err.value)
        assert "worker exploded" in str(err.value)

    def test_worker_crash_surfaces_as_campaign_error(self):
        # fork context so the test-module-level _boom is picklable by
        # reference without this file being importable in a fresh child.
        specs = tiny_specs(algorithms=("dsmf",), seeds=(1, 2))
        runner = CampaignRunner(
            jobs=2, use_cache=False, runner=_boom, mp_context="fork"
        )
        with pytest.raises(CampaignError) as err:
            runner.run(specs)
        assert len(err.value.failures) == 2
        assert "worker exploded" in str(err.value)

    def test_failed_runs_write_no_cache_entries(self, tmp_path):
        specs = tiny_specs(algorithms=("dsmf",), seeds=(1,))
        runner = CampaignRunner(jobs=1, cache_dir=tmp_path, runner=_boom)
        with pytest.raises(CampaignError):
            runner.run(specs)
        assert list(tmp_path.iterdir()) == []

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            CampaignRunner(jobs=0)

    def test_retry_knobs_validated(self):
        with pytest.raises(ValueError):
            CampaignRunner(max_retries=-1)
        with pytest.raises(ValueError):
            CampaignRunner(retry_backoff=-0.1)


# --------------------------------------------------------------------------
# Worker-process death (BrokenProcessPool) and retry recovery
# --------------------------------------------------------------------------

def _exit_hard(config):
    # A worker-process death mid-run (the stand-in for an OOM kill):
    # poisons the whole pool, not just this future.
    os._exit(86)


def _exit_once(config):
    """Die the first time each seed is attempted, succeed on the retry.

    Cross-process state via marker files (workers are fresh processes);
    the parent points REPRO_TEST_DIE_ONCE at a tmp dir before forking.
    """
    from repro.experiments.campaign import _default_runner

    marker = Path(os.environ["REPRO_TEST_DIE_ONCE"]) / f"s{config.seed}"
    try:
        marker.touch(exist_ok=False)
    except FileExistsError:
        return _default_runner(config)
    os._exit(86)


class TestPoolCrashes:
    def test_pool_death_fails_fast_without_retries(self):
        specs = tiny_specs(algorithms=("dsmf",), seeds=(1, 2))
        runner = CampaignRunner(
            jobs=2, use_cache=False, runner=_exit_hard,
            mp_context="fork", max_retries=0,
        )
        with pytest.raises(CampaignError) as err:
            runner.run(specs)
        assert "BrokenProcessPool" in str(err.value)
        assert runner.stats.get("campaign.retries", 0) == 0

    def test_pool_death_exhausts_retries(self):
        specs = tiny_specs(algorithms=("dsmf",), seeds=(1, 2))
        runner = CampaignRunner(
            jobs=2, use_cache=False, runner=_exit_hard,
            mp_context="fork", max_retries=1, retry_backoff=0.0,
        )
        with pytest.raises(CampaignError) as err:
            runner.run(specs)
        # Both cells failed after a retry round on a rebuilt pool.
        assert len(err.value.failures) == 2
        assert runner.stats["campaign.pool_rebuilds"] >= 1
        assert runner.stats["campaign.retries"] >= 1

    def test_pool_death_retry_recovers(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_DIE_ONCE", str(tmp_path))
        specs = tiny_specs(algorithms=("dsmf",), seeds=(1, 2))
        clean = CampaignRunner(jobs=1, use_cache=False).run(specs)
        crashed = CampaignRunner(
            jobs=2, use_cache=False, runner=_exit_once,
            mp_context="fork", max_retries=2, retry_backoff=0.0,
        ).run(specs)
        # Identical results despite every cell's first attempt dying.
        assert crashed.fingerprint() == clean.fingerprint()
        assert all(run.attempts >= 2 for run in crashed.runs)
        assert crashed.stats["campaign.retries"] >= 2
        assert crashed.stats["campaign.pool_rebuilds"] >= 1


# --------------------------------------------------------------------------
# Progress reporting
# --------------------------------------------------------------------------

def test_progress_callback_sees_every_run(tmp_path):
    specs = tiny_specs(algorithms=("dsmf",), seeds=(1, 2))
    seen: list[tuple[str, bool]] = []
    runner = CampaignRunner(
        jobs=1, cache_dir=tmp_path,
        progress=lambda run: seen.append((run.label, run.from_cache)),
    )
    runner.run(specs)
    assert sorted(label for label, _ in seen) == ["dsmf#s1", "dsmf#s2"]
    assert all(not cached for _, cached in seen)
    seen.clear()
    runner.run(specs)
    assert all(cached for _, cached in seen)


def test_api_run_campaign_wrapper(tmp_path):
    from repro.api import run_campaign

    campaign = run_campaign(
        algorithms=("dsmf",), seeds=(1,), jobs=1, cache_dir=tmp_path, **TINY
    )
    assert len(campaign) == 1
    assert campaign.runs[0].result.algorithm == "dsmf"
    assert run_campaign(
        algorithms=("dsmf",), seeds=(1,), jobs=1, cache_dir=tmp_path, **TINY
    ).n_cached == 1
