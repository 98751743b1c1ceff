"""One request pipeline behind three doors.

The same campaign or sweep sent through ``repro campaign``/``repro
sweep``, :mod:`repro.api` and the service queue must resolve to the same
cells: the same labels and config hashes, in the same order.  Execution is
intercepted, so no simulation starts.  The rest covers what
:func:`~repro.experiments.request.execute` adds on top of the runners:
the journal and the expected-digest check.
"""

from __future__ import annotations

import time

import pytest

from repro.api import run_campaign, run_sweep
from repro.experiments.campaign import (
    CampaignError,
    CampaignResult,
    CampaignRun,
    CampaignRunner,
    config_hash,
)
from repro.experiments.cli import main
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import base_config
from repro.experiments.journal import RunJournal, request_identity
from repro.experiments.request import ManifestError, execute, resolve
from repro.metrics.collectors import RunResult
from repro.service.index import ExperimentIndex
from repro.service.queue import CampaignQueue


def _result(config) -> RunResult:
    """Analytic stand-in for a run: completion falls off past a capacity."""
    scale = config.workload_scale
    n_workflows = max(1, round(config.load_factor * config.n_nodes * scale))
    rate = 1.0 if scale <= 1.5 else max(0.0, 2.5 - scale)
    n_done = round(rate * n_workflows)
    return RunResult(
        algorithm=config.algorithm, seed=config.seed, n_nodes=config.n_nodes,
        n_workflows=n_workflows, total_time=config.total_time, act=900.0,
        ae=rate, n_done=n_done, n_failed=n_workflows - n_done,
        events_executed=5, wall_seconds=0.0, rss_mean=1.0, records=[], samples=[],
    )


@pytest.fixture
def cells(monkeypatch) -> list:
    """Intercept every runner: record each cell it is handed as
    ``(label, config hash)`` and answer it with :func:`_result`.  Keys a
    caller passes must be the cells' hashes."""
    seen: list = []

    def run(self, specs, keys=None):
        assert keys is None or list(keys) == [config_hash(s.config) for s in specs]
        runs = []
        for spec in specs:
            key = config_hash(spec.config)
            seen.append((spec.label, key))
            runs.append(CampaignRun(spec.label, spec.config, _result(spec.config), key, False, 0.0))
            if self.progress is not None:
                self.progress(runs[-1])
        return CampaignResult(runs, 0.0)

    monkeypatch.setattr(CampaignRunner, "run", run)
    return seen


def _through(seen: list, call) -> list:
    seen.clear()
    call()
    return list(seen)


def _queued(tmp_path, manifest: dict, kind: str) -> list:
    """Run a manifest through the service queue; its runs' cells."""
    index = ExperimentIndex(tmp_path / "experiments.jsonl")
    queue = CampaignQueue(cache_dir=tmp_path / "cache", index=index)
    queue.start()
    try:
        record = queue.submit(manifest, kind)
        deadline = time.monotonic() + 30.0
        while record["status"] not in ("done", "failed"):
            assert time.monotonic() < deadline, record
            record = queue.get(record["id"], wait=1.0, since=record["version"])
    finally:
        queue.stop()
        index.close()
    assert record["status"] == "done", record
    return [(run["label"], run["config_hash"]) for run in record["runs"]]


CAMPAIGNS = {
    # --profile paper resolves over ExperimentConfig(), the service's base.
    "paper-scenario-churn-recovery-set": (
        ["--profile", "paper", "--scenario", "weibull-sessions",
         "--churn-model", "correlated", "--recovery", "checkpoint",
         "--set", "n_nodes=30", "--set", "task_range=(2, 6)"],
        "paper",
        {"scenario": "weibull-sessions",
         "overrides": {"churn_model": "correlated", "recovery_policy": "checkpoint",
                       "n_nodes": 30, "task_range": [2, 6]}},
    ),
    # CI's smoke shape: --set overrides the small profile's scale.
    "small-ci-smoke": (
        ["--set", "n_nodes=40", "--set", "load_factor=1", "--set", "total_time=21600.0"],
        "small",
        {"overrides": {"n_nodes": 40, "load_factor": 1, "total_time": 21600.0}},
    ),
}


@pytest.mark.parametrize("case", sorted(CAMPAIGNS))
def test_one_campaign_three_doors(cells, tmp_path, capsys, case):
    flags, profile, request = CAMPAIGNS[case]
    manifest = {"algorithms": ["dsmf", "heft"], "seeds": [1, 2], **request}
    overrides = dict(manifest["overrides"])
    if "task_range" in overrides:
        overrides["task_range"] = tuple(overrides["task_range"])

    cli = _through(cells, lambda: main(
        ["campaign", "-a", "dsmf", "heft", "--seeds", "1", "2", "--no-cache",
         "--quiet", *flags]
    ))
    api = _through(cells, lambda: run_campaign(
        ["dsmf", "heft"], [1, 2], base=base_config(profile), use_cache=False,
        scenario=manifest.get("scenario"), **overrides,
    ))
    service = _queued(tmp_path, manifest, "campaign")
    assert [label for label, _ in cli] == ["dsmf#s1", "dsmf#s2", "heft#s1", "heft#s2"]
    assert cli == api == service


def test_one_sweep_three_doors(cells, tmp_path, capsys):
    scale = {"n_nodes": 20, "load_factor": 2, "total_time": 3600.0}
    manifest = {
        "scenarios": ["poisson-steady", "paper-fig4"], "algorithms": ["dsmf", "heft"],
        "seeds": [1], "overrides": scale, "resolution": 0.5, "max_scale": 4.0,
    }
    cli = _through(cells, lambda: main(
        ["sweep", "--profile", "paper", "--scenarios", "poisson-steady", "paper-fig4",
         "-a", "dsmf", "heft", "--seeds", "1", "--resolution", "0.5",
         "--max-scale", "4", "--no-cache", "--quiet",
         *(f"--set={k}={v}" for k, v in scale.items())]
    ))
    api = _through(cells, lambda: run_sweep(
        ["poisson-steady", "paper-fig4"], ["dsmf", "heft"], seeds=[1],
        base=base_config("paper"), resolution=0.5, max_scale=4.0,
        use_cache=False, **scale,
    ))
    service = _queued(tmp_path, manifest, "sweep")
    assert len(cli) > 4 and cli[0][0] == "poisson-steady/dsmf@x1#s1"
    assert cli == api == service


def test_campaign_identity_is_the_journaled_grid():
    """A campaign journal names its request by the ordered (label, config
    hash) grid, so journals written before the pipeline still resume."""
    request = resolve("campaign", {"algorithms": ["dsmf"], "seeds": [1, 2]}, base_config())
    cells = [(s.label, config_hash(s.config)) for s in request.specs]
    assert request.identity == request_identity("campaign", cells)


def test_a_config_that_cannot_be_hashed_is_refused():
    deep: list = []
    for _ in range(5000):
        deep = [deep]
    with pytest.raises(ManifestError) as excinfo:
        resolve("campaign", {"overrides": {"telemetry": deep}})
    assert excinfo.value.code == "invalid-overrides"


def test_execute_hashes_each_cell_once(tmp_path, monkeypatch):
    import repro.experiments.campaign as campaign

    hashed = []
    original = campaign.config_hash

    def counted(config):
        hashed.append(1)
        return original(config)

    monkeypatch.setattr(campaign, "config_hash", counted)
    manifest = {"algorithms": ["dsmf", "heft"], "overrides": {"n_nodes": 20}}
    for from_cache in (False, True):  # cache misses, then hits
        hashed.clear()
        outcome = execute(resolve("campaign", manifest), runner=_result, cache_dir=tmp_path)
        assert [run.from_cache for run in outcome] == [from_cache] * 2
        assert len(hashed) == 2


def test_resolve_validates_a_scenario_cell_twice(monkeypatch):
    manifest = {"scenario": "poisson-steady", "overrides": {"n_nodes": 20}}
    resolve("campaign", manifest)  # builds the shared default base
    validated = []
    original = ExperimentConfig.__post_init__

    def counted(self):
        validated.append(1)
        original(self)

    monkeypatch.setattr(ExperimentConfig, "__post_init__", counted)
    (spec,) = resolve("campaign", manifest).specs
    # Once for the scenario and overrides, once for the algorithm and seed.
    assert len(validated) == 2
    assert (spec.config.scenario, spec.config.n_nodes) == ("poisson-steady", 20)


def test_execute_journals_every_digest_and_the_fingerprint(cells, tmp_path):
    request = resolve("campaign", {"seeds": [1, 2]}, base_config())
    with RunJournal(tmp_path / "j.jsonl") as journal:
        journal.begin("campaign", request.identity, {})
        campaign = execute(request, journal=journal, use_cache=False)
    state = RunJournal.load(tmp_path / "j.jsonl")
    assert state.finished and state.fingerprint == campaign.fingerprint()
    assert state.done == {run.cache_key: run.digest() for run in campaign}


def test_execute_fails_a_cell_whose_digest_diverged(cells, tmp_path):
    request = resolve("campaign", {"seeds": [1, 2]}, base_config())
    expected = {request.keys[0]: "0" * 64}
    with RunJournal(tmp_path / "j.jsonl") as journal:
        journal.begin("campaign", request.identity, {})
        with pytest.raises(CampaignError, match="dsmf#s1.*diverged") as excinfo:
            execute(request, journal=journal, expected=expected, use_cache=False)
    assert [label for label, _ in excinfo.value.failures] == ["dsmf#s1"]
    state = RunJournal.load(tmp_path / "j.jsonl")
    # The matching cell is journaled; the diverged one and the finish are not.
    assert list(state.done) == [request.keys[1]] and not state.finished
