"""End-to-end and validation tests for ``POST /sweeps``.

The live-server tests inject an analytic runner (completion rate as a
function of ``workload_scale``) so a full adaptive search finishes in
milliseconds while exercising the real queue/HTTP/report plumbing.
"""

from __future__ import annotations

import threading

import pytest

from repro.experiments.sweep import validate_envelope
from repro.metrics.collectors import RunResult
from repro.service.app import build_server
from repro.service.client import ServiceClient, ServiceError
from repro.service.schemas import ManifestError, admit

#: dsmf saturates at 1.5x nominal, heft below nominal — both search
#: directions are exercised in one sweep.
CAPACITY = {"dsmf": 1.5, "dheft": 1.5, "heft": 0.6, "smf": 0.6}

SWEEP_MANIFEST = {
    "scenarios": ["paper-fig4"],
    "algorithms": ["dsmf", "heft"],
    "seeds": [1],
    "overrides": {"n_nodes": 20, "load_factor": 2, "total_time": 3600.0},
    "resolution": 0.5,
    "max_scale": 4.0,
}


def analytic_runner(config) -> RunResult:
    cap = CAPACITY[config.algorithm]
    scale = config.workload_scale
    rate = 1.0 if scale <= cap else max(0.0, 1.0 - (scale - cap))
    n_workflows = max(1, round(config.load_factor * config.n_nodes * scale))
    n_done = round(rate * n_workflows)
    return RunResult(
        algorithm=config.algorithm, seed=config.seed, n_nodes=config.n_nodes,
        n_workflows=n_workflows, total_time=config.total_time,
        act=900.0, ae=rate, n_done=n_done, n_failed=n_workflows - n_done,
        events_executed=5, wall_seconds=0.0, rss_mean=1.0,
        records=[], samples=[],
    )


@pytest.fixture
def sweep_service(tmp_path):
    server = build_server(
        port=0, cache_dir=tmp_path / "cache", jobs=1, runner=analytic_runner
    )
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}", timeout=15.0)
    try:
        yield server, client
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        server.state.close()
        thread.join(5)


def test_submit_poll_report_and_cache_replay(sweep_service):
    _, client = sweep_service
    record = client.submit_sweep(SWEEP_MANIFEST)
    assert record["kind"] == "sweep"
    assert record["status"] in ("queued", "running")
    assert record["url"] == f"/campaigns/{record['id']}"
    assert record["progress"]["total"] == 0  # probes are chosen adaptively

    record = client.wait(record["id"], timeout=60)
    assert record["status"] == "done"
    assert record["error"] is None
    assert validate_envelope(record["report"]) == []
    cells = record["report"]["scenarios"][0]["heuristics"]
    assert cells["dsmf"]["saturation_scale"] > 1.0  # bisected upward
    assert 0.0 < cells["heft"]["saturation_scale"] < 1.0  # bisected downward
    # Every probe surfaced as a completed run with its real config hash.
    assert record["runs"] and all(r["status"] == "done" for r in record["runs"])
    assert record["progress"]["completed"] == len(record["runs"])
    assert all(r["label"].startswith("paper-fig4/") for r in record["runs"])
    result = client.result(record["runs"][0]["config_hash"])
    assert result["result_digest"]

    # Resubmission replays every probe from the shared cache.
    replay = client.wait(client.submit_sweep(SWEEP_MANIFEST)["id"], timeout=30)
    assert replay["status"] == "done"
    assert all(r["from_cache"] for r in replay["runs"])
    # Identical search path and conclusions; only cache provenance differs.
    for alg in ("dsmf", "heft"):
        first = record["report"]["scenarios"][0]["heuristics"][alg]
        second = replay["report"]["scenarios"][0]["heuristics"][alg]
        assert second["saturation_scale"] == first["saturation_scale"]
        assert [p["scale"] for p in second["probes"]] == [
            p["scale"] for p in first["probes"]
        ]
        assert second["n_cached"] == second["n_probes"]

    # Both appear in the campaign listing, tagged by kind.
    kinds = {c["id"]: c["kind"] for c in client.campaigns()}
    assert kinds == {record["id"]: "sweep", replay["id"]: "sweep"}


def test_sweep_and_campaign_share_one_queue(sweep_service):
    _, client = sweep_service
    campaign = client.submit(
        {"scenario": "paper-fig4", "algorithms": ["dsmf"], "seeds": [1],
         "overrides": SWEEP_MANIFEST["overrides"]}
    )
    sweep = client.submit_sweep(SWEEP_MANIFEST)
    assert campaign["kind"] == "campaign"
    assert client.wait(campaign["id"], timeout=30)["status"] == "done"
    done = client.wait(sweep["id"], timeout=60)
    assert done["status"] == "done"
    # The campaign's x1 cell and the sweep's x1 probe share one hash, so
    # the sweep's 1.0 probe was served from cache.
    x1 = next(r for r in done["runs"] if "@x1#" in r["label"])
    assert x1["from_cache"] is True


@pytest.mark.parametrize(
    "mutate, code",
    [
        (lambda m: m.pop("scenarios"), "invalid-scenarios"),
        (lambda m: m.update(scenarios=[]), "invalid-scenarios"),
        (lambda m: m.update(scenarios=["nope"]), "unknown-scenario"),
        (lambda m: m.update(scenarios=["paper-fig4", "paper-fig4"]), "invalid-scenarios"),
        (lambda m: m.update(scenarios=["gwa-replay-small"]), "unsweepable-scenario"),
        (lambda m: m.update(scenario="paper-fig4"), "unknown-field"),
        (lambda m: m.update(threshold="high"), "invalid-criterion"),
        (lambda m: m.update(threshold=0.0), "invalid-criterion"),
        (lambda m: m.update(max_scale=0.25), "invalid-criterion"),
        (lambda m: m.update(algorithms=["nope"]), "unknown-algorithm"),
        (lambda m: m.update(algorithms=["dsmf", "dsmf"]), "invalid-algorithms"),
        (lambda m: m.update(seeds=[]), "invalid-seeds"),
        (lambda m: m.update(overrides={"algorithm": "heft"}), "invalid-overrides"),
        (lambda m: m.update(overrides={"n_nodes": -4}), "invalid-overrides"),
    ],
)
def test_sweep_request_validation(mutate, code):
    manifest = {k: (list(v) if isinstance(v, list) else v)
                for k, v in SWEEP_MANIFEST.items()}
    manifest["overrides"] = dict(SWEEP_MANIFEST["overrides"])
    mutate(manifest)
    with pytest.raises(ManifestError) as excinfo:
        admit("sweep", manifest).sweep
    assert excinfo.value.code == code


def test_sweep_request_applies_defaults():
    request = admit("sweep", {"scenarios": ["paper-fig4"]}).sweep
    assert request["algorithms"] == ["dsmf", "dheft", "heft", "smf"]
    assert request["seeds"] == [1]
    assert request["threshold"] == 0.95
    assert request["resolution"] == 0.25
    assert request["max_scale"] == 8.0


def test_http_rejections_are_structured(sweep_service):
    _, client = sweep_service
    with pytest.raises(ServiceError) as excinfo:
        client.submit_sweep({"scenarios": ["trace-replay"]})
    assert excinfo.value.status == 400
    assert excinfo.value.code == "unsweepable-scenario"
    with pytest.raises(ServiceError) as excinfo:
        client.submit_sweep({"scenarios": ["paper-fig4"], "bogus": 1})
    assert excinfo.value.code == "unknown-field"
