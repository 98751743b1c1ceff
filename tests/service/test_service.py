"""End-to-end tests against a live ``repro serve`` stack: submit, poll,
cache replay, result fetch, index persistence across restarts."""

from __future__ import annotations

import threading

import pytest

from repro.api import run_experiment
from repro.experiments.campaign import result_digest
from repro.service import queue as queue_module
from repro.service.app import ServiceState, build_server
from repro.service.client import ServiceClient, ServiceError



def test_healthz_and_root(service):
    _, client = service
    for record in (client.health(), client._request("GET", "/")):
        assert record["status"] == "ok"
        assert record["campaigns"] == 0
        assert record["experiments"] == 0


def test_submit_poll_fetch_and_cache_replay(service, tiny_manifest):
    server, client = service
    record = client.submit(tiny_manifest)
    assert record["status"] in ("queued", "running")
    assert record["url"] == f"/campaigns/{record['id']}"
    assert record["progress"] == {"completed": 0, "total": 1}

    record = client.wait(record["id"], timeout=60)
    assert record["status"] == "done"
    assert record["error"] is None
    [run] = record["runs"]
    assert run["status"] == "done"
    assert run["from_cache"] is False
    assert run["n_done"] > 0  # 6 simulated hours finish real workflows
    assert run["wall_seconds"] > 0

    # The cached result is served by hash, digest included.
    result = client.result(run["config_hash"])
    assert result["config_hash"] == run["config_hash"]
    assert result["act"] == run["act"]
    assert result["result_digest"]

    # Resubmitting the identical manifest replays fully from cache.
    replay = client.wait(client.submit(tiny_manifest)["id"], timeout=30)
    assert replay["status"] == "done"
    assert replay["n_cached"] == 1
    assert replay["runs"][0]["from_cache"] is True
    assert replay["runs"][0]["config_hash"] == run["config_hash"]
    assert client.result(run["config_hash"])["result_digest"] == result["result_digest"]

    # Both campaigns are listed; the index has exactly one distinct hash.
    assert [c["id"] for c in client.campaigns()] == [record["id"], replay["id"]]
    [entry] = client.experiments()
    assert entry["config_hash"] == run["config_hash"]
    assert entry["source"] == "service"


def test_multi_cell_campaign_progress_shape(service, tiny_manifest):
    _, client = service
    manifest = tiny_manifest
    manifest["seeds"] = [5, 6]
    record = client.wait(client.submit(manifest)["id"], timeout=120)
    assert record["status"] == "done"
    assert record["progress"] == {"completed": 2, "total": 2}
    assert len({r["config_hash"] for r in record["runs"]}) == 2
    assert len(client.experiments()) == 2


def test_unknown_campaign_404(service):
    _, client = service
    from repro.service.client import ServiceError
    try:
        client.campaign("c999999")
    except ServiceError as exc:
        assert exc.status == 404 and exc.code == "not-found"
    else:
        raise AssertionError("expected a 404")


def test_index_survives_restart_with_and_without_journal(service, tmp_path, tiny_manifest):
    server, client = service
    record = client.wait(client.submit(tiny_manifest)["id"], timeout=60)
    run_hash = record["runs"][0]["config_hash"]
    cache_dir = server.state.cache_dir
    index_path = server.state.index.path

    # Restart: a fresh ServiceState on the same dirs lists the prior run.
    restarted = ServiceState(cache_dir=cache_dir, index_path=index_path)
    try:
        assert restarted.index_rebuilt == 0  # journal already knew it
        assert [e["config_hash"] for e in restarted.index.entries()] == [run_hash]
    finally:
        restarted.close(timeout=5)

    # Even with the journal lost, the cache rebuild recovers the entry.
    recovered = ServiceState(cache_dir=cache_dir, index_path=tmp_path / "fresh.jsonl")
    try:
        assert recovered.index_rebuilt == 1
        [entry] = recovered.index.entries()
        assert entry["config_hash"] == run_hash
        assert entry["source"] == "cache-rebuild"
    finally:
        recovered.close(timeout=5)


def test_served_result_digest_matches_local_pickle(service, tiny_manifest):
    """The JSON the service hands out fingerprints the same simulated
    outcome as the pickled cache entry."""
    server, client = service
    record = client.wait(client.submit(tiny_manifest)["id"], timeout=60)
    run_hash = record["runs"][0]["config_hash"]
    from repro.experiments.campaign import load_cached_result

    local = load_cached_result(run_hash, cache_dir=server.state.cache_dir)
    assert local is not None
    assert client.result(run_hash)["result_digest"] == result_digest(local)


def test_client_wait_times_out_cleanly(service, tiny_manifest):
    _, client = service
    record = client.submit(tiny_manifest)
    with ServiceClient(client.base_url, timeout=5.0) as probe:
        try:
            probe.wait(record["id"], timeout=0.0, poll=0.01)
        except TimeoutError as exc:
            assert record["id"] in str(exc)
        else:  # pragma: no cover - only on an implausibly instant run
            pass
    client.wait(record["id"], timeout=60)  # leave the queue drained


def test_only_the_newest_finished_campaigns_are_kept(tmp_path, tiny_manifest, monkeypatch):
    """Past ``MAX_FINISHED`` finished campaigns the oldest is forgotten and
    reads 404; queued and running campaigns are always kept."""
    monkeypatch.setattr(queue_module, "MAX_FINISHED", 3)
    gate = threading.Event()
    gate.set()

    def gated_runner(config):
        gate.wait(60)
        return run_experiment(config)

    server = build_server(
        port=0, cache_dir=tmp_path / "cache", jobs=1, runner=gated_runner
    )
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    host, port = server.server_address[:2]
    try:
        with ServiceClient(f"http://{host}:{port}", timeout=15.0) as client:
            # One simulation, then four replays from the cache.
            finished = [
                client.wait(client.submit(tiny_manifest)["id"], timeout=60)["id"]
                for _ in range(5)
            ]
            gate.clear()  # the next cache miss holds the worker
            running = client.submit({**tiny_manifest, "seeds": [6]})["id"]
            queued = client.submit({**tiny_manifest, "seeds": [7]})["id"]
            for cid in finished[:2]:
                with pytest.raises(ServiceError) as err:
                    client.campaign(cid)
                assert (err.value.status, err.value.code) == (404, "not-found")
            assert client.campaign(finished[-1])["status"] == "done"
            assert client.campaign(queued)["status"] == "queued"
            assert [c["id"] for c in client.campaigns()] == [
                *finished[2:], running, queued
            ]
            gate.set()
            assert client.wait(queued, timeout=60)["status"] == "done"
            assert [c["id"] for c in client.campaigns()] == [finished[-1], running, queued]
    finally:
        gate.set()
        server.shutdown()
        server.server_close()
        server.state.close()
        thread.join(5)
