"""Concurrent-submission stress: N client threads with overlapping
manifests must coalesce to exactly one simulation per distinct config
hash (the service's core guarantee — serial campaign worker + shared
content-addressed cache + within-campaign dedup)."""

from __future__ import annotations

import threading

import pytest

from repro.api import run_experiment
from repro.experiments.campaign import config_hash
from repro.service.app import build_server
from repro.service.client import ServiceClient
from repro.service.schemas import manifest_specs

N_CLIENTS = 8

#: Each client's manifest shares seeds {1, 2} with everyone and adds one
#: from {3..6} — heavy overlap, 6 distinct configs across 24 submitted runs.
STRESS_OVERRIDES = {"n_nodes": 16, "load_factor": 1, "total_time": 2 * 3600.0}


def _manifest(i: int) -> dict:
    return {
        "algorithms": ["dsmf"],
        "seeds": [1, 2, 3 + i % 4],
        "overrides": STRESS_OVERRIDES,
    }


@pytest.fixture
def counting_service(tmp_path):
    """A live server whose injected runner counts real executions."""
    calls: list[str] = []
    lock = threading.Lock()

    def counting_runner(config):
        with lock:
            calls.append(config_hash(config))
        return run_experiment(config)

    server = build_server(
        port=0, cache_dir=tmp_path / "cache", jobs=1, runner=counting_runner
    )
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    host, port = server.server_address[:2]
    try:
        with ServiceClient(f"http://{host}:{port}", timeout=15.0) as client:
            yield client, calls
    finally:
        server.shutdown()
        server.server_close()
        server.state.close()
        thread.join(5)


def test_concurrent_overlapping_submissions_coalesce(counting_service):
    client, calls = counting_service
    records: dict[int, dict] = {}
    errors: list[BaseException] = []

    def submit_and_wait(i: int) -> None:
        try:
            record = client.submit(_manifest(i))
            records[i] = client.wait(record["id"], timeout=120)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=submit_and_wait, args=(i,)) for i in range(N_CLIENTS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(180)
    assert not errors, errors
    assert len(records) == N_CLIENTS

    expected_hashes = {
        config_hash(spec.config)
        for i in range(N_CLIENTS)
        for spec in manifest_specs(_manifest(i))
    }
    assert len(expected_hashes) == 6

    # The guarantee: every distinct config simulated exactly once, no
    # matter how the 8 clients' campaigns interleaved.
    assert sorted(calls) == sorted(expected_hashes)

    # Every campaign finished, and every submitted cell has a result.
    for record in records.values():
        assert record["status"] == "done"
        assert record["progress"]["completed"] == record["progress"]["total"] == 3
        for run in record["runs"]:
            assert run["status"] == "done"
            assert client.result(run["config_hash"])["result_digest"]

    # The index lists exactly the distinct hashes (no duplicates).
    index_hashes = {e["config_hash"] for e in client.experiments()}
    assert index_hashes == expected_hashes
    assert len(client.experiments()) == 6
