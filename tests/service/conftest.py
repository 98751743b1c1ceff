"""Shared fixtures for the service-layer tests.

``service`` boots the real threaded HTTP server on an ephemeral port with
an isolated cache/index under ``tmp_path`` — the same stack ``repro
serve`` runs, minus the process boundary — plus a :class:`ServiceClient`
against it, closed before the server stops.  Simulation payloads reuse the suite-wide tiny scale (24
nodes, 6 simulated hours) so every end-to-end test stays sub-second.
"""

from __future__ import annotations

import threading

import pytest

from repro.experiments.config import ExperimentConfig
from repro.service.app import build_server
from repro.service.client import ServiceClient

#: Manifest-shaped spelling of the suite's ``tiny_config`` fixture.
TINY_OVERRIDES = {
    "n_nodes": 24,
    "load_factor": 1,
    "total_time": 6 * 3600.0,
    "task_range": [2, 10],
}
TINY_MANIFEST = {"algorithms": ["dsmf"], "seeds": [5], "overrides": TINY_OVERRIDES}


@pytest.fixture
def tiny_manifest() -> dict:
    """A fresh copy per test (manifests get mutated for variants)."""
    import copy

    return copy.deepcopy(TINY_MANIFEST)


@pytest.fixture(scope="session")
def tiny_run():
    """One real tiny simulation shared by the whole service suite."""
    from repro.api import run_experiment

    config = ExperimentConfig(
        algorithm="dsmf",
        n_nodes=24,
        load_factor=1,
        total_time=6 * 3600.0,
        seed=5,
        task_range=(2, 10),
    )
    return config, run_experiment(config)


@pytest.fixture
def service(tmp_path):
    """A live server + client pair; yields ``(server, client)``."""
    server = build_server(port=0, cache_dir=tmp_path / "cache", jobs=1)
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
