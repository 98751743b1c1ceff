"""Shared fixtures for the chaos suite.

Chaos tests run *real* campaigns and a *real* threaded HTTP server under
deterministic fault schedules (:mod:`repro.faults`) and assert the stack
recovers to bit-identical results.  Everything uses the suite-wide tiny
scale so even crash-retry-reexecute flows stay sub-second.
"""

from __future__ import annotations

import threading

import pytest

from repro.service.app import build_server
from repro.service.client import ServiceClient


@pytest.fixture
def make_service(tmp_path):
    """Factory for live fault-injected servers; yields ``(server, client)``
    pairs and tears every one of them down afterwards, each client before
    its server."""
    live = []

    def make(client_retries: int = 0, **state_kwargs):
        state_kwargs.setdefault("cache_dir", tmp_path / "cache")
        state_kwargs.setdefault("jobs", 1)
        server = build_server(port=0, **state_kwargs)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        host, port = server.server_address[:2]
        client = ServiceClient(
            f"http://{host}:{port}", timeout=15.0,
            retries=client_retries, backoff=0.05,
        )
        live.append((server, thread, client))
        return server, client

    try:
        yield make
    finally:
        for server, thread, client in live:
            client.close()
            server.shutdown()
            server.server_close()
            server.state.close()
            thread.join(5)
