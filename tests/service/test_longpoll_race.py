"""Regression tests for the long-poll version race.

The race: a client reads a campaign at version N, the campaign transitions
(version bump) *between* that response and the client's next ``?wait=``
request, and the next poll — which captures the version at call time —
parks for the full wait despite the change it is waiting for having
already happened.  The fix threads the client's last-observed version
through (``since`` in :meth:`CampaignQueue.get`, ``?version=`` over HTTP):
a poll whose ``since`` is already stale returns immediately.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.service.app import ServiceServer, ServiceState
from repro.service.client import ServiceClient, ServiceError
from repro.service.index import ExperimentIndex
from repro.service.queue import CampaignQueue

TINY_MANIFEST = {
    "algorithms": ["dsmf"],
    "seeds": [5],
    "overrides": {
        "n_nodes": 24,
        "load_factor": 1,
        "total_time": 6 * 3600.0,
        "task_range": [2, 10],
    },
}

#: A wait long enough that "parked for the full wait" vs "returned
#: immediately" is unambiguous even on a noisy CI runner.
_LONG_WAIT = 5.0


@pytest.fixture
def idle_queue(tmp_path):
    """A queue whose worker never starts: campaigns stay ``queued``, so the
    only version bumps are the ones the test injects — the transition
    timing is fully under test control."""
    index = ExperimentIndex(tmp_path / "experiments.jsonl")
    queue = CampaignQueue(cache_dir=tmp_path / "cache", index=index)
    try:
        yield queue
    finally:
        index.close()


def _bump_campaign(queue: CampaignQueue, campaign_id: str) -> None:
    """Inject one observable state mutation (what the worker thread does)."""
    with queue._lock:
        queue._bump(queue._campaigns[campaign_id])


def test_stale_since_returns_immediately(idle_queue):
    """The forced interleaving: the bump lands *before* the poll starts.

    Without ``since`` the poll re-reads the already-bumped version and
    parks anyway (the racy behavior, asserted below as contrast); with the
    stale ``since`` it must return without waiting.
    """
    cid = idle_queue.submit(TINY_MANIFEST)["id"]
    seen = idle_queue.get(cid)["version"]

    # The transition the client hasn't seen yet.
    _bump_campaign(idle_queue, cid)

    t0 = time.monotonic()
    record = idle_queue.get(cid, wait=_LONG_WAIT, since=seen)
    elapsed = time.monotonic() - t0
    assert record["version"] == seen + 1
    assert elapsed < 1.0, f"stale-since poll parked {elapsed:.2f}s"

    # Contrast: a since-less poll after the same missed bump parks the
    # full wait — exactly the race the parameter exists to close.
    t0 = time.monotonic()
    idle_queue.get(cid, wait=0.2)
    assert time.monotonic() - t0 >= 0.2


def test_current_since_still_parks_until_notified(idle_queue):
    """``since`` equal to the live version keeps normal long-poll behavior:
    the call parks, then wakes the moment a bump arrives."""
    cid = idle_queue.submit(TINY_MANIFEST)["id"]
    seen = idle_queue.get(cid)["version"]

    bumper = threading.Timer(0.2, _bump_campaign, args=(idle_queue, cid))
    t0 = time.monotonic()
    bumper.start()
    try:
        record = idle_queue.get(cid, wait=_LONG_WAIT, since=seen)
    finally:
        bumper.join()
    elapsed = time.monotonic() - t0
    assert record["version"] == seen + 1
    assert 0.2 <= elapsed < 1.0, f"poll neither parked nor woke early: {elapsed:.2f}s"


@pytest.fixture
def idle_service(tmp_path):
    """A live HTTP server over an idle queue (worker never started)."""
    state = ServiceState(cache_dir=tmp_path / "cache")
    server = ServiceServer(("127.0.0.1", 0), state)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}", timeout=15.0)
    try:
        yield state, client
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        state.index.close()
        state.journal.close()
        thread.join(5)


def test_http_version_param_closes_the_race(idle_service):
    """End-to-end over HTTP: ``?wait=&version=`` with a stale version
    returns immediately; an unparseable version is a 400."""
    state, client = idle_service
    cid = client.submit(TINY_MANIFEST)["id"]
    seen = client.campaign(cid)["version"]

    _bump_campaign(state.queue, cid)

    t0 = time.monotonic()
    record = client.campaign(cid, wait=_LONG_WAIT, version=seen)
    elapsed = time.monotonic() - t0
    assert record["version"] == seen + 1
    assert elapsed < 1.0, f"stale-version long-poll parked {elapsed:.2f}s"

    with pytest.raises(ServiceError) as excinfo:
        client._request("GET", f"/campaigns/{cid}?wait=1&version=latest")
    assert excinfo.value.status == 400
    assert excinfo.value.code == "invalid-version"
