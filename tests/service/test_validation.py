"""HTTP-level validation: every malformed submission yields a structured
4xx — never a 500, and never a wedged worker (proved by running a valid
campaign to completion afterwards)."""

from __future__ import annotations

import json
import math
import threading
import urllib.request

import pytest

from repro.service.app import ServiceServer, ServiceState
from repro.service.client import ServiceClient, ServiceError
from repro.service.schemas import MAX_SEEDS



def _post_raw(client, body: bytes, path: str = "/campaigns"):
    """POST arbitrary bytes (the client's submit() always sends valid JSON)."""
    request = urllib.request.Request(
        client.base_url + path, data=body, method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10.0) as response:
        return response.status, json.loads(response.read())


def _expect_error(client, manifest, status: int, code: str, field=None):
    with pytest.raises(ServiceError) as exc_info:
        client.submit(manifest)
    err = exc_info.value
    assert (err.status, err.code) == (status, code), err
    return err


def test_malformed_json_body_is_400(service):
    _, client = service
    with pytest.raises(urllib.error.HTTPError) as exc_info:
        _post_raw(client, b"{definitely not json")
    assert exc_info.value.code == 400
    assert json.loads(exc_info.value.read())["error"]["code"] == "malformed-json"


def test_non_object_manifest_is_400(service):
    _, client = service
    _expect_error(client, [1, 2, 3], 400, "malformed-manifest")


def test_unknown_scenario_is_400(service):
    _, client = service
    _expect_error(client, {"scenario": "nope"}, 400, "unknown-scenario")


def test_unknown_algorithm_is_400(service):
    _, client = service
    _expect_error(client, {"algorithms": ["bogus"]}, 400, "unknown-algorithm")


def test_unknown_manifest_field_is_400(service):
    _, client = service
    _expect_error(client, {"algos": ["dsmf"]}, 400, "unknown-field")


def test_bad_override_type_is_400(service):
    _, client = service
    _expect_error(client, {"overrides": {"n_nodes": "lots"}}, 400, "invalid-overrides")


@pytest.mark.parametrize(
    "overrides",
    [{"task_range": [2, 1_000_000_000]}, {"fanout_range": [1, 10**12]}],
)
def test_oversized_workflow_ranges_are_400(service, overrides):
    _, client = service
    _expect_error(client, {"overrides": overrides}, 400, "invalid-overrides")


def test_non_string_path_override_is_400(service):
    """It used to pass validation and crash the config hash, dropping the
    connection without a response."""
    _, client = service
    _expect_error(client, {"overrides": {"workload_path": 5}}, 400, "invalid-overrides")


@pytest.fixture
def idle_service(tmp_path):
    """A live server whose queue worker never starts, so a request the
    door wrongly accepts is queued, never run."""
    state = ServiceState(cache_dir=tmp_path / "cache")
    server = ServiceServer(("127.0.0.1", 0), state)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    host, port = server.server_address[:2]
    try:
        with ServiceClient(f"http://{host}:{port}", timeout=15.0) as client:
            yield client
    finally:
        server.shutdown()
        server.server_close()
        state.close()
        thread.join(5)


@pytest.mark.parametrize(
    "kind, manifest, code",
    [
        ("campaign", {"overrides": {"total_time": math.nan}}, "invalid-overrides"),
        ("campaign", {"overrides": {"total_time": math.inf}}, "invalid-overrides"),
        ("campaign", {"overrides": {"workload_scale": math.inf}}, "invalid-overrides"),
        ("sweep", {"scenarios": ["paper-fig4"], "overrides": {"total_time": math.nan}},
         "invalid-overrides"),
        ("sweep", {"scenarios": ["paper-fig4"], "max_scale": math.inf}, "invalid-criterion"),
    ],
)
def test_non_finite_numbers_are_400(idle_service, kind, manifest, code):
    """JSON's NaN and Infinity literals would start a run that never ends."""
    submit = idle_service.submit_sweep if kind == "sweep" else idle_service.submit
    with pytest.raises(ServiceError) as exc_info:
        submit(manifest)
    assert (exc_info.value.status, exc_info.value.code) == (400, code)
    assert idle_service.campaigns() == []


@pytest.mark.parametrize(
    "kind, manifest",
    [
        ("campaign", {"overrides": {"workload_path": "/etc", "availability_path": "."}}),
        ("campaign", {"overrides": {"availability_path": "data/traces/fta_sample.avail.json"}}),
        ("sweep", {"scenarios": ["paper-fig4"], "overrides": {"workload_path": "/etc"}}),
        # Typed fields: "no" is truthy and would turn the ablation on.
        ("campaign", {"overrides": {"immediate_dispatch": "no"}}),
        ("campaign", {"overrides": {"n_nodes": 40.5}}),
    ],
)
def test_path_and_mistyped_overrides_are_400(idle_service, kind, manifest):
    """A client may not name a file for the server to read, and a bool or
    int field takes no other type."""
    submit = idle_service.submit_sweep if kind == "sweep" else idle_service.submit
    with pytest.raises(ServiceError) as exc_info:
        submit(manifest)
    assert (exc_info.value.status, exc_info.value.code) == (400, "invalid-overrides")
    assert idle_service.campaigns() == []


def test_bundled_trace_presets_run_with_their_own_paths(service):
    _, client = service
    for scenario in ("gwa-replay-small", "pwa-replay-small", "fta-churn-small"):
        manifest = {"scenario": scenario, "overrides": {"total_time": 3 * 3600.0}}
        record = client.wait(client.submit(manifest)["id"], timeout=60)
        assert record["status"] == "done", (scenario, record)


def test_oversized_seed_list_is_400(service):
    _, client = service
    _expect_error(
        client, {"seeds": list(range(MAX_SEEDS + 1))}, 400, "too-many-seeds"
    )


def test_oversized_body_is_413(service):
    _, client = service
    # The server answers before reading the body.  4 MiB outruns the
    # socket buffers, so the client is still sending when the 413 and the
    # close arrive, and must read the response all the same.
    for size in (300 * 1024, 4 * 1024 * 1024):
        manifest = {"overrides": {"note": "x" * size}}
        _expect_error(client, manifest, 413, "body-too-large")


def test_missing_content_length_is_411(service):
    _, client = service
    # urllib always sets Content-Length for bytes bodies, so drive the
    # socket directly to send a length-less POST.
    import http.client
    host, port = client.base_url.rsplit(":", 1)
    conn = http.client.HTTPConnection(host.replace("http://", ""), int(port), timeout=10)
    try:
        conn.putrequest("POST", "/campaigns", skip_host=False)
        conn.putheader("Content-Type", "application/json")
        conn.endheaders()
        response = conn.getresponse()
        assert response.status in (411, 400)
    finally:
        conn.close()


def test_unknown_routes_are_404(service):
    _, client = service
    for method, path in (("GET", "/nope"), ("POST", "/results/abc")):
        with pytest.raises(ServiceError) as exc_info:
            client._request(method, path, payload={} if method == "POST" else None)
        assert exc_info.value.status == 404


def test_result_hash_validation(service):
    _, client = service
    with pytest.raises(ServiceError) as exc_info:
        client.result("ZZZ")
    assert (exc_info.value.status, exc_info.value.code) == (400, "invalid-hash")
    with pytest.raises(ServiceError) as exc_info:
        client.result("c" * 64)
    assert (exc_info.value.status, exc_info.value.code) == (404, "not-found")


def test_worker_survives_a_barrage_of_bad_manifests(service, tiny_manifest):
    """The acceptance criterion: after every kind of rejection above, a
    valid submission still runs to completion — rejections never reach
    (or wedge) the worker."""
    _, client = service
    bad_manifests = [
        [1],
        {"scenario": "nope"},
        {"algorithms": ["bogus"]},
        {"seeds": list(range(MAX_SEEDS + 1))},
        {"overrides": {"n_nodes": "lots"}},
        {"overrides": {"task_range": [2, 1_000_000_000]}},
        {"overrides": {"workload_path": 5}},
        {"overrides": {"workload_path": "/etc", "availability_path": "."}},
        {"unknown_field": 1},
    ]
    for manifest in bad_manifests:
        with pytest.raises(ServiceError):
            client.submit(manifest)
    assert client.campaigns() == []  # nothing invalid was enqueued

    manifest = tiny_manifest
    record = client.wait(client.submit(manifest)["id"], timeout=60)
    assert record["status"] == "done"
    assert record["runs"][0]["n_done"] > 0
