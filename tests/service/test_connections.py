"""Persistent connections between ``ServiceClient`` and ``repro serve``.

One TCP connection carries a client's calls; a kept-alive response never
waits for the client's delayed ACK; a response sent before the request
body was read closes the connection, and a body cut short is refused; a
body that stalls, or a connection left idle, is closed after the socket
timeout; a client that leaves early is not logged as a server error; a
closed server shuts its open connections; and a pooled connection the
server has closed is dropped before a request is written into it.
"""

from __future__ import annotations

import http.client
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.obs.telemetry import parse_prometheus
from repro.service import app
from repro.service.app import build_server
from repro.service.client import ServiceClient, ServiceError


def _raw_exchange(
    server, payload: bytes, timeout: float = 3.0, half_close: bool = False
) -> tuple[bytes, bool]:
    """Send ``payload`` on a new connection (then stop sending, with
    ``half_close``) and read until the server closes the connection or
    falls silent for ``timeout`` seconds; returns the bytes read and
    whether the server closed the connection."""
    with socket.create_connection(server.server_address[:2], timeout=timeout) as sock:
        sock.sendall(payload)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        data = b""
        try:
            while chunk := sock.recv(65536):
                data += chunk
        except socket.timeout:
            return data, False
    return data, True


def _statuses(data: bytes) -> list[int]:
    """Every status line in ``data``; a response follows the previous
    body with no line break between them."""
    return [int(code) for code in re.findall(rb"HTTP/1\.[01] (\d{3}) ", data)]


def test_one_client_reuses_one_connection(service):
    _, client = service
    for _ in range(9):
        client.health()
    metrics = parse_prometheus(client.metrics())  # the tenth call
    assert metrics["repro_http_connections_total"] == 1
    assert metrics['repro_http_requests_total{method="GET",route="/healthz",status="200"}'] == 9


def test_base_url_path_prefix_is_kept(service):
    _, client = service
    with ServiceClient(client.base_url + "/prefix/", timeout=5.0) as prefixed:
        with pytest.raises(ServiceError) as err:
            prefixed.health()
    assert err.value.status == 404
    assert "/prefix/healthz" in err.value.message


def test_kept_alive_responses_do_not_wait_for_the_delayed_ack(service):
    """With Nagle's algorithm on, the body of every response on a
    kept-alive connection waited about 40 ms for the client's delayed ACK
    of the headers: 20 requests took about 0.84 s."""
    server, _ = service
    conn = http.client.HTTPConnection(*server.server_address[:2], timeout=10)
    try:
        t0 = time.perf_counter()
        for _ in range(20):
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            assert response.status == 200
        elapsed = time.perf_counter() - t0
    finally:
        conn.close()
    assert elapsed < 0.4, f"20 kept-alive requests took {elapsed:.3f} s"


def test_unread_body_closes_the_connection(service):
    """A 404 for an unknown POST route does not read the body; left on a
    kept-alive connection, it would be parsed as the next request."""
    server, _ = service
    body = b'{"algorithms": ["dsmf"]}'
    data, closed = _raw_exchange(
        server,
        b"POST /nope HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n"
        b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
        + b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
    )
    statuses = _statuses(data)
    assert (statuses == [404] and closed) or statuses == [404, 200], data


def test_declared_length_over_the_cap_is_refused_unread(service):
    """The 413 comes before the body is read: a handler that read the
    declared 10^9 bytes first would wait for bytes that never come."""
    server, _ = service
    data, closed = _raw_exchange(
        server,
        b"POST /campaigns HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n"
        b"Content-Length: 1000000000\r\n\r\n{}",
    )
    assert _statuses(data) == [413], data
    assert b'"body-too-large"' in data
    assert closed


def test_body_cut_short_is_refused(service):
    """A client that stops sending after 2 of 100 declared bytes: the
    prefix ``{}`` is a valid manifest, and must not become a campaign."""
    server, client = service
    data, closed = _raw_exchange(
        server,
        b"POST /campaigns HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n"
        b"Content-Length: 100\r\n\r\n{}",
        half_close=True,
    )
    assert _statuses(data) == [400], data
    assert b'"incomplete-body"' in data
    assert closed
    assert client.campaigns() == []


@pytest.fixture
def short_timeout(monkeypatch) -> float:
    """The handler's socket timeout, lowered so that a test outwaits it."""
    monkeypatch.setattr(app, "SOCKET_TIMEOUT_SECONDS", 0.3)
    return 0.3


def test_a_stalled_body_is_cut_off_after_the_socket_timeout(service, short_timeout):
    """A POST that declares 100 bytes, sends 2 and idles with its
    connection open: the handler's read is bounded, so the server closes
    the connection and counts the request with status 0."""
    server, client = service
    data, closed = _raw_exchange(
        server,
        b"POST /campaigns HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n"
        b"Content-Length: 100\r\n\r\n{}",
        timeout=5.0,
    )
    assert (data, closed) == (b"", True)
    metrics = parse_prometheus(client.metrics())
    assert metrics['repro_http_requests_total{method="POST",route="/campaigns",status="0"}'] == 1
    assert not any('status="500"' in name for name in metrics)
    assert client.campaigns() == []


def test_a_client_outlives_the_idle_timeout(service, short_timeout):
    """The server closes a kept-alive connection left idle past the socket
    timeout; the client's pool drops it, and the next call opens another."""
    server, client = service
    assert client.health()["status"] == "ok"
    time.sleep(short_timeout + 0.7)
    assert client.health()["status"] == "ok"
    assert server.connections == 2


def test_an_early_disconnect_is_not_logged_as_an_error(service, capsys):
    """A client that left before its response was written is no server
    fault: no traceback.  Any other handler error keeps its traceback."""
    server, _ = service
    try:
        raise BrokenPipeError(32, "Broken pipe")
    except BrokenPipeError:
        server.handle_error(None, ("127.0.0.1", 4242))
    assert capsys.readouterr().err == ""
    server.verbose = True
    try:
        raise ConnectionResetError(104, "Connection reset by peer")
    except ConnectionResetError:
        server.handle_error(None, ("127.0.0.1", 4242))
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "client went away" in err and "Traceback" not in err
    try:
        raise ValueError("boom")
    except ValueError:
        server.handle_error(None, ("127.0.0.1", 4242))
    err = capsys.readouterr().err
    assert "Traceback" in err and "ValueError: boom" in err


def test_closed_server_serves_nothing_on_a_kept_alive_connection(tmp_path):
    """A server that is shut down and closed in-process shuts its open
    connections too; a kept-alive one left to its handler thread would
    be served, and a submission accepted, against a stopped queue."""
    server = build_server(port=0, cache_dir=tmp_path / "cache", jobs=1)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    host, port = server.server_address[:2]
    with ServiceClient(f"http://{host}:{port}", timeout=5.0, retries=0) as client:
        assert client.health()["status"] == "ok"
        server.shutdown()
        server.server_close()
        server.state.close()
        thread.join(5)
        with pytest.raises((OSError, http.client.HTTPException)):
            client.health()


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _serve(port: int, cache_dir) -> subprocess.Popen:
    """``repro serve`` in a process of its own: its exit closes every
    connection it holds, as a real restart does."""
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.experiments.cli", "serve",
            "--port", str(port), "--jobs", "1", "--cache-dir", str(cache_dir),
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _terminate(proc: subprocess.Popen) -> int:
    proc.send_signal(signal.SIGTERM)
    try:
        return proc.wait(30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def test_restarted_server_gets_the_next_post_once(tmp_path, tiny_manifest):
    """``submit``, SIGTERM, a restart on the same port and cache, then a
    second ``submit`` from the same client.  The server exits 0 with the
    client's connection open, the client drops that closed connection
    before writing the POST, and the second server receives it once."""
    port = _free_port()
    url = f"http://127.0.0.1:{port}"
    cache = tmp_path / "cache"
    with ServiceClient(url, timeout=15.0) as client:
        first = _serve(port, cache)
        try:
            client.wait_healthy(timeout=60)
            record = client.wait(client.submit(tiny_manifest)["id"], timeout=60)
            assert record["status"] == "done"
        finally:
            code = _terminate(first)
        assert code == 0
        second = _serve(port, cache)
        try:
            # Another client waits for the restart, so the pooled
            # connection is still there when ``submit`` runs.
            with ServiceClient(url, timeout=15.0) as probe:
                probe.wait_healthy(timeout=60)
                again = client.submit(tiny_manifest)
                assert client.wait(again["id"], timeout=60)["status"] == "done"
                metrics = parse_prometheus(probe.metrics())
        finally:
            code = _terminate(second)
        assert code == 0
    posts = {k: v for k, v in metrics.items() if 'method="POST"' in k}
    assert posts == {
        'repro_http_requests_total{method="POST",route="/campaigns",status="202"}': 1
    }
