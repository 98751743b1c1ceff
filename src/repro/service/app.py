"""The ``repro serve`` HTTP API (stdlib ``http.server``, zero new deps).

Routes (JSON unless noted)::

    GET  /healthz            liveness + index/queue counters
    POST /campaigns          submit a campaign manifest -> 202 + id/hashes
    POST /sweeps             submit a capacity-sweep manifest -> 202 + id;
                             progress and the finished envelope report are
                             polled through GET /campaigns/{id} (kind
                             "sweep"; probe runs appear as they are chosen)
    GET  /campaigns          list submitted campaigns
    GET  /campaigns/{id}     poll one campaign (per-config progress);
                             ``?wait=<secs>`` long-polls: the response is
                             held until the campaign changes state or the
                             wait (capped at 30s) elapses.  Pass
                             ``&version=<n>`` (the ``version`` of the last
                             response seen) so a change that landed between
                             two polls returns immediately instead of
                             parking for the full wait
    GET  /results/{hash}     a cached RunResult by config hash
    GET  /experiments        the persistent experiment index
    GET  /metrics            Prometheus text exposition (request counters,
                             per-route latency, campaign/index gauges)

Request handling runs on :class:`~http.server.ThreadingHTTPServer` (one
thread per connection; HTTP/1.1 connections persist, and every response
goes out without waiting for the client's ACK) while simulation work
stays on the queue's single worker thread — submissions return
immediately with ``202 Accepted`` and clients poll (or long-poll).
Every error path returns a structured JSON body (``{"error": {"code",
"message", ...}}``); manifest validation failures are 4xx by
construction and can never wedge the worker.  With
``--max-pending`` the backlog is bounded: submissions beyond it get
``429`` + a ``Retry-After`` header instead of unbounded queueing.
Accepted submissions are journaled (``<cache_dir>/service.jsonl``), so a
killed server resumes its unfinished campaigns — original ids, finished
cells replayed from cache and checked against the result digests the
experiment index recorded — on the next start against the same dirs.
"""

from __future__ import annotations

import contextlib
import json
import re
import signal
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Optional
from urllib.parse import parse_qs, urlsplit

from repro._version import __version__
from repro.experiments.campaign import default_cache_dir, load_cached_result
from repro.faults import NULL_FAULTS
from repro.obs.telemetry import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.service.index import ExperimentIndex
from repro.service.journal import ServiceJournal
from repro.service.queue import CampaignQueue, QueueFullError
from repro.service.schemas import (
    MAX_BODY_BYTES,
    ManifestError,
    parse_manifest,
    result_to_dict,
)

__all__ = [
    "MAX_WAIT_SECONDS",
    "ServiceMetrics",
    "ServiceServer",
    "ServiceState",
    "build_server",
    "serve",
]

_HASH_RE = re.compile(r"^[0-9a-f]{64}$")
_CAMPAIGN_RE = re.compile(r"^/campaigns/([A-Za-z0-9_-]+)$")
_RESULT_RE = re.compile(r"^/results/([0-9a-zA-Z]+)$")

#: Long-poll cap for ``GET /campaigns/{id}?wait=``: bounds how long one
#: handler thread can be parked, so a slow client can't pin threads for
#: arbitrary durations.  Clients re-issue the request to keep waiting.
MAX_WAIT_SECONDS = 30.0


class ServiceMetrics:
    """Thread-safe HTTP request counters for ``GET /metrics``.

    Tracks request totals by (method, route template, status) and a
    latency sum/count per route — enough for rate, error-rate, and mean
    latency panels without any histogram dependency.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._requests: dict[tuple[str, str, str], int] = {}
        self._latency: dict[str, list[float]] = {}  # route -> [count, sum]

    def observe(self, method: str, route: str, status: int, seconds: float) -> None:
        key = (method, route, str(status))
        with self._lock:
            self._requests[key] = self._requests.get(key, 0) + 1
            slot = self._latency.setdefault(route, [0.0, 0.0])
            slot[0] += 1
            slot[1] += seconds

    def families(self) -> list[tuple]:
        """Request-level metric families for ``render_prometheus``."""
        with self._lock:
            requests = dict(self._requests)
            latency = {route: list(slot) for route, slot in self._latency.items()}
        return [
            (
                "repro_http_requests_total",
                "counter",
                "HTTP requests served, by method/route/status",
                [
                    ({"method": m, "route": r, "status": s}, float(n))
                    for (m, r, s), n in sorted(requests.items())
                ],
            ),
            (
                "repro_http_request_seconds_count",
                "counter",
                "HTTP requests timed, by route",
                [({"route": r}, slot[0]) for r, slot in sorted(latency.items())],
            ),
            (
                "repro_http_request_seconds_sum",
                "counter",
                "total HTTP request handling time, by route",
                [({"route": r}, slot[1]) for r, slot in sorted(latency.items())],
            ),
        ]


def _route_label(method: str, path: str) -> str:
    """Fold a concrete request path into its route template.

    Keeps the ``/metrics`` label set bounded — per-id paths would
    otherwise mint one label value per campaign/result ever requested.
    """
    if path in ("/", "/healthz"):
        return "/healthz"
    if path in ("/experiments", "/campaigns", "/metrics", "/sweeps"):
        return path
    if _CAMPAIGN_RE.match(path):
        return "/campaigns/{id}"
    if _RESULT_RE.match(path):
        return "/results/{hash}"
    return "(unmatched)"


class ServiceState:
    """Shared service state: the cache, the index, the journal, the queue.

    ``journal_path`` defaults to ``<cache_dir>/service.jsonl`` — restart
    the service on the same directories and every submitted-but-unfinished
    campaign resumes under its original id.  ``max_pending`` bounds the
    backlog (submissions beyond it get 429 + ``Retry-After``); ``faults``
    is the injection plan (default: the zero-overhead null plan).
    """

    def __init__(
        self,
        cache_dir=None,
        index_path=None,
        jobs: int = 1,
        runner: Optional[Callable] = None,
        use_cache: bool = True,
        mp_context: Optional[str] = None,
        journal_path=None,
        max_pending: Optional[int] = None,
        faults=NULL_FAULTS,
    ):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        if index_path is None:
            index_path = self.cache_dir / "experiments.jsonl"
        self.faults = faults
        self.index = ExperimentIndex(index_path, faults=faults)
        #: Cache entries the journal didn't know about (CLI runs against
        #: the same cache dir, or a fresh/lost journal) — recovered here so
        #: the index survives restarts even without its journal.
        self.index_rebuilt = self.index.rebuild_from_cache(self.cache_dir)
        self.metrics = ServiceMetrics()
        if journal_path is None:
            journal_path = self.cache_dir / "service.jsonl"
        self.journal = ServiceJournal(journal_path)
        self.queue = CampaignQueue(
            cache_dir=self.cache_dir,
            index=self.index,
            jobs=jobs,
            runner=runner,
            use_cache=use_cache,
            mp_context=mp_context,
            journal=self.journal,
            max_pending=max_pending,
            faults=faults,
        )
        #: Campaigns replayed from the submission journal at startup.
        self.resumed_campaigns = len(self.journal.unfinished)

    def start(self) -> None:
        self.queue.start()

    def close(self, timeout: Optional[float] = 30.0) -> None:
        self.queue.stop(timeout)
        self.index.close()
        self.journal.close()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: the headers and the body go out in two sends, and with
    # Nagle's algorithm the second waits for the client's delayed ACK
    # (about 40 ms) on every response of a kept-alive connection.
    disable_nagle_algorithm = True
    server: "ServiceServer"

    # ------------------------------------------------------------- plumbing
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    def _send_body(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: Optional[dict] = None,
    ) -> None:
        self._count(status)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, str(value))
        if self._unread_body:
            self.send_header("Connection", "close")  # sets close_connection
        self.end_headers()
        self.wfile.write(body)

    def _send_json(
        self, status: int, payload: dict, headers: Optional[dict] = None
    ) -> None:
        self._send_body(
            status, json.dumps(payload).encode("utf-8"), "application/json",
            headers=headers,
        )

    def _send_error_json(
        self,
        status: int,
        code: str,
        message: str,
        field: Optional[str] = None,
        headers: Optional[dict] = None,
    ) -> None:
        error = {"code": code, "message": message}
        if field is not None:
            error["field"] = field
        self._send_json(status, {"error": error}, headers=headers)

    # --------------------------------------------------------------- routes
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._timed("GET", self._route_get)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._timed("POST", self._route_post)

    def _timed(self, method: str, route_fn: Callable[[str, dict], None]) -> None:
        """Dispatch one request, recording count + latency for /metrics.

        The ``http.*`` fault sites live here, ahead of routing: an
        injected ``http.slow`` stalls the response, an injected
        ``http.reset`` drops the connection without one (recorded with
        status 0) — what a client sees from a server dying mid-request.
        """
        parts = urlsplit(self.path)
        path = parts.path.rstrip("/") or "/"
        query = parse_qs(parts.query)
        self._pending = (method, _route_label(method, path), time.perf_counter())
        # A body no route reads would be parsed as the next request on a
        # kept-alive connection, so a response sent before it is read
        # closes the connection.
        self._unread_body = (
            self.headers.get("Content-Length", "0") != "0"
            or "Transfer-Encoding" in self.headers
        )
        try:
            faults = self.server.state.faults
            if faults.enabled:
                spec = faults.check("http.slow")
                if spec is not None:
                    time.sleep(spec.delay)
                if faults.check("http.reset") is not None:
                    self._count(0)
                    self.close_connection = True
                    try:
                        self.connection.shutdown(socket.SHUT_RDWR)
                    except OSError:  # pragma: no cover - already gone
                        pass
                    return
            route_fn(path, query)
        finally:
            self._count(500)  # no response was sent: an unhandled error

    def _count(self, status: int) -> None:
        """Count this request for /metrics, once and before its response
        is written, so a client that has read the response finds it
        counted by its next scrape."""
        pending, self._pending = self._pending, None
        if pending is not None:
            method, route, t0 = pending
            self.server.state.metrics.observe(
                method, route, status, time.perf_counter() - t0
            )

    def _route_get(self, path: str, query: dict) -> None:
        state = self.server.state
        if path in ("/healthz", "/"):
            self._send_json(
                200,
                {
                    "status": "ok",
                    "version": __version__,
                    "campaigns": len(state.queue),
                    "experiments": len(state.index),
                    "index_rebuilt": state.index_rebuilt,
                    "resumed_campaigns": state.resumed_campaigns,
                },
            )
            return
        if path == "/experiments":
            entries = state.index.entries()
            self._send_json(200, {"count": len(entries), "experiments": entries})
            return
        if path == "/campaigns":
            campaigns = state.queue.list()
            self._send_json(200, {"count": len(campaigns), "campaigns": campaigns})
            return
        if path == "/metrics":
            self._send_body(
                200, self._render_metrics().encode("utf-8"), PROMETHEUS_CONTENT_TYPE
            )
            return
        match = _CAMPAIGN_RE.match(path)
        if match:
            try:
                wait = float(query.get("wait", ["0"])[0])
            except ValueError:
                self._send_error_json(
                    400, "invalid-wait",
                    "wait must be a number of seconds", field="wait",
                )
                return
            if wait < 0:
                self._send_error_json(
                    400, "invalid-wait", "wait must be >= 0", field="wait"
                )
                return
            since = None
            if "version" in query:
                try:
                    since = int(query["version"][0])
                except ValueError:
                    self._send_error_json(
                        400, "invalid-version",
                        "version must be an integer (the version field of "
                        "the last response seen)", field="version",
                    )
                    return
            record = state.queue.get(
                match.group(1), wait=min(wait, MAX_WAIT_SECONDS), since=since
            )
            if record is None:
                self._send_error_json(
                    404, "not-found", f"no campaign {match.group(1)!r}"
                )
            else:
                self._send_json(200, record)
            return
        match = _RESULT_RE.match(path)
        if match:
            key = match.group(1)
            if not _HASH_RE.match(key):
                self._send_error_json(
                    400,
                    "invalid-hash",
                    "config hashes are 64 lowercase hex characters",
                )
                return
            result = load_cached_result(key, cache_dir=state.cache_dir)
            if result is None:
                self._send_error_json(
                    404, "not-found", f"no cached result for config hash {key}"
                )
                return
            payload = result_to_dict(result)
            payload["config_hash"] = key
            self._send_json(200, payload)
            return
        self._send_error_json(404, "not-found", f"no route for GET {path}")

    def _render_metrics(self) -> str:
        """The full Prometheus exposition: HTTP counters + service gauges."""
        state = self.server.state
        counts = state.queue.status_counts()
        robust = state.queue.stats
        families = state.metrics.families() + [
            (
                "repro_http_connections_total",
                "counter",
                "TCP connections accepted (requests per connection is "
                "repro_http_requests_total over this)",
                [(None, float(self.server.connections))],
            ),
            (
                "repro_service_campaigns",
                "gauge",
                "campaigns known to the queue, by lifecycle state",
                [({"state": k}, float(v)) for k, v in sorted(counts.items())],
            ),
            (
                "repro_service_experiments",
                "gauge",
                "entries in the persistent experiment index",
                [(None, float(len(state.index)))],
            ),
            (
                "repro_service_index_rebuilt_total",
                "counter",
                "index entries recovered from the cache at startup",
                [(None, float(state.index_rebuilt))],
            ),
            (
                "repro_service_resumed_campaigns_total",
                "counter",
                "campaigns replayed from the submission journal at startup",
                [(None, float(state.resumed_campaigns))],
            ),
            (
                "repro_campaign_retries_total",
                "counter",
                "campaign cells re-run after a worker-process death",
                [(None, float(robust.get("campaign.retries", 0)))],
            ),
            (
                "repro_campaign_pool_rebuilds_total",
                "counter",
                "broken process pools rebuilt between retry rounds",
                [(None, float(robust.get("campaign.pool_rebuilds", 0)))],
            ),
            (
                "repro_cache_quarantined_total",
                "counter",
                "corrupt cache entries moved to the quarantine directory",
                [(None, float(robust.get("campaign.cache_quarantined", 0)))],
            ),
            (
                "repro_cache_io_errors_total",
                "counter",
                "cache read/write IO errors absorbed, by direction",
                [
                    ({"op": "read"}, float(robust.get("campaign.cache_read_errors", 0))),
                    ({"op": "write"}, float(robust.get("campaign.cache_write_errors", 0))),
                ],
            ),
            (
                "repro_index_append_errors_total",
                "counter",
                "experiment-index journal appends that failed (torn writes)",
                [(None, float(state.index.append_errors))],
            ),
            (
                "repro_journal_append_errors_total",
                "counter",
                "submission-journal appends that failed (restart-resume at risk)",
                [(None, float(state.journal.append_errors))],
            ),
            (
                "repro_faults_injected_total",
                "counter",
                "faults fired by the active injection plan (0 when disabled)",
                [(None, float(state.faults.fired_count()))],
            ),
        ]
        return render_prometheus(families)

    def _route_post(self, path: str, query: dict) -> None:
        state = self.server.state
        if path not in ("/campaigns", "/sweeps"):
            self._send_error_json(404, "not-found", f"no route for POST {path}")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            self._send_error_json(
                411, "length-required", f"POST {path} needs a Content-Length"
            )
            return
        if length > MAX_BODY_BYTES:
            # Refused before reading: a declared length is no promise that
            # the bytes will come, and reading them would buffer them all.
            self._send_error_json(
                413, "body-too-large",
                f"request body is {length} bytes; the limit is {MAX_BODY_BYTES}",
            )
            return
        body = self.rfile.read(length)
        self._unread_body = False
        if len(body) < length:
            # The client stopped sending: a prefix is never a manifest.
            self._send_error_json(
                400, "incomplete-body",
                f"request body ended after {len(body)} of {length} declared bytes",
            )
            return
        try:
            manifest = parse_manifest(body)
            kind = "sweep" if path == "/sweeps" else "campaign"
            record = state.queue.submit(manifest, kind)
        except ManifestError as exc:
            status = 413 if exc.code == "body-too-large" else 400
            self._send_error_json(status, exc.code, exc.message, exc.field)
            return
        except QueueFullError as exc:
            # Overload protection: the serial worker is saturated.  429 is
            # safe to retry (nothing was accepted); Retry-After tells the
            # client when a slot should free up.
            self._send_error_json(
                429, "queue-full", str(exc),
                headers={"Retry-After": f"{exc.retry_after:g}"},
            )
            return
        record["url"] = f"/campaigns/{record['id']}"
        self._send_json(202, record)


class ServiceServer(ThreadingHTTPServer):
    """One thread per connection; simulation stays on the queue worker.

    Connections persist, so :meth:`server_close` also shuts down every
    open one: its handler thread would otherwise go on serving requests
    against the stopped server's state.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], state: ServiceState, verbose: bool = False):
        self.state = state
        self.verbose = verbose
        #: Connections accepted; only the serving thread increments it.
        self.connections = 0
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Lock()
        super().__init__(address, _Handler)

    def process_request(self, request, client_address) -> None:
        self.connections += 1
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        with self._open_lock:
            still_open = list(self._open)
        for request in still_open:
            with contextlib.suppress(OSError):  # already closed by its thread
                request.shutdown(socket.SHUT_RDWR)


def build_server(
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
    **state_kwargs,
) -> ServiceServer:
    """Construct the server and start the queue worker (``port=0`` binds an
    ephemeral port; read it back from ``server.server_address``)."""
    state = ServiceState(**state_kwargs)
    server = ServiceServer((host, port), state, verbose=verbose)
    state.start()
    return server


def serve(
    host: str = "127.0.0.1",
    port: int = 8642,
    verbose: bool = False,
    **state_kwargs,
) -> int:
    """Run the service until SIGTERM/SIGINT; returns the exit code.

    Prints one ``listening on http://...`` line once the socket is bound,
    so wrappers (CI) can wait for readiness; shuts the queue down cleanly
    on the way out.
    """
    server = build_server(host=host, port=port, verbose=verbose, **state_kwargs)
    bound_host, bound_port = server.server_address[:2]
    print(
        f"repro service listening on http://{bound_host}:{bound_port} "
        f"(cache {server.state.cache_dir}, index rebuilt "
        f"{server.state.index_rebuilt} entr{'y' if server.state.index_rebuilt == 1 else 'ies'})",
        flush=True,
    )

    def _terminate(signum, frame):  # noqa: ANN001
        raise SystemExit(0)

    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.server_close()
        server.state.close()
    return 0
