"""Thin stdlib client for the ``repro serve`` HTTP API.

Used by the CI service job and the concurrent-submission stress benchmark;
also the easiest programmatic entry point::

    from repro.service import ServiceClient
    with ServiceClient("http://127.0.0.1:8642") as client:
        record = client.submit({"algorithms": ["dsmf"], "seeds": [1],
                                "overrides": {"n_nodes": 40}})
        record = client.wait(record["id"])
        for run in record["runs"]:
            print(run["label"], client.result(run["config_hash"])["act"])

Connections persist: a call takes an idle HTTP/1.1 connection from the
client's pool, or opens one, and hands it back once the response has been
read to its end, so submit, long-poll and result share one TCP
connection.  Close the client when done (``client.close()``, or a
``with`` block as above); a client dropped unclosed closes its idle
connections when it is garbage-collected.

Every request carries a timeout, so a dead or wedged server surfaces as
an exception instead of a hang.  Transient failures are retried where
that is safe: idempotent GETs on connection errors (reset, refused, torn
response) with capped jittered exponential backoff, and *any* method on
``429``/``503`` — the server rejected before doing work — honoring the
``Retry-After`` header when one is sent.
"""

from __future__ import annotations

import http.client
import json
import random
import select
import threading
import time
import weakref
from typing import Mapping, Optional

__all__ = ["ServiceClient", "ServiceError"]

#: Statuses that are safe to retry for any method: the server refused the
#: request before acting on it (overload / not ready).
_RETRY_STATUSES = (429, 503)


class ServiceError(RuntimeError):
    """A non-2xx response; carries the server's structured error body."""

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        retry_after: Optional[float] = None,
    ):
        super().__init__(f"HTTP {status} [{code}]: {message}")
        self.status = status
        self.code = code
        self.message = message
        #: Parsed ``Retry-After`` header (seconds), when the server sent one.
        self.retry_after = retry_after


class ServiceClient:
    """Minimal blocking client over pooled ``http.client`` connections.

    Threads may share one client: a call holds its connection for one
    request and response, so concurrent calls each use their own.

    Parameters
    ----------
    base_url:
        ``http://`` or ``https://`` URL of the server; a path prefix is
        kept in front of every route.
    timeout:
        Per-request socket timeout.
    retries:
        Transient-failure retries per request (0 disables).  Connection
        errors are only retried on GETs — a torn POST may have been
        accepted, and resubmitting it would double-submit; 429/503 are
        retried for any method.
    backoff:
        Base retry delay; doubles per attempt, capped at ``backoff_cap``,
        jittered ±50% so concurrent clients don't retry in lockstep.
        ``Retry-After`` from the server overrides the computed delay.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 2,
        backoff: float = 0.25,
        backoff_cap: float = 5.0,
    ):
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if backoff < 0 or backoff_cap < 0:
            raise ValueError("backoff delays must be >= 0")
        self.base_url = base_url.rstrip("/")
        scheme, _, rest = self.base_url.partition("://")
        if scheme.lower() not in ("http", "https"):
            raise ValueError(f"base_url must be an http:// or https:// URL: {base_url!r}")
        self._netloc, slash, prefix = rest.partition("/")
        self._prefix = slash + prefix
        self._connection_class = (
            http.client.HTTPSConnection if scheme.lower() == "https"
            else http.client.HTTPConnection
        )
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self._rng = random.Random()
        self._lock = threading.Lock()
        self._idle: list[http.client.HTTPConnection] = []
        weakref.finalize(self, _close_idle, self._idle, self._lock)

    def close(self) -> None:
        """Close the idle connections; a later call opens a new one."""
        _close_idle(self._idle, self._lock)

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------ plumbing
    def _sleep_before_retry(self, attempt: int, retry_after: Optional[float]) -> None:
        """Capped exponential backoff with ±50% jitter; the server's
        ``Retry-After`` wins when present."""
        if retry_after is not None:
            delay = min(retry_after, self.backoff_cap)
        else:
            delay = min(self.backoff * 2**attempt, self.backoff_cap)
            delay *= 0.5 + self._rng.random()
        if delay > 0:
            time.sleep(delay)

    def _checkout(self, timeout: float) -> http.client.HTTPConnection:
        """An idle connection the server has not closed, or a new one.

        An idle socket that polls readable has reached EOF (or holds bytes
        no request asked for), so it is dropped before anything is sent
        on it: a request written into a closed connection may fail after
        it reached the server, and a POST must never be sent twice.
        """
        while True:
            with self._lock:
                conn = self._idle.pop() if self._idle else None
            if conn is None:
                return self._connection_class(self._netloc, timeout=timeout)
            if select.select([conn.sock], [], [], 0)[0]:
                conn.close()
                continue
            conn.sock.settimeout(timeout)
            return conn

    def _exchange(
        self, method: str, path: str, body: Optional[bytes], headers: dict,
        timeout: float,
    ) -> tuple[http.client.HTTPResponse, bytes]:
        """One request and its whole response on a pooled connection.

        The connection returns to the pool only when its response was
        read to the end and did not ask to close.  Any exception closes
        it: after a timeout it may still hold an unread response.
        """
        conn = self._checkout(timeout)
        try:
            try:
                conn.request(method, self._prefix + path, body=body, headers=headers)
            except (BrokenPipeError, ConnectionResetError):
                # The server may have answered before reading the whole
                # body (a 413) and closed; its response is still readable.
                if conn.sock is None:
                    raise
            response = conn.getresponse()
            data = response.read()
        except BaseException:
            conn.close()
            raise
        if response.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.append(conn)
        return response, data

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Mapping] = None,
        raw: bool = False,
        timeout: Optional[float] = None,
    ):
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        for attempt in range(self.retries + 1):
            try:
                response, data = self._exchange(
                    method, path, body, headers,
                    self.timeout if timeout is None else timeout,
                )
            except (http.client.HTTPException, OSError):
                # Connection-level failure: reset, refused, torn response.
                # Only GETs are safely repeatable — a torn POST may have
                # been accepted server-side.
                if method == "GET" and attempt < self.retries:
                    self._sleep_before_retry(attempt, None)
                    continue
                raise
            if 200 <= response.status < 300:
                text = data.decode("utf-8")
                return text if raw else json.loads(text)
            try:
                error = json.loads(data.decode("utf-8")).get("error", {})
            except ValueError:
                error = {}
            retry_after = _parse_retry_after(response.getheader("Retry-After"))
            err = ServiceError(
                response.status,
                error.get("code", "http-error"),
                error.get("message", data.decode("utf-8", errors="replace")[:200]),
                retry_after=retry_after,
            )
            if response.status in _RETRY_STATUSES and attempt < self.retries:
                self._sleep_before_retry(attempt, retry_after)
                continue
            raise err

    # -------------------------------------------------------------- routes
    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def submit(self, manifest: Mapping) -> dict:
        """``POST /campaigns``; returns the 202 record (id, runs, hashes)."""
        return self._request("POST", "/campaigns", payload=manifest)

    def submit_sweep(self, manifest: Mapping) -> dict:
        """``POST /sweeps``; returns the 202 record (id, kind "sweep").

        Poll with :meth:`campaign`/:meth:`wait` — probe runs appear as the
        adaptive search chooses them, and the finished record carries the
        capacity-envelope ``report``.
        """
        return self._request("POST", "/sweeps", payload=manifest)

    def campaign(
        self,
        campaign_id: str,
        wait: Optional[float] = None,
        version: Optional[int] = None,
    ) -> dict:
        """One campaign's status; ``wait`` seconds long-polls.

        With ``wait``, the server holds the response until the campaign
        changes state (or its 30s cap elapses), so progress arrives the
        moment it happens.  Pass ``version`` (the ``version`` field of the
        last response seen) so a transition that landed *between* two
        polls returns immediately instead of parking the full ``wait``.
        The request timeout is stretched to cover the park time.
        """
        if wait is None:
            return self._request("GET", f"/campaigns/{campaign_id}")
        query = f"?wait={wait:g}"
        if version is not None:
            query += f"&version={version:d}"
        return self._request(
            "GET",
            f"/campaigns/{campaign_id}{query}",
            timeout=self.timeout + wait,
        )

    def campaigns(self) -> list[dict]:
        return self._request("GET", "/campaigns")["campaigns"]

    def result(self, config_hash: str) -> dict:
        """A cached :class:`RunResult` as JSON (404 -> ServiceError)."""
        return self._request("GET", f"/results/{config_hash}")

    def experiments(self) -> list[dict]:
        return self._request("GET", "/experiments")["experiments"]

    def metrics(self) -> str:
        """``GET /metrics`` — the raw Prometheus text exposition."""
        return self._request("GET", "/metrics", raw=True)

    # ------------------------------------------------------------- helpers
    def wait(self, campaign_id: str, timeout: float = 120.0, poll: float = 5.0) -> dict:
        """Long-poll until the campaign reaches ``done``/``failed``.

        Each round trip parks on the server up to roughly ``poll`` seconds
        and returns the instant the campaign changes state, so completion
        is seen with no polling lag.  The actual park time is jittered
        ±25% per round trip — N clients started together (the stress
        benchmark, a CI fan-out) would otherwise re-poll on the same tick
        forever, hitting the server in synchronized herds.  The last-seen
        ``version`` rides along on every poll, closing the race where a
        transition lands between two round trips (without it, such a poll
        parks the full ``poll`` seconds despite the change having already
        happened).  Raises :class:`TimeoutError` if the campaign isn't
        terminal within ``timeout`` seconds (the hung-request guard the CI
        job relies on).
        """
        deadline = time.monotonic() + timeout
        version: Optional[int] = None
        while True:
            remaining = deadline - time.monotonic()
            jittered = poll * (0.75 + 0.5 * self._rng.random())
            record = self.campaign(
                campaign_id,
                wait=max(0.0, min(jittered, remaining)),
                version=version,
            )
            if record["status"] in ("done", "failed"):
                return record
            version = record.get("version")
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"campaign {campaign_id} still {record['status']!r} "
                    f"after {timeout:.0f}s "
                    f"({record['progress']['completed']}/{record['progress']['total']} done)"
                )

    def wait_healthy(self, timeout: float = 30.0, poll: float = 0.2) -> dict:
        """Poll ``/healthz`` until the server answers (startup barrier)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.health()
            except (ServiceError, OSError):
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"service at {self.base_url} not healthy after {timeout:.0f}s"
                    ) from None
                time.sleep(poll)


def _close_idle(idle: list, lock: threading.Lock) -> None:
    """Close and forget the pooled idle connections."""
    with lock:
        conns, idle[:] = idle[:], []
    for conn in conns:
        conn.close()


def _parse_retry_after(value: Optional[str]) -> Optional[float]:
    """Parse a ``Retry-After`` header (delta-seconds form only)."""
    if value is None:
        return None
    try:
        seconds = float(value)
    except ValueError:
        return None
    return max(0.0, seconds)
