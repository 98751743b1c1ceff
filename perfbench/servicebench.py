"""The service workloads: ``repro serve`` in a subprocess, one closed loop.

Set-up starts the server :data:`SERVER_STARTS` times, each on a fresh cache
directory under the checkout, and times ``Popen`` until ``/healthz``
answers; the last server takes the load.  One ``ServiceClient`` (no
retries) then runs closed-loop passes of ``PASS_SIZE`` requests — each
request is submit, long-poll until the campaign ends, fetch the result —
until ``--seconds`` have passed and the tail has enough samples.

* ``service-cold``: every pass submits seeds no earlier pass used, so each
  request simulates and writes the cache (pickle + fsync, index and
  journal appends).  Every run record must say ``from_cache: false``.
* ``service-hot``: an untimed priming pass fills the cache, then every
  pass resubmits the same seeds.  Every record must say
  ``from_cache: true`` and every result must carry the priming digest.

The client samples the host's speed (:mod:`perfbench.hostspeed`): a
burst of probes before and after each server start, and a probe before
each request of a measured pass (left out of the pass's time).  Every
end-to-end time is reported at the reference speed.  ``run.py`` pins the
client to one CPU and the servers inherit the pin, so the probes sample
the CPU the server computes on; in a closed loop the client only waits
while the server works, so the pin costs no parallelism.

A request that errors, times out or does not end ``done`` is a failed
operation; the loop goes on.  Servers are stopped with SIGTERM and must
exit 0, on error paths too.
"""

from __future__ import annotations

import contextlib
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, sleep
from typing import Optional

from perfbench import stats
from perfbench.hostspeed import HostSpeed
from perfbench.workloads import HARD_STOP_S, TAIL_Q, service_manifest, service_seeds

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for the servers' cache directories, inside the checkout.
SCRATCH = ROOT / ".perfbench_tmp"

SERVER_STARTS = 5
START_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 30.0

_LISTENING = re.compile(r"listening on (http://\S+)")
#: Handler routes scraped from ``/metrics``, metric suffix -> route label.
HANDLER_ROUTES = {
    "campaigns": "/campaigns",
    "campaign": "/campaigns/{id}",
    "results": "/results/{hash}",
}


class ServerError(RuntimeError):
    pass


class Server:
    """One ``repro serve --port 0 --jobs 1`` subprocess on its own cache."""

    def __init__(self, workdir: Path):
        from repro.service.client import ServiceClient

        self.workdir = workdir
        self.log_path = workdir / "server.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        t0 = perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--host", "127.0.0.1", "--port", "0", "--jobs", "1",
                    "--cache-dir", str(workdir / "cache"),
                ],
                stdout=log,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
                env=env,
                cwd=str(ROOT),
            )
        try:
            url = self._await_url(t0 + START_TIMEOUT_S)
            self.client = ServiceClient(url, timeout=REQUEST_TIMEOUT_S, retries=0)
            self.client.wait_healthy(timeout=START_TIMEOUT_S, poll=0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_s = perf_counter() - t0

    def _await_url(self, deadline: float) -> str:
        while True:
            match = _LISTENING.search(self.log_path.read_text())
            if match:
                return match.group(1)
            if self.proc.poll() is not None:
                raise ServerError(f"server exited with {self.proc.returncode} before listening")
            if perf_counter() >= deadline:
                raise ServerError("server did not print its listening line in time")
            sleep(0.002)

    def alive(self) -> bool:
        return self.proc.poll() is None

    def stop(self) -> int:
        """SIGTERM, then wait; a server that ignores it is killed."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                return self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                return -signal.SIGKILL
        return self.proc.returncode


@dataclass
class Request:
    seed: int
    latency_ms: float = 0.0
    submit_ms: float = 0.0
    wait_ms: float = 0.0
    result_ms: float = 0.0
    from_cache: Optional[bool] = None
    digest: Optional[str] = None
    problem: Optional[str] = None


def request(client, seed: int) -> Request:
    """Submit one manifest, long-poll it to the end, fetch its result."""
    from repro.service.client import ServiceError

    req = Request(seed)
    t0 = perf_counter()
    try:
        record = client.submit(service_manifest(seed))
        t1 = perf_counter()
        record = client.wait(record["id"], timeout=REQUEST_TIMEOUT_S, poll=5.0)
        t2 = perf_counter()
        runs = record.get("runs") or []
        if record.get("status") != "done" or len(runs) != 1 or runs[0].get("status") != "done":
            req.problem = f"seed {seed}: campaign ended {record.get('status')!r}"
            return req
        result = client.result(runs[0]["config_hash"])
        t3 = perf_counter()
    except (ServiceError, OSError, TimeoutError, ValueError, KeyError) as exc:
        req.problem = f"seed {seed}: {type(exc).__name__}: {exc}"
        return req
    req.latency_ms = (t3 - t0) * 1000.0
    req.submit_ms = (t1 - t0) * 1000.0
    req.wait_ms = (t2 - t1) * 1000.0
    req.result_ms = (t3 - t2) * 1000.0
    req.from_cache = bool(runs[0].get("from_cache"))
    req.digest = result.get("result_digest")
    return req


def local_digest(seed: int) -> str:
    """The digest this process computes for one manifest seed."""
    from repro.experiments.campaign import result_digest
    from repro.grid.system import P2PGridSystem
    from repro.service.schemas import manifest_specs

    (spec,) = manifest_specs(service_manifest(seed))
    return result_digest(P2PGridSystem(spec.config).run())


@dataclass
class Pass:
    wall_s: float
    requests: list[Request] = field(default_factory=list)
    #: Host time -> reference-speed time (see :mod:`perfbench.hostspeed`).
    scale: float = 1.0

    def ok(self) -> list[Request]:
        """The requests that ended with a run record."""
        return [r for r in self.requests if r.problem is None and r.from_cache is not None]

    @property
    def hits(self) -> int:
        return sum(1 for r in self.requests if r.from_cache)

    @property
    def misses(self) -> int:
        return sum(1 for r in self.requests if r.from_cache is False)


def run_pass(client, seeds: list[int], speed: Optional[HostSpeed] = None) -> Pass:
    """One closed-loop pass; with ``speed``, a probe runs before each
    request and the pass is scaled by them."""
    mark = speed.mark() if speed is not None else 0
    paused = 0.0
    requests = []
    t0 = perf_counter()
    for s in seeds:
        if speed is not None:
            paused += speed.probe()
        requests.append(request(client, s))
    wall_s = perf_counter() - t0 - paused
    scale = speed.scale_since(mark) if speed is not None else 1.0
    return Pass(wall_s=wall_s, requests=requests, scale=scale)


def check_pass(p: Pass, want_cached: bool, digests: dict[int, str]) -> list[str]:
    """Per-request problems of one pass (one entry per failed request)."""
    problems = []
    for r in p.requests:
        if r.problem is not None:
            problems.append(r.problem)
        elif r.from_cache is not want_cached:
            problems.append(
                f"seed {r.seed}: from_cache={r.from_cache}, expected {want_cached}"
            )
        elif not r.digest:
            problems.append(f"seed {r.seed}: result has no digest")
        elif r.seed in digests and digests[r.seed] != r.digest:
            problems.append(f"seed {r.seed}: digest {r.digest[:12]} != {digests[r.seed][:12]}")
    return problems


def handler_ms(before: str, after: str) -> dict[str, float]:
    """Mean handler time per route (ms) of the requests served between two
    ``/metrics`` scrapes."""
    from repro.obs.telemetry import parse_prometheus

    first, last = parse_prometheus(before), parse_prometheus(after)

    def grew(key: str) -> float:
        return last.get(key, 0.0) - first.get(key, 0.0)

    out = {}
    for name, route in HANDLER_ROUTES.items():
        count = grew(f'repro_http_request_seconds_count{{route="{route}"}}')
        total = grew(f'repro_http_request_seconds_sum{{route="{route}"}}')
        out[f"service.handler_ms.{name}"] = total / count * 1000.0 if count else 0.0
    return out


def scrape_metrics(server: Server, problems: list[str]) -> Optional[str]:
    from repro.service.client import ServiceError

    try:
        return server.client.metrics()
    except (ServiceError, OSError, ValueError) as exc:
        problems.append(f"/metrics scrape failed: {exc}")
        return None


def run_service(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of a service workload; returns the report."""
    hot = workload == "service-hot"
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
    servers: list[Server] = []
    problems: list[str] = []
    attempted = failed = 0
    setups: list[float] = []
    passes: list[Pass] = []
    scrape: dict[str, float] = {}
    speed = HostSpeed()
    try:
        for k in range(SERVER_STARTS):
            attempted += 1
            workdir = scratch / f"server{k}"
            workdir.mkdir()
            mark = speed.mark()
            speed.burst()
            try:
                server = Server(workdir)
            except (ServerError, OSError, TimeoutError) as exc:
                failed += 1
                problems.append(f"server start {k}: {exc}")
                continue
            servers.append(server)
            speed.burst()
            setups.append(server.setup_s * speed.scale_since(mark))
            if k < SERVER_STARTS - 1 and not _stop(server, problems):
                failed += 1
        server = servers[-1] if servers and servers[-1].alive() else None
        if server is None:
            problems.append("no server to drive")
        else:
            digests: dict[int, str] = {}
            if hot:
                priming = run_pass(server.client, service_seeds(workload, seed, 0))
                attempted += len(priming.requests)
                bad = check_pass(priming, False, digests)
                failed += len(bad)
                problems.extend(bad)
                digests = {r.seed: r.digest for r in priming.requests if r.digest}
            # Handler times cover the measured passes only, not the priming.
            before = scrape_metrics(server, problems) if trace else None
            start = perf_counter()
            pass_no = 0
            while True:
                pass_no += 1
                p = run_pass(server.client, service_seeds(workload, seed, pass_no), speed)
                attempted += len(p.requests)
                bad = check_pass(p, hot, digests)
                failed += len(bad)
                problems.extend(bad)
                passes.append(p)
                n = sum(len(q.requests) for q in passes)
                elapsed = perf_counter() - start
                if elapsed >= seconds and n >= stats.samples_needed(TAIL_Q):
                    break
                if not server.alive():
                    failed += 1
                    problems.append(f"server died with code {server.proc.returncode}")
                    break
                if elapsed >= HARD_STOP_S:
                    break
            # One simulated request per run is re-run here, untimed: the
            # service must compute what the library computes.
            simulated = priming.requests if hot else passes[0].requests
            sample = next((r for r in simulated if r.digest), None)
            if sample is not None:
                attempted += 1
                if sample.digest != local_digest(sample.seed):
                    failed += 1
                    problems.append(f"seed {sample.seed}: service digest differs from a local run")
            after = scrape_metrics(server, problems) if before is not None else None
            if after is not None:
                scrape = handler_ms(before, after)
    finally:
        for server in servers:
            if server.proc.returncode is None and not _stop(server, problems):
                failed += 1
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()  # only when no other run is using it
    report = {"attempted": attempted, "failed": failed, "problems": problems}
    ok = [r for p in passes for r in p.ok()]
    if setups and ok:
        report["metrics"] = (
            traced_metrics(passes, ok, scrape) if trace else end_to_end(setups, passes)
        )
    return report


def _stop(server: Server, problems: list[str]) -> bool:
    """Stop one server; False (and a problem) unless it exited 0."""
    code = server.stop()
    if code != 0:
        problems.append(f"{server.workdir.name} exited with code {code} on SIGTERM")
    return code == 0


def children_peak_rss_mb() -> float:
    """Largest peak resident set among waited-for children (the servers)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def end_to_end(setups: list[float], passes: list[Pass]) -> dict[str, float]:
    """Medians and the tail of times already at the reference speed
    (``setups``) or scaled to it here (``passes``)."""
    latencies = [r.latency_ms * p.scale for p in passes for r in p.ok()]
    metrics = {
        "setup_s": stats.median(setups),
        "run_s": stats.median([p.wall_s * p.scale for p in passes]),
        "peak_rss_mb": children_peak_rss_mb(),
        "p50_ms": stats.median(latencies),
    }
    groups = stats.windows(latencies, stats.samples_needed(TAIL_Q))
    if groups:
        metrics["p90_ms"] = stats.median_tail(groups, TAIL_Q)
    return metrics


def traced_metrics(
    passes: list[Pass], ok: list[Request], scrape: dict[str, float]
) -> dict[str, float]:
    metrics = {
        "service.submit_ms": stats.median([r.submit_ms for r in ok]),
        "service.wait_ms": stats.median([r.wait_ms for r in ok]),
        "service.result_ms": stats.median([r.result_ms for r in ok]),
        "campaign.cache_hits": stats.median([p.hits for p in passes]),
        "campaign.cache_misses": stats.median([p.misses for p in passes]),
        "trace.overhead_s": 0.0,
    }
    metrics.update(scrape)
    return metrics
