#!/usr/bin/env python
"""CI end-to-end check for the ``repro serve`` HTTP API.

Usage::

    python scripts/service_check.py http://127.0.0.1:8642 first
    python scripts/service_check.py http://127.0.0.1:8642 restarted
    python scripts/service_check.py http://127.0.0.1:8653 killresume CACHE_DIR
    python scripts/service_check.py http://127.0.0.1:8654 parity CACHE_DIR

``first`` runs against a cold server: submit a small campaign, long-poll
it to completion, re-submit the identical manifest and assert it is
served entirely from cache, fetch every result by config hash and the
``/experiments`` index, then scrape ``/metrics`` and parse it as
Prometheus text.  ``restarted`` runs against a *new* server process
on the same cache/index directories and asserts the persistent index
still lists the first phase's runs (and that the cache still serves
them).  ``killresume`` manages its *own* two server processes: it
SIGKILLs the first one mid-campaign, restarts on the same directories,
and asserts the submission journal resumes the campaign under its
original id with every pre-kill cell replayed from cache and all result
digests identical to a clean in-process run.  ``parity`` also manages
its own server: it runs ``repro campaign --journal`` on one small cell,
then starts ``repro serve`` on the same cache and submits the same
request as a manifest, which must come back from the cache under the
config hash (and with the result digest) the CLI journaled.  Every
request carries a timeout, so a dead or wedged server makes this script
exit non-zero instead of hanging.
"""

from __future__ import annotations

import sys

from repro.experiments.campaign import config_hash
from repro.obs.telemetry import parse_prometheus
from repro.service.client import ServiceClient
from repro.service.schemas import manifest_specs

MANIFEST = {
    "algorithms": ["dsmf"],
    "seeds": [1, 2],
    "overrides": {"n_nodes": 40, "load_factor": 1, "total_time": 21600.0},
}


def expected_hashes() -> set[str]:
    return {config_hash(spec.config) for spec in manifest_specs(MANIFEST)}


def submit_and_wait(client: ServiceClient) -> dict:
    record = client.submit(MANIFEST)
    print(f"submitted campaign {record['id']} "
          f"({record['progress']['total']} configs)", flush=True)
    record = client.wait(record["id"], timeout=240)
    assert record["status"] == "done", record
    assert record["error"] is None, record
    for run in record["runs"]:
        assert run["status"] == "done", run
    print(f"campaign {record['id']} done "
          f"({record['n_cached']}/{record['progress']['total']} from cache)",
          flush=True)
    return record


def check_results_and_index(client: ServiceClient) -> None:
    hashes = expected_hashes()
    for key in sorted(hashes):
        result = client.result(key)
        assert result["result_digest"], result
        assert result["config_hash"] == key
    listed = {entry["config_hash"] for entry in client.experiments()}
    missing = hashes - listed
    assert not missing, f"experiment index is missing {sorted(missing)}"
    print(f"/experiments lists all {len(hashes)} expected hashes "
          f"({len(listed)} total)", flush=True)


def check_metrics(client: ServiceClient) -> None:
    """Scrape ``/metrics`` and assert it is well-formed Prometheus text
    with the request counters this script itself generated."""
    samples = parse_prometheus(client.metrics())  # raises on malformed lines
    assert samples, "empty /metrics exposition"
    requests = {k: v for k, v in samples.items()
                if k.startswith("repro_http_requests_total")}
    assert requests, f"no request counters in /metrics: {sorted(samples)[:5]}"
    assert sum(requests.values()) > 0
    done = samples.get('repro_service_campaigns{state="done"}')
    assert done is not None and done >= 1, samples
    print(f"/metrics OK ({len(samples)} samples, "
          f"{sum(requests.values()):.0f} requests counted)", flush=True)


def phase_first(client: ServiceClient) -> None:
    cold = submit_and_wait(client)
    assert cold["n_cached"] == 0, f"cold run unexpectedly cached: {cold}"
    replay = submit_and_wait(client)
    assert replay["n_cached"] == replay["progress"]["total"], (
        f"resubmission was not served from cache: {replay}"
    )
    assert all(run["from_cache"] for run in replay["runs"]), replay
    check_results_and_index(client)
    check_metrics(client)


def phase_restarted(client: ServiceClient) -> None:
    health = client.health()
    assert health["experiments"] >= len(expected_hashes()), health
    check_results_and_index(client)
    replay = submit_and_wait(client)
    assert replay["n_cached"] == replay["progress"]["total"], (
        f"restarted server re-ran cached configs: {replay}"
    )


#: Six cells so the SIGKILL window (after the first journaled completion,
#: before the last) is seconds wide.
KILL_MANIFEST = {
    "algorithms": ["dsmf"],
    "seeds": [11, 12, 13, 14, 15, 16],
    "overrides": {"n_nodes": 40, "load_factor": 1, "total_time": 21600.0},
}


def _spawn_server(port: int, cache_dir: str):
    import subprocess

    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.experiments.cli", "serve",
            "--port", str(port), "--jobs", "1", "--cache-dir", cache_dir,
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def phase_killresume(base_url: str, cache_dir: str) -> None:
    """SIGKILL a server mid-campaign; restart; assert journal resume."""
    import signal
    import time
    from urllib.parse import urlsplit

    from repro.api import run_manifest
    from repro.service.schemas import manifest_specs as specs_of

    port = urlsplit(base_url).port
    assert port, f"base URL needs an explicit port: {base_url}"

    # Expected digests from a clean in-process run (no cache, no server).
    clean = run_manifest(KILL_MANIFEST, use_cache=False)
    expected = {run.cache_key: run.digest() for run in clean}

    server = _spawn_server(port, cache_dir)
    client = ServiceClient(base_url, timeout=30.0)
    try:
        client.wait_healthy(timeout=60)
        record = client.submit(KILL_MANIFEST)
        cid, total = record["id"], record["progress"]["total"]
        print(f"submitted campaign {cid} ({total} configs)", flush=True)
        deadline = time.monotonic() + 180
        while True:
            record = client.campaign(cid)
            completed = record["progress"]["completed"]
            if 1 <= completed < total:
                break
            assert record["status"] != "done", (
                "campaign finished before the kill window; enlarge KILL_MANIFEST"
            )
            assert time.monotonic() < deadline, "no completed cell within 180s"
            time.sleep(0.05)
        server.send_signal(signal.SIGKILL)
        server.wait(30)
        print(f"SIGKILLed server with {completed}/{total} cells done", flush=True)
    except BaseException:
        server.kill()
        server.wait(30)
        raise

    server = _spawn_server(port, cache_dir)
    try:
        client.wait_healthy(timeout=60)
        health = client.health()
        assert health["resumed_campaigns"] >= 1, health
        record = client.wait(cid, timeout=240)
        assert record["status"] == "done", record
        assert record["resumed"] is True, record
        assert record["n_cached"] >= completed, (
            f"pre-kill cells were re-executed: {record['n_cached']} cached "
            f"vs {completed} done before the kill"
        )
        hashes = {config_hash(s.config) for s in specs_of(KILL_MANIFEST)}
        for key in sorted(hashes):
            assert client.result(key)["result_digest"] == expected[key], key
        print(
            f"campaign {cid} resumed under its original id: "
            f"{record['n_cached']}/{total} from cache, all digests match",
            flush=True,
        )
    finally:
        server.terminate()
        server.wait(30)


#: One small cell, spelled as `repro campaign` flags over the default
#: `small` profile: the overrides replace that profile's whole scale, so
#: the cell is the manifest's cell over the service's paper-scale base.
PARITY_MANIFEST = {
    "algorithms": ["dsmf"],
    "seeds": [21],
    "overrides": {"n_nodes": 40, "load_factor": 1, "total_time": 21600.0},
}


def phase_parity(base_url: str, cache_dir: str) -> None:
    """The CLI and the service key one request to one cache entry."""
    import subprocess
    from pathlib import Path
    from urllib.parse import urlsplit

    from repro.experiments.journal import RunJournal

    port = urlsplit(base_url).port
    assert port, f"base URL needs an explicit port: {base_url}"
    journal = Path(cache_dir) / "parity-campaign.jsonl"
    subprocess.run(
        [
            sys.executable, "-m", "repro.experiments.cli", "campaign",
            "--algorithms", *PARITY_MANIFEST["algorithms"],
            "--seeds", *map(str, PARITY_MANIFEST["seeds"]),
            *(f"--set={k}={v}" for k, v in PARITY_MANIFEST["overrides"].items()),
            "--cache-dir", cache_dir, "--journal", str(journal), "--quiet",
        ],
        check=True,
        timeout=240,
    )
    [(key, digest)] = RunJournal.load(journal).done.items()
    print(f"repro campaign journaled config hash {key[:12]}", flush=True)

    server = _spawn_server(port, cache_dir)
    try:
        client = ServiceClient(base_url, timeout=30.0)
        client.wait_healthy(timeout=60)
        record = client.wait(client.submit(PARITY_MANIFEST)["id"], timeout=120)
        assert record["status"] == "done", record
        [run] = record["runs"]
        assert run["config_hash"] == key, (run, key)
        assert run["from_cache"] is True, run
        assert client.result(key)["result_digest"] == digest, key
        print(f"service replayed {key[:12]} from the CLI's cache entry", flush=True)
    finally:
        server.terminate()
        server.wait(30)


def main(argv: list[str]) -> int:
    managed = ("killresume", "parity")  # phases that run their own server
    if (
        len(argv) < 2
        or argv[1] not in ("first", "restarted", *managed)
        or (argv[1] in managed) != (len(argv) == 3)
    ):
        print(
            f"usage: {sys.argv[0]} BASE_URL first|restarted\n"
            f"       {sys.argv[0]} BASE_URL killresume|parity CACHE_DIR",
            file=sys.stderr,
        )
        return 2
    base_url, phase = argv[:2]
    if phase in managed:
        (phase_killresume if phase == "killresume" else phase_parity)(base_url, argv[2])
        print(f"phase {phase!r} OK", flush=True)
        return 0
    client = ServiceClient(base_url, timeout=30.0)
    client.wait_healthy(timeout=60)
    print(f"service healthy at {base_url} (phase: {phase})", flush=True)
    (phase_first if phase == "first" else phase_restarted)(client)
    print(f"phase {phase!r} OK", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
