"""Request bodies and JSON serialization for the service layer.

A *manifest* is the JSON body of ``POST /campaigns`` (or ``POST
/sweeps``)::

    {
      "scenario": "poisson-steady",
      "algorithms": ["dsmf", "dheft"],
      "seeds": [1, 2, 3],
      "overrides": {"n_nodes": 40, "total_time": 21600.0}
    }

Validation and resolution are :mod:`repro.experiments.request`'s, the
same code ``repro campaign``, ``repro sweep`` and :mod:`repro.api` call;
every rejection is a :class:`ManifestError` with a stable ``code``, which
the HTTP layer turns into a 4xx JSON body.  Two things are the service's
own: its base is the paper-scale ``ExperimentConfig()`` (the CLI's is
``--profile``), and it caps the body size and the length of the
algorithm, seed and scenario lists, so that one request stays one
campaign, not a denial of service.  Nor may a client name a file for the
server to read: the path fields are refused as overrides, and only the
scenario presets that carry their own paths reach the disk.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Mapping

from repro.experiments.request import ManifestError, resolve

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.campaign import RunSpec
    from repro.experiments.request import Request
    from repro.metrics.collectors import RunResult

__all__ = [
    "MAX_ALGORITHMS",
    "MAX_BODY_BYTES",
    "MAX_SCENARIOS",
    "MAX_SEEDS",
    "ManifestError",
    "admit",
    "manifest_specs",
    "parse_manifest",
    "result_to_dict",
]

#: Request bodies above this size are rejected outright (HTTP 413).
MAX_BODY_BYTES = 256 * 1024
#: Request-shape caps: a manifest is one campaign, not a denial of service.
MAX_ALGORITHMS = 16
MAX_SEEDS = 64
MAX_SCENARIOS = 8
_LIMITS = {"algorithms": MAX_ALGORITHMS, "seeds": MAX_SEEDS, "scenarios": MAX_SCENARIOS}
#: Config fields that name a server-side file; no client may override them.
_PATH_FIELDS = ("workload_path", "availability_path")


def parse_manifest(body: bytes) -> dict:
    """Decode a request body into a manifest mapping.

    Raises :class:`ManifestError` (``body-too-large`` / ``malformed-json``
    / ``malformed-manifest``) instead of letting decode errors escape.
    """
    if len(body) > MAX_BODY_BYTES:
        raise ManifestError(
            "body-too-large",
            f"request body is {len(body)} bytes; the limit is {MAX_BODY_BYTES}",
        )
    try:
        manifest = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and integer literals past
        # the int-to-str digit limit; RecursionError, nesting too deep.
        raise ManifestError(
            "malformed-json", f"request body is not valid JSON: {exc}"
        ) from None
    if not isinstance(manifest, dict):
        raise ManifestError(
            "malformed-manifest",
            f"manifest must be a JSON object, got {type(manifest).__name__}",
        )
    return manifest


def admit(kind: str, manifest: Mapping) -> "Request":
    """Resolve a ``campaign`` or ``sweep`` manifest as the service runs it:
    over ``ExperimentConfig()``, within the service's list caps, and with
    no path override."""
    overrides = manifest.get("overrides") if isinstance(manifest, Mapping) else None
    if isinstance(overrides, Mapping):
        for name in _PATH_FIELDS:
            if name in overrides:
                raise ManifestError(
                    "invalid-overrides",
                    f"override {name!r} would make the server read a file; "
                    "only the scenario presets name files",
                    field="overrides",
                )
    return resolve(kind, manifest, limits=_LIMITS)


def manifest_specs(manifest: Mapping) -> "list[RunSpec]":
    """The run specs the service runs for a campaign manifest."""
    return list(admit("campaign", manifest).specs)


def result_to_dict(result: "RunResult") -> dict:
    """JSON-safe dump of a :class:`~repro.metrics.collectors.RunResult`.

    Everything the pickled cache entry knows — headline metrics, the
    availability series, per-workflow records, hourly samples and the
    resolved config — plus the determinism ``result_digest`` so a client
    can fingerprint-compare responses across machines.
    """
    from repro.experiments.campaign import result_digest

    # getattr: cache entries pickled before the observability layer have
    # no telemetry slot; old entries must keep deserialising.
    telemetry = getattr(result, "telemetry", None)
    return {
        "telemetry": None if telemetry is None else telemetry.to_dict(),
        "algorithm": result.algorithm,
        "seed": result.seed,
        "n_nodes": result.n_nodes,
        "n_workflows": result.n_workflows,
        "total_time": float(result.total_time),
        "act": float(result.act),
        "ae": float(result.ae),
        "n_done": result.n_done,
        "n_failed": result.n_failed,
        "events_executed": result.events_executed,
        "wall_seconds": float(result.wall_seconds),
        "rss_mean": float(result.rss_mean),
        "n_departures": result.n_departures,
        "n_revivals": result.n_revivals,
        "n_tasks_lost": result.n_tasks_lost,
        "n_tasks_recovered": result.n_tasks_recovered,
        "avg_alive_fraction": float(result.avg_alive_fraction),
        "availability_ae": float(result.availability_ae),
        "result_digest": result_digest(result),
        "config": result.config,
        "records": [
            {
                "wid": r.wid,
                "home_id": r.home_id,
                "n_tasks": r.n_tasks,
                "eft": float(r.eft),
                "submit_time": float(r.submit_time),
                "status": r.status,
                "completion_time": (
                    None if r.completion_time is None else float(r.completion_time)
                ),
                "failure_reason": r.failure_reason,
            }
            for r in result.records
        ],
        "samples": [
            {
                "time": float(s.time),
                "throughput": s.throughput,
                "act": float(s.act),
                "ae": float(s.ae),
                "rss_mean": float(s.rss_mean),
                "alive_nodes": s.alive_nodes,
                "departed": s.departed,
                "revived": s.revived,
            }
            for s in result.samples
        ],
    }
