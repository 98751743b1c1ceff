"""Simulation-as-a-service: an HTTP front end over the campaign layer.

The ROADMAP's north star — serving heavy traffic rather than one-shot CLI
invocations — needs a long-running process in front of
:class:`~repro.experiments.campaign.CampaignRunner` and its
content-addressed result cache.  This package provides it with zero new
dependencies (stdlib ``http.server`` only):

* :mod:`repro.service.schemas` — JSON request bodies, admitted through
  the request pipeline (:mod:`repro.experiments.request`) over the
  paper-scale defaults and within the service's size caps, plus the
  :class:`~repro.metrics.collectors.RunResult` JSON serializer;
* :mod:`repro.service.index` — a persistent on-disk experiment index
  (crash-safe JSON-lines journal, rebuilt from the cache directory on
  startup);
* :mod:`repro.service.queue` — the submission queue: one worker thread
  drains campaigns serially and fans each out through the existing
  multiprocessing pool, which (with the shared cache) guarantees that
  overlapping manifests coalesce to **one simulation run per distinct
  config hash**;
* :mod:`repro.service.app` — the HTTP API (``repro serve``):
  ``POST /campaigns``, ``GET /campaigns/{id}`` (with ``?wait=`` long
  polling), ``GET /results/{hash}``, ``GET /experiments``,
  ``GET /healthz``, and a Prometheus-text ``GET /metrics``;
* :mod:`repro.service.client` — a thin stdlib client used by CI and the
  concurrent-submission stress benchmark.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.schemas import ManifestError, manifest_specs, result_to_dict

__all__ = [
    "ManifestError",
    "ServiceClient",
    "ServiceError",
    "manifest_specs",
    "result_to_dict",
]
