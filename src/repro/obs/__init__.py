"""Observability layer: runtime telemetry, the execution trace, exporters.

This package is deliberately dependency-free *within* the code base: it
imports nothing else from :mod:`repro`, so every other subsystem (sim
engine, gossip, grid, service) can depend on it without cycles.

Instrumentation reaches the simulation one way: the grid system calls the
backends it was built with at explicit hook sites, each guarded by one
check (``telemetry.enabled``, ``recorder is not None``).  Neither draws
randomness or feeds a decision, so results are bit-identical with either
on or off.

Surfaces:

* :mod:`repro.obs.telemetry` — counters / gauges / histograms with a
  null backend that makes instrumentation zero-overhead when disabled,
  plus a pickle/JSON-friendly :class:`~repro.obs.telemetry.TelemetrySnapshot`
  and stdlib-only Prometheus text rendering.
* :mod:`repro.obs.recorder` — :class:`~repro.obs.recorder.TraceRecorder`,
  the execution trace of one run (``P2PGridSystem(config,
  recorder=rec)``): every dispatch, task start/finish, transfer, gossip
  round, workflow terminal and churn event.
* :mod:`repro.obs.analysis` — schedule analysis over a recorded trace:
  per-node utilization, wait/execution breakdowns, transfer and gossip
  aggregates, ASCII Gantt charts.
* :mod:`repro.obs.spans` — Chrome trace-event JSON built from a
  recorder, viewable in Perfetto or ``chrome://tracing``.
* the ``/metrics`` endpoint of ``repro serve`` (see
  :mod:`repro.service.app`) reuses the Prometheus helpers here.
"""

from repro.obs.analysis import (
    gantt_ascii,
    gossip_round_stats,
    node_utilization,
    time_attribution,
    transfer_stats,
    waiting_time_breakdown,
)
from repro.obs.recorder import TraceEvent, TraceRecorder
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    TelemetrySnapshot,
    make_telemetry,
    parse_prometheus,
    render_prometheus,
)

__all__ = [
    "NULL_TELEMETRY",
    "NullTelemetry",
    "Telemetry",
    "TelemetrySnapshot",
    "TraceEvent",
    "TraceRecorder",
    "gantt_ascii",
    "gossip_round_stats",
    "make_telemetry",
    "node_utilization",
    "parse_prometheus",
    "render_prometheus",
    "time_attribution",
    "transfer_stats",
    "waiting_time_breakdown",
]
