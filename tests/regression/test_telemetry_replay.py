"""Pinned goldens replay with telemetry on.

Telemetry only observes: it reads RSS ages, times phase-1 plans and
phase-2 selections and folds counters, but never draws randomness or
feeds a decision.  So the metro-1k golden cell must reproduce its pinned
result digest with ``telemetry=True``, and the ``fail-reschedule`` and
``immediate`` event-stream shapes their pinned trace streams.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from regression.golden import (
    event_stream_config,
    event_stream_digest,
    load_event_stream_golden,
    load_metro_golden,
    metro_config,
)

from repro.experiments.campaign import result_digest
from repro.grid.system import P2PGridSystem
from repro.obs.recorder import TraceRecorder


def test_metro_cell_replays_with_telemetry_on():
    recorded = load_metro_golden()
    result = P2PGridSystem(metro_config().with_(telemetry=True)).run()
    assert result.telemetry is not None
    assert result.events_executed == recorded["events_executed"]
    assert result_digest(result) == recorded["fingerprint"]


@pytest.mark.parametrize("shape", ["fail-reschedule", "immediate"])
def test_event_stream_replays_with_telemetry_on(shape):
    recorded = load_event_stream_golden()["streams"][shape]
    recorder = TraceRecorder()
    result = P2PGridSystem(
        event_stream_config(shape).with_(telemetry=True), recorder=recorder
    ).run()
    assert result.telemetry is not None
    assert len(recorder) == recorded["events"]
    assert event_stream_digest(recorder.events) == recorded["stream"]
