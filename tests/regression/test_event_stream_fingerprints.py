"""Golden event streams of the execution trace.

Each shape in ``EVENT_STREAM_SHAPES`` runs with a
:class:`~repro.obs.recorder.TraceRecorder`; its event count and the sha256
of the whole stream must match ``golden_event_streams.json``, so a hook
site that moves, disappears or fires in another order fails exactly.  The
traced run's result digest must also equal the untraced run's: recording
only observes.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from regression.golden import (
    EVENT_STREAM_SHAPES,
    event_stream_config,
    event_stream_digest,
    load_event_stream_golden,
)

from repro.experiments.campaign import result_digest
from repro.grid.system import P2PGridSystem
from repro.obs.recorder import TraceRecorder


def test_golden_file_covers_every_shape():
    recorded = load_event_stream_golden()["streams"]
    assert sorted(recorded) == sorted(EVENT_STREAM_SHAPES), (
        "golden_event_streams.json is out of sync with EVENT_STREAM_SHAPES; "
        "re-record via tests/regression/record_event_streams.py"
    )


@pytest.mark.parametrize("shape", list(EVENT_STREAM_SHAPES))
def test_event_stream_matches_golden(shape):
    recorded = load_event_stream_golden()["streams"][shape]
    config = event_stream_config(shape)
    recorder = TraceRecorder()
    traced = P2PGridSystem(config, recorder=recorder).run()
    assert len(recorder) == recorded["events"], (
        f"{shape}: event count drifted; if a hook site changed on purpose, "
        "re-record via tests/regression/record_event_streams.py"
    )
    assert event_stream_digest(recorder.events) == recorded["stream"], (
        f"{shape}: event stream drifted from golden_event_streams.json"
    )
    assert result_digest(traced) == result_digest(P2PGridSystem(config).run()), (
        f"{shape}: recording changed the run's result"
    )
