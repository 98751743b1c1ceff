"""Record the execution-trace event-stream goldens.

Usage::

    PYTHONPATH=src python tests/regression/record_event_streams.py

Regenerates ``golden_event_streams.json``: for every shape in
``EVENT_STREAM_SHAPES`` the number of events a
:class:`~repro.obs.recorder.TraceRecorder` collects and the sha256 of the
whole stream.  Re-record only when a PR intentionally moves, adds or
removes a hook site (or changes simulation semantics); refactors of the
instrumentation must replay the existing file exactly.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from regression.golden import (  # noqa: E402
    EVENT_STREAM_GOLDEN_PATH,
    EVENT_STREAM_SHAPES,
    event_stream_config,
    event_stream_digest,
)

from repro.grid.system import P2PGridSystem  # noqa: E402
from repro.obs.recorder import TraceRecorder  # noqa: E402


def main() -> int:
    t0 = time.perf_counter()
    streams = {}
    for shape in EVENT_STREAM_SHAPES:
        recorder = TraceRecorder()
        P2PGridSystem(event_stream_config(shape), recorder=recorder).run()
        streams[shape] = {
            "events": len(recorder),
            "stream": event_stream_digest(recorder.events),
        }
    payload = {
        "description": (
            "TraceRecorder event count and stream sha256 per shape of "
            "tests/regression/golden.py EVENT_STREAM_SHAPES; re-record only "
            "when a hook site intentionally changes"
        ),
        "streams": streams,
    }
    EVENT_STREAM_GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(
        f"wrote {EVENT_STREAM_GOLDEN_PATH} ({len(streams)} shapes, "
        f"{time.perf_counter() - t0:.1f}s)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
