"""Golden fingerprint for the 1000-node ``metro-1k`` preset.

One production-scale cell (dsmf, seed 1, 2 h horizon)
replayed bit-identically on every regression run: this is what pins the
scale-out simulation core — the indexed event queue, the gossip fast
paths and the ``__slots__``-pooled runtime state — against a grid 25x
larger than the base golden cells, where any stream or ordering slip
would compound fastest.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from regression.golden import load_metro_golden, metro_config

from repro.experiments.campaign import result_digest
from repro.grid.system import P2PGridSystem


def test_replay_matches_metro_fingerprint():
    recorded = load_metro_golden()
    result = P2PGridSystem(metro_config()).run()
    assert result.events_executed == recorded["events_executed"], (
        "metro-1k event count drifted; if the semantic change is "
        "intentional, re-record via tests/regression/record_metro.py"
    )
    assert result_digest(result) == recorded["fingerprint"], (
        "metro-1k outcome drifted from golden_metro.json; if the semantic "
        "change is intentional, re-record via "
        "tests/regression/record_metro.py"
    )
