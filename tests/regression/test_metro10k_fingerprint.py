"""Golden fingerprint for the 10,000-node ``metro-10k`` preset.

The only golden cell above the exact-topology limit: at this size a
spanning forest replaces the all-pairs bandwidth matrix and landmarks
approximate latency, so this replay pins the scalable regime end to end
(dsmf, seed 1, 1 h horizon).  It takes tens of seconds, so it is marked
``slow``: the fast tier-1 job skips it and the regression job runs it.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from regression.golden import load_metro10k_golden, metro10k_config

from repro.experiments.campaign import result_digest
from repro.grid.system import P2PGridSystem
from repro.net.topology import _EXACT_MAX_NODES


@pytest.mark.slow
def test_replay_matches_metro10k_fingerprint():
    recorded = load_metro10k_golden()
    config = metro10k_config()
    assert config.n_nodes > _EXACT_MAX_NODES
    result = P2PGridSystem(config).run()
    assert result.events_executed == recorded["events_executed"], (
        "metro-10k event count drifted; if the semantic change is "
        "intentional, re-record via tests/regression/record_metro10k.py"
    )
    assert result_digest(result) == recorded["fingerprint"], (
        "metro-10k outcome drifted from golden_metro10k.json; if the "
        "semantic change is intentional, re-record via "
        "tests/regression/record_metro10k.py"
    )
