"""Golden fingerprints for every registered algorithm outside the base grid.

``golden_fingerprints.json`` pins dsmf, dheft, heft and smf.  This file
pins the rest — dsdf, the pooled min-min / max-min / sufferage policies,
the five ``-fcfs`` bundles, OLB and random — on one static and one
churning scenario (seed 1, regression base scale).  Their picks depend
most on candidate order (pooled argmins, OLB's first least-loaded node,
random's index draw), so a gossip view whose slot order moves fails here.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from regression.golden import (
    ALGORITHM_GOLDEN_PATH,
    GOLDEN_ALGORITHMS,
    OTHER_ALGORITHMS,
    algorithm_specs,
    load_algorithm_golden,
)

from repro.api import available_algorithms
from repro.experiments.campaign import result_digest
from repro.grid.system import P2PGridSystem

_SPECS = dict(algorithm_specs())


def test_every_registered_algorithm_is_pinned():
    pinned = set(GOLDEN_ALGORITHMS) | set(OTHER_ALGORITHMS)
    assert pinned == set(available_algorithms())


def test_golden_file_covers_the_algorithm_grid():
    recorded = load_algorithm_golden()["fingerprints"]
    assert sorted(recorded) == sorted(_SPECS), (
        "golden_algorithms.json is out of sync with the algorithm grid; "
        "re-record via tests/regression/record_algorithms.py"
    )


@pytest.mark.parametrize("key", sorted(_SPECS))
def test_replay_matches_algorithm_fingerprint(key):
    recorded = load_algorithm_golden()["fingerprints"][key]
    result = P2PGridSystem(_SPECS[key]).run()
    assert result_digest(result) == recorded, (
        f"{key} no longer replays bit-identically to the recorded fingerprint "
        f"({ALGORITHM_GOLDEN_PATH}). If this PR intentionally changes "
        "simulation semantics, re-record via "
        "tests/regression/record_algorithms.py and say so in the PR."
    )
