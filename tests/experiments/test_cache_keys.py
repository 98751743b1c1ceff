"""The result cache's keys, and the canary that ties them to the output.

``config_hash`` keys the on-disk result cache, and the default cache
(``.repro_cache/``) persists across commits.  So a key that changes
silently orphans every stored result, and a simulation change that keeps
its keys serves stale results under them.  The first test pins the keys
of every scenario, every algorithm, the service benchmark's cell and a
manifest whose overrides carry JSON lists.  The second replays the canary
cell pinned beside ``CACHE_SCHEMA``.

Re-record the keys, only together with a ``CACHE_SCHEMA`` bump::

    PYTHONPATH=src python tests/experiments/test_cache_keys.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.core.heuristics.registry import algorithm_names
from repro.experiments.campaign import (
    CACHE_SCHEMA,
    CANARY_CELL,
    CANARY_DIGEST,
    config_hash,
    result_digest,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.request import resolve
from repro.workload.scenarios import apply_scenario, scenario_names

GOLDEN = Path(__file__).with_name("golden_config_hashes.json")
#: The trace presets name repo-relative files whose contents enter the key.
REPO = Path(__file__).resolve().parents[2]

MANIFESTS = {
    # perfbench's service request (perfbench/workloads.py) at seed 1.
    "service": {
        "scenario": "paper-fig4", "algorithms": ["dsmf"], "seeds": [1],
        "overrides": {"n_nodes": 20, "load_factor": 1, "total_time": 7200.0},
    },
    # Tuple fields as a JSON body spells them.
    "json-lists": {
        "algorithms": ["heft"], "seeds": [7],
        "overrides": {"task_range": [2, 6], "capacities": [1.0, 4.0, 16.0]},
    },
}


def current_keys() -> dict[str, str]:
    """Every pinned cell's ``config_hash``, by name."""
    keys = {
        f"scenario:{name}": config_hash(apply_scenario(ExperimentConfig(seed=1), name))
        for name in scenario_names()
    }
    for name in algorithm_names():
        keys[f"algorithm:{name}"] = config_hash(ExperimentConfig(algorithm=name))
    for name, manifest in MANIFESTS.items():
        (keys[f"manifest:{name}"],) = resolve("campaign", manifest).keys
    return keys


def test_cache_keys_are_pinned(monkeypatch):
    monkeypatch.chdir(REPO)
    pinned = json.loads(GOLDEN.read_text())
    golden, keys = pinned["keys"], current_keys()
    changed = sorted(name for name in golden.keys() & keys.keys() if golden[name] != keys[name])
    assert not changed, (
        f"config_hash changed for {changed} (pinned under CACHE_SCHEMA "
        f"{pinned['cache_schema']}, now {CACHE_SCHEMA}). Every result in a persistent "
        "cache (.repro_cache/) is orphaned by a key change. Re-pin "
        f"{GOLDEN.name} only together with a CACHE_SCHEMA bump, which is a "
        "deliberate invalidation; otherwise restore the old hash."
    )
    assert keys.keys() == golden.keys(), (
        f"pinned entries differ: new {sorted(keys.keys() - golden.keys())}, "
        f"gone {sorted(golden.keys() - keys.keys())}; pin a new scenario or "
        "algorithm without changing any existing key"
    )


def test_the_canary_cell_replays_its_pinned_digest():
    from repro.grid.system import P2PGridSystem

    config = ExperimentConfig(**CANARY_CELL)
    # The canary is the service benchmark's cell.
    assert resolve("campaign", MANIFESTS["service"]).specs[0].config == config
    digest = result_digest(P2PGridSystem(config).run())
    assert digest == CANARY_DIGEST, (
        f"the canary cell's result_digest moved ({CANARY_DIGEST[:12]} -> "
        f"{digest[:12]}) under CACHE_SCHEMA {CACHE_SCHEMA}: a change to the "
        "simulation's output must bump CACHE_SCHEMA and re-pin CANARY_DIGEST "
        "together (experiments/campaign.py), or a persistent cache serves "
        "stale results under unchanged keys"
    )


if __name__ == "__main__":
    os.chdir(REPO)
    GOLDEN.write_text(json.dumps({
        "_comment": (
            "config_hash of every scenario (seed 1), every algorithm (default "
            "config) and two manifests, salted with cache_schema. Re-pin only "
            "together with a CACHE_SCHEMA bump: "
            "PYTHONPATH=src python tests/experiments/test_cache_keys.py"
        ),
        "cache_schema": CACHE_SCHEMA,
        "keys": current_keys(),
    }, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
