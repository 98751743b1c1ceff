"""Record the metro-1k (1000-node) golden fingerprint.

Usage::

    PYTHONPATH=src python tests/regression/record_metro.py

Regenerates ``golden_metro.json``: the result-digest fingerprint of the
``metro-1k`` preset (dsmf, seed 1) at a 2 h horizon.  Only
run this when a PR *intentionally* changes simulation semantics at scale;
perf refactors must replay the existing file bit-identically.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from regression.golden import METRO_GOLDEN_PATH, metro_config  # noqa: E402

from repro.experiments.campaign import result_digest  # noqa: E402
from repro.grid.system import P2PGridSystem  # noqa: E402


def main() -> int:
    t0 = time.perf_counter()
    config = metro_config()
    result = P2PGridSystem(config).run()
    payload = {
        "description": (
            "metro-1k (1000 nodes, structured-mix, weibull-sessions churn) "
            "dsmf seed-1 fingerprint at a 2 h horizon; "
            "re-record only for intentional semantic changes"
        ),
        "config": {
            "algorithm": config.algorithm,
            "seed": config.seed,
            "n_nodes": config.n_nodes,
            "total_time": config.total_time,
            "scenario": config.scenario,
        },
        "events_executed": result.events_executed,
        "fingerprint": result_digest(result),
    }
    METRO_GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(
        f"wrote {METRO_GOLDEN_PATH} ({payload['fingerprint'][:16]}..., "
        f"{result.events_executed} events, {time.perf_counter() - t0:.1f}s)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
