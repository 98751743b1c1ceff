"""Record the golden fingerprints of the other registered algorithms.

Usage::

    PYTHONPATH=src python tests/regression/record_algorithms.py

Regenerates ``golden_algorithms.json``: one result-digest fingerprint per
``OTHER_ALGORITHMS`` × ``ALGORITHM_SCENARIOS`` cell (seed 1, regression
base scale).  Only run this when a PR *intentionally* changes simulation
semantics; refactors must replay the existing file bit-identically.
``golden_fingerprints.json`` is recorded separately by ``record_golden.py``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from regression.golden import ALGORITHM_GOLDEN_PATH, algorithm_specs  # noqa: E402

from repro.experiments.campaign import result_digest  # noqa: E402
from repro.grid.system import P2PGridSystem  # noqa: E402


def main() -> int:
    fingerprints: dict[str, str] = {}
    t0 = time.perf_counter()
    for key, config in algorithm_specs():
        t1 = time.perf_counter()
        result = P2PGridSystem(config).run()
        digest = result_digest(result)
        fingerprints[key] = digest
        print(f"  {key:32s} {digest[:16]}  ({time.perf_counter() - t1:.2f}s, "
              f"{result.events_executed} events)")
    payload = {
        "_comment": (
            "Golden fingerprints (result_digest per cell) of every registered "
            "algorithm outside golden_fingerprints.json, seed 1 at the "
            "regression base scale. Regenerate only for intentional semantic "
            "changes: PYTHONPATH=src python tests/regression/record_algorithms.py"
        ),
        "fingerprints": fingerprints,
    }
    ALGORITHM_GOLDEN_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {ALGORITHM_GOLDEN_PATH} ({len(fingerprints)} cells, "
          f"{time.perf_counter() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
