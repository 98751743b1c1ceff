"""Re-pin ``expected.json``: digest and traced work counts of every input
of a run at seed 7.

Run from the repository root, only when a change is *meant* to alter what a
simulation workload computes::

    python3 perfbench/record_expected.py

A later run at seed 7 fails on any rep whose digest or count differs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.simbench import EXPECTED_PATH, record_expected  # noqa: E402
from perfbench.workloads import SIM_WORKLOADS  # noqa: E402

if __name__ == "__main__":
    pinned = record_expected(SIM_WORKLOADS)
    EXPECTED_PATH.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    for name, entry in pinned.items():
        for pin in entry["inputs"]:
            print(f"{name} seed {pin['seed']}: {pin['digest'][:12]} {pin['counts']}")
