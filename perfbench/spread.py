"""Check the benchmark's own steadiness across runs.

Runs ``run.py`` once per seed on each named workload (untraced) and prints,
per end-to-end metric, the median and the quartile spread (IQR / median)
next to the metric's bound from ``BENCHMARK.json``.  A spread at or above a
third of its bound is flagged (``setup_s`` is reported but not flagged).
Repeat one seed to see host noise alone::

    python3 perfbench/spread.py --workloads fig10-dynamic --seeds 1 2 3 4 5
    python3 perfbench/spread.py --workloads metro-1k --seeds 7 7 7 7 7

Exit status 1 when any run was incorrect or any spread is flagged.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import report, stats  # noqa: E402


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            out = report.run(workload, seed, args.seconds, 0)
            if not out["correct"]:
                status = 1
                print(f"{workload} seed {seed}: INCORRECT ({out['failed']} failed)")
                continue
            runs.append(out)
        if len(runs) < 2:
            continue
        print(f"{workload} ({len(runs)} runs)")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            spread = stats.quartile_spread(values)
            flag = ""
            if name != "setup_s" and spread >= bound / 3:
                flag = "  <-- above a third of the bound"
                status = 1
            print(f"  {name:12s} median {stats.median(values):12.4f}  "
                  f"spread {spread:6.3f}  bound {bound}{flag}", flush=True)
            print("    runs " + " ".join(f"{v:.4g}" for v in values))
    return status


if __name__ == "__main__":
    sys.exit(main())
