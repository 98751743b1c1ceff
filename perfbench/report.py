"""Every workload, end to end and layer by layer, in one command.

Runs ``run.py`` untraced and then traced for each workload (each in its own
process) and prints the end-to-end metrics and the per-layer table by name
and unit::

    python3 perfbench/report.py --seed 7 --seconds 20

Exit status 1 when any run reports an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return json.loads(lines[-1])


def show(title: str, out: dict) -> None:
    print(f"{title}: correct={out['correct']} attempted={out['attempted']} failed={out['failed']}")
    for name, metric in out["metrics"].items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    status = 0
    for workload in args.workloads:
        for trace, title in ((0, "end to end"), (1, "per layer (traced run)")):
            out = run(workload, args.seed, args.seconds, trace)
            show(f"{workload} {title}", out)
            if not out["correct"]:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
