"""Run one benchmark workload and print its result as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload metro-1k --seed 7 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
diagnostics go to standard error.  The exit code is 0 only when every
output check passed.

A run is pinned to one CPU, and the service workloads' servers inherit
the pin: the host-speed probes (``hostspeed.py``) then sample the CPU the
measured work runs on.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import SIM_WORKLOADS, WORKLOADS  # noqa: E402

BENCHMARK_PATH = ROOT / "BENCHMARK.json"


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads(BENCHMARK_PATH.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload in SIM_WORKLOADS:
        from perfbench.simbench import run_sim

        return run_sim(workload, seed, seconds, trace)
    from perfbench.servicebench import run_service

    return run_service(workload, seed, seconds, trace)


def finish(report: dict, units: dict[str, str]) -> dict:
    """The output object; a declared metric the run could not take makes
    the run incorrect (and reads 0)."""
    measured = report.get("metrics", {})
    problems = list(report["problems"])
    missing = sorted(set(units) - set(measured))
    if missing:
        problems.append(f"metrics not measured: {', '.join(missing)}")
    metrics = {
        name: {"value": float(measured.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    correct = report["failed"] == 0 and not problems
    return {
        "correct": correct,
        "attempted": max(1, int(report["attempted"])),
        "failed": int(report["failed"]),
        "metrics": metrics,
        "problems": problems,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    trace = bool(args.trace)
    units = declared_metrics(trace)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    report = run(args.workload, args.seed, args.seconds, trace)
    if trace:
        # Layers a workload does not reach are declared but not measured.
        report.setdefault("metrics", {})
        for name in units:
            report["metrics"].setdefault(name, 0.0)
    out = finish(report, units)
    for problem in out.pop("problems"):
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    try:
        import repro  # noqa: F401  the program under test must be importable
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
