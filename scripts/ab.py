"""Same-host A/B of a base commit against the working tree, on perfbench.

Checks ``--base`` out into a temporary ``git worktree``, then runs each
tree's own ``perfbench/run.py`` in alternating pairs: pair ``i`` runs both
trees at seed ``--first-seed + i``, the base first in even pairs and the
working tree first in odd ones.  For every workload and end-to-end metric
of ``BENCHMARK.json`` it prints one row of the table format used in
``docs/performance.md``: each side's median and [q1, q3], the change in
median, and the pairs the working tree won (ties count for neither)::

    python3 scripts/ab.py --base HEAD~1 --workloads metro-1k fig10-dynamic \\
        --first-seed 6601 --pairs 10

Pick seeds that were not used while writing the change.

The exit status is the performance gate CI runs.  It is 1 when any run
failed a check or reported failed operations, or when, on some workload
and end-to-end metric, the change both

* has a median worse than the parent's by more than the metric's
  ``bound`` (a fraction of the parent's median; "worse" follows the
  metric's ``better`` direction), and
* lost more than half of the pairs that measured the metric (a tie is
  neither a win nor a loss).

A metric that fewer than two pairs measured is not gated.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_tree(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run of ``tree``: its result line, or a failed
    result carrying the error when the run printed none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return parse_result(lines[-1])
    except (IndexError, ValueError):
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "problems": [f"no result line (exit {proc.returncode})", *tail]}


def parse_result(line: str) -> dict:
    """A perfbench result line; ``ValueError`` when it is not one."""
    result = json.loads(line)
    if not isinstance(result, dict) or not {"correct", "attempted", "failed",
                                            "metrics"} <= result.keys():
        raise ValueError(f"not a perfbench result line: {line[:80]}")
    return result


def _num(x: float) -> str:
    return f"{x:.4g}"


def _cell(values: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{_num(statistics.median(values))} [{_num(q1)}, {_num(q3)}]"


def _delta(mb: float, mc: float) -> str:
    return f"{100.0 * (mc - mb) / mb:+.1f}%" if mb else "—"


def compared(pairs: list[tuple[dict, dict]], metrics: list[dict]):
    """``(metric, gains, base values, change values)`` for every metric
    that at least two pairs measured on both sides.  A pair's gain is its
    change minus its base, signed so that positive is better."""
    for metric in metrics:
        name = metric["name"]
        both = [(b["metrics"][name]["value"], c["metrics"][name]["value"])
                for b, c in pairs if name in b["metrics"] and name in c["metrics"]]
        if len(both) < 2:
            continue
        sign = -1.0 if metric["better"] == "lower" else 1.0
        yield (metric, [sign * (c - b) for b, c in both],
               [b for b, _ in both], [c for _, c in both])


def summarize(workload: str, seeds: list[int], pairs: list[tuple[dict, dict]],
              metrics: list[dict]) -> list[str]:
    """Table rows for one workload: ``pairs`` holds ``(base, change)``
    results per seed, ``metrics`` the ``end_to_end`` entries of
    ``BENCHMARK.json``."""
    label = f"`{workload}` (seeds {seeds[0]}–{seeds[-1]})"
    rows = []
    for metric, gains, base, change in compared(pairs, metrics):
        wins = sum(1 for g in gains if g > 0)
        delta = _delta(statistics.median(base), statistics.median(change))
        rows.append(f"| {label} | `{metric['name']}` | {_cell(base)} | {_cell(change)} | "
                    f"{delta} | {wins}/{len(gains)} |")
        label = ""
    return rows


def regressions(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[str]:
    """The metrics on which the change fails the gate of the module
    docstring, one line each."""
    failed = []
    for metric, gains, base, change in compared(pairs, metrics):
        mb, mc = statistics.median(base), statistics.median(change)
        worse = mc - mb if metric["better"] == "lower" else mb - mc
        lost = sum(1 for g in gains if g < 0)
        if worse > metric["bound"] * abs(mb) and 2 * lost > len(gains):
            failed.append(f"`{metric['name']}` median {_delta(mb, mc)}, past its "
                          f"{metric['bound']:.0%} bound, {lost}/{len(gains)} pairs lost")
    return failed


def failures(pairs: list[tuple[dict, dict]]) -> tuple[str, bool]:
    """``failed / attempted`` per side and whether any run was incorrect or
    failed an operation."""
    text, bad = [], False
    for side, results in (("base", [b for b, _ in pairs]), ("change", [c for _, c in pairs])):
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        bad = bad or failed > 0 or not all(r["correct"] for r in results)
        text.append(f"{side} {failed}/{attempted} failed")
    return ", ".join(text), bad


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="commit to compare against")
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    # A stopped job still removes its worktree.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    status = 0
    with tempfile.TemporaryDirectory(prefix="ab-base-") as tmp:
        base = Path(tmp) / "tree"
        subprocess.run(["git", "worktree", "add", "--detach", str(base), args.base],
                       cwd=ROOT, check=True, capture_output=True)
        try:
            print("| workload | metric | parent | change | Δ median | wins |")
            print("|---|---|---|---|---|---|")
            for workload in args.workloads:
                pairs = []
                for i, seed in enumerate(seeds):
                    order = [base, ROOT] if i % 2 == 0 else [ROOT, base]
                    out = {tree: run_tree(tree, workload, seed, args.seconds) for tree in order}
                    pairs.append((out[base], out[ROOT]))
                    for tree, result in out.items():
                        for problem in result.get("problems", []):
                            side = "base" if tree == base else "change"
                            print(f"{workload} seed {seed} {side}: {problem}", file=sys.stderr)
                for row in summarize(workload, seeds, pairs, spec["end_to_end"]):
                    print(row, flush=True)
                text, bad = failures(pairs)
                print(f"{workload}: {text}", file=sys.stderr)
                regressed = regressions(pairs, spec["end_to_end"])
                for line in regressed:
                    print(f"{workload}: gate failed: {line}", file=sys.stderr)
                status = max(status, int(bad or bool(regressed)))
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(base)],
                           cwd=ROOT, capture_output=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
