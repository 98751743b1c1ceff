#!/usr/bin/env python
"""Domain example: choose a scheduling policy for your deployment.

A downstream user's first question is "which bundle should I run?".  This
example benchmarks all eight of the paper's algorithms on the same
workload/topology (identical seeds) across two regimes:

* a compute-bound regime (CCR ~ 0.16 — the paper's base setting), and
* a communication-bound regime (CCR ~ 16 — big data, slow links),

and prints a recommendation matrix.  It also demonstrates the second-phase
ablation: the same phase-1 heuristic with FCFS at resource nodes.

Run with ``python examples/heuristic_faceoff.py``.
"""

from repro.core.heuristics.registry import PAPER_ALGORITHMS
from repro.experiments.config import ExperimentConfig
from repro.grid.system import P2PGridSystem


def run(algorithm: str, data_range, seed: int = 21):
    cfg = ExperimentConfig(
        algorithm=algorithm,
        n_nodes=70,
        load_factor=3,
        total_time=24 * 3600.0,
        seed=seed,
        data_range=data_range,
    )
    return P2PGridSystem(cfg).run()


def sweep(label: str, data_range) -> dict[str, object]:
    print(f"--- {label} ---")
    print(f"  {'algorithm':12s} {'finished':>8} {'ACT (s)':>9} {'AE':>6}")
    results = {}
    for alg in PAPER_ALGORITHMS:
        r = run(alg, data_range)
        results[alg] = r
        print(f"  {alg:12s} {r.n_done:>8} {r.act:>9.0f} {r.ae:>6.3f}")
    best_act = min(results, key=lambda a: results[a].act)
    best_ae = max(results, key=lambda a: results[a].ae)
    print(f"  best ACT: {best_act}; best AE: {best_ae}")
    print()
    return results


def main() -> None:
    sweep("compute-bound (CCR ~ 0.16, data 10-1000 Mb)", (10.0, 1000.0))
    sweep("communication-bound (CCR ~ 16, data 100-10000 Mb)", (100.0, 10_000.0))

    print("--- second-phase ablation (does Algorithm 2 matter?) ---")
    for base in ("min-min", "sufferage", "dsmf"):
        with_h = run(base, (10.0, 1000.0))
        with_f = run(f"{base}-fcfs", (10.0, 1000.0))
        delta = (with_f.act - with_h.act) / with_h.act * 100.0
        print(f"  {base:12s} ACT {with_h.act:>8.0f}s -> FCFS {with_f.act:>8.0f}s "
              f"({delta:+.1f}%)")
    print()
    print("Reading: DSMF is the safe decentralized default, and its own")
    print("second phase (Formula 10) is where the big win lives; the")
    print("adapted rivals' second phases hover within a few percent of")
    print("FCFS either way (see `repro figure table2`).")


if __name__ == "__main__":
    main()
