#!/usr/bin/env python
"""Power-user example: trace a schedule and quantify seed noise.

Two library extensions beyond the paper:

1. **Tracing** — pass a :class:`repro.obs.TraceRecorder` to a system
   (``P2PGridSystem(config, recorder=rec)``) to capture every
   dispatch/start/finish event, then render a per-node ASCII Gantt chart
   and a waiting-time breakdown.  This is how you *see* what a
   scheduling policy actually did.
2. **Replication** — rerun the same configuration under several seeds and
   report mean ± confidence interval, so algorithm comparisons are not
   single-draw anecdotes.

Run with ``python examples/trace_and_replicate.py``.
"""


from repro.experiments.config import ExperimentConfig
from repro.experiments.replication import run_replications
from repro.grid.system import P2PGridSystem
from repro.obs import TraceRecorder, gantt_ascii, node_utilization, waiting_time_breakdown
from repro.workflow.generator import chain_workflow, fork_join_workflow


def trace_demo() -> None:
    print("=== 1. Tracing a small schedule (DSMF, 8 nodes) ===")
    workflows = [
        (0, chain_workflow("chainA", 4, load=4000.0, data=50.0)),
        (1, fork_join_workflow("forkB", 3, load=3000.0, data=50.0)),
        (2, chain_workflow("chainC", 2, load=2000.0, data=50.0)),
    ]
    cfg = ExperimentConfig(
        algorithm="dsmf", n_nodes=8, load_factor=1,
        total_time=8 * 3600.0, seed=3,
    )
    recorder = TraceRecorder()
    P2PGridSystem(cfg, workflows=workflows, recorder=recorder).run()

    print(gantt_ascii(recorder, width=64))
    print()
    stats = waiting_time_breakdown(recorder)
    print(f"tasks executed: {stats['tasks']:.0f}; "
          f"mean wait {stats['mean_wait']:.0f}s; "
          f"mean execution {stats['mean_exec']:.0f}s")
    util = node_utilization(recorder, horizon=cfg.total_time)
    busiest = max(util, key=util.get)
    print(f"busiest node: {busiest} at {util[busiest] * 100:.1f}% utilization")
    print()


def replication_demo() -> None:
    print("=== 2. Is DSMF's win over min-min significant? (5 seeds) ===")
    base = ExperimentConfig(
        n_nodes=50, load_factor=2, total_time=16 * 3600.0, task_range=(2, 20)
    )
    dsmf = run_replications(base.with_(algorithm="dsmf"), seeds=range(1, 6), jobs=5)
    minmin = run_replications(base.with_(algorithm="min-min"), seeds=range(1, 6), jobs=5)
    print(f"  DSMF    ACT: {dsmf.act}")
    print(f"  min-min ACT: {minmin.act}")
    verdict = "do NOT overlap -> significant" if not dsmf.overlaps(minmin, "act") \
        else "overlap -> need more seeds"
    print(f"  95% confidence intervals {verdict}")


def main() -> None:
    trace_demo()
    replication_demo()


if __name__ == "__main__":
    main()
