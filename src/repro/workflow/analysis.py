"""Workflow analysis: eft, critical path, RPM backward pass (Eq. 1, 7, 8).

All expected quantities use the *system-wide averages* the aggregation
gossip protocol maintains:

* ``eet(t)  = load(t) / avg_capacity``        (expected execution time)
* ``ett(e)  = data(e) / avg_bandwidth``       (expected transfer time)

and the key recursive quantity is the **rest path makespan**::

    RPM(t) = eet(t) + max over successors s of ( ett(t->s) + RPM(s) )

with ``RPM(exit) = eet(exit)``.  For a *schedule-point* task the first term
is replaced by its dynamically estimated finish time on the best candidate
resource node (Eq. 7/9); that composition lives in :mod:`repro.core.rpm` —
this module provides the purely topology/average-based parts, each DAG edge
visited exactly once (the complexity bound of §III.E).
"""

from __future__ import annotations

from typing import Collection

from repro.workflow.dag import Workflow

__all__ = [
    "expected_times",
    "upward_rank",
    "rest_path_after",
    "expected_finish_time",
    "critical_path",
]


def expected_times(
    wf: Workflow, avg_capacity: float, avg_bandwidth: float
) -> tuple[dict[int, float], dict[tuple[int, int], float]]:
    """Return ``(eet per task, ett per edge)`` under the given averages."""
    if avg_capacity <= 0:
        raise ValueError(f"avg_capacity must be positive, got {avg_capacity}")
    if avg_bandwidth <= 0:
        raise ValueError(f"avg_bandwidth must be positive, got {avg_bandwidth}")
    eet = {tid: t.load / avg_capacity for tid, t in wf.tasks.items()}
    ett = {edge: data / avg_bandwidth for edge, data in wf.edges.items()}
    return eet, ett


def _ranks(
    wf: Workflow, avg_capacity: float, avg_bandwidth: float
) -> tuple[dict[int, float], dict[int, float]]:
    """``(after, rank)`` per task — the shared backward sweep."""
    if avg_capacity <= 0:
        raise ValueError(f"avg_capacity must be positive, got {avg_capacity}")
    if avg_bandwidth <= 0:
        raise ValueError(f"avg_bandwidth must be positive, got {avg_bandwidth}")
    rank: dict[int, float] = {}
    after: dict[int, float] = {}
    successors = wf.successors
    tasks = wf.tasks
    for tid in reversed(wf.topo_order):
        best = 0.0
        for s, data in successors[tid].items():
            cand = data / avg_bandwidth + rank[s]
            if cand > best:
                best = cand
        after[tid] = best
        rank[tid] = tasks[tid].load / avg_capacity + best
    return after, rank


def upward_rank(
    wf: Workflow, avg_capacity: float, avg_bandwidth: float
) -> dict[int, float]:
    """The full average-based RPM of *every* task (HEFT's upward rank).

    ``rank(t) = eet(t) + max_s (ett(t,s) + rank(s))``, one backward sweep in
    reverse topological order.
    """
    return _ranks(wf, avg_capacity, avg_bandwidth)[1]


def rest_path_after(
    wf: Workflow,
    avg_capacity: float,
    avg_bandwidth: float,
    points: Collection[int] | None = None,
) -> dict[int, float]:
    """``max_s (ett(t,s) + rank(s))`` for every task (0 for the exit task).

    This is the offspring part of a schedule-point's RPM: add the task's own
    dynamically estimated finish time to obtain Eq. (7)'s value.  With
    ``points``, only the tasks from the earliest of them in topological
    order on are swept, over ``wf.reverse_sweep``: they hold every point's
    descendants, so each entry is the same float as the full sweep's.
    """
    if points is None:
        return _ranks(wf, avg_capacity, avg_bandwidth)[0]
    sweep = wf.reverse_sweep
    first = min(map(wf.topo_index.__getitem__, points), default=len(sweep))
    rank: dict[int, float] = {}
    after: dict[int, float] = {}
    for tid, load, successors in sweep[: len(sweep) - first]:
        best = 0.0
        for s, data in successors:
            cand = data / avg_bandwidth + rank[s]
            if cand > best:
                best = cand
        after[tid] = best
        rank[tid] = load / avg_capacity + best
    return after


def expected_finish_time(
    wf: Workflow, avg_capacity: float, avg_bandwidth: float
) -> float:
    """eft(f) of Eq. (1): the critical-path length under average estimates.

    Equals the entry task's upward rank (the longest eet+ett path from entry
    to exit), which is the baseline the efficiency metric divides by.
    """
    rank = upward_rank(wf, avg_capacity, avg_bandwidth)
    # Workflows are normalized to a unique entry, but stay robust to several.
    return max(rank[e] for e in wf.entry_ids)


def critical_path(
    wf: Workflow, avg_capacity: float, avg_bandwidth: float
) -> list[int]:
    """The critical workflow tasks ``t*`` (§II.B), entry -> exit.

    Follows, from the entry task, the successor maximizing
    ``ett(edge) + rank(successor)`` until the exit task.
    """
    eet, ett = expected_times(wf, avg_capacity, avg_bandwidth)
    rank = upward_rank(wf, avg_capacity, avg_bandwidth)
    cur = max(wf.entry_ids, key=lambda e: rank[e])
    path = [cur]
    while wf.successors[cur]:
        cur = max(
            wf.successors[cur],
            key=lambda s: (ett[(cur, s)] + rank[s], -s),
        )
        path.append(cur)
    return path
