"""Workflow DAG model (paper §II.A).

A :class:`Workflow` is a directed acyclic graph whose vertices are
:class:`~repro.workflow.task.Task` objects and whose edges carry the size of
the dependent data (Mb) the successor must aggregate from the precedent.

Per the paper, every workflow is normalized to a *unique* entry task and a
*unique* exit task: when several entries (or exits) exist, a zero-cost
virtual task connecting them is added (:meth:`Workflow.normalized`).
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Mapping

from repro.workflow.task import Task

__all__ = ["Workflow", "WorkflowError"]


class WorkflowError(ValueError):
    """Raised for structurally invalid workflows (cycles, dangling edges...)."""


class Workflow:
    """An immutable-after-validation workflow DAG.

    Parameters
    ----------
    wid:
        Workflow identifier, unique within an experiment (the paper's
        ``f_ij`` — we encode home node and index in the id string).
    tasks:
        The task set ``T(f)``.
    edges:
        Mapping ``(precedent_tid, successor_tid) -> data size in Mb``.

    Notes
    -----
    ``successors``/``precedents`` adjacency, the topological order and the
    entry/exit tasks are computed once at construction; the scheduling hot
    path only reads them.
    """

    def __init__(
        self,
        wid: str,
        tasks: Iterable[Task],
        edges: Mapping[tuple[int, int], float],
    ):
        self.wid = wid
        self.tasks: dict[int, Task] = {}
        for t in tasks:
            if t.tid in self.tasks:
                raise WorkflowError(f"duplicate task id {t.tid} in workflow {wid}")
            self.tasks[t.tid] = t
        if not self.tasks:
            raise WorkflowError(f"workflow {wid} has no tasks")

        self.edges: dict[tuple[int, int], float] = {}
        self.successors: dict[int, dict[int, float]] = {tid: {} for tid in self.tasks}
        self.precedents: dict[int, dict[int, float]] = {tid: {} for tid in self.tasks}
        for (u, v), data in edges.items():
            if u not in self.tasks or v not in self.tasks:
                raise WorkflowError(f"edge ({u}, {v}) references unknown task in {wid}")
            if u == v:
                raise WorkflowError(f"self-loop on task {u} in {wid}")
            if data < 0:
                raise WorkflowError(f"negative data size on edge ({u}, {v}) in {wid}")
            if (u, v) in self.edges:
                raise WorkflowError(f"duplicate edge ({u}, {v}) in {wid}")
            self.edges[(u, v)] = float(data)
            self.successors[u][v] = float(data)
            self.precedents[v][u] = float(data)

        self.topo_order: list[int] = self._toposort()
        entries = [tid for tid in self.tasks if not self.precedents[tid]]
        exits = [tid for tid in self.tasks if not self.successors[tid]]
        self.entry_ids: list[int] = entries
        self.exit_ids: list[int] = exits

    # ------------------------------------------------------------ structure
    def _toposort(self) -> list[int]:
        indeg = {tid: len(self.precedents[tid]) for tid in self.tasks}
        # Stable order: process ready tasks by ascending id for determinism.
        ready = sorted(tid for tid, d in indeg.items() if d == 0)
        order: list[int] = []
        import heapq

        heapq.heapify(ready)
        while ready:
            u = heapq.heappop(ready)
            order.append(u)
            for v in self.successors[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    heapq.heappush(ready, v)
        if len(order) != len(self.tasks):
            raise WorkflowError(f"workflow {self.wid} contains a cycle")
        return order

    # ----------------------------------------------------------- properties
    @property
    def entry_id(self) -> int:
        """The unique entry task id (normalize first if several entries)."""
        if len(self.entry_ids) != 1:
            raise WorkflowError(
                f"workflow {self.wid} has {len(self.entry_ids)} entry tasks; "
                "call normalized() first"
            )
        return self.entry_ids[0]

    @property
    def exit_id(self) -> int:
        """The unique exit task id (normalize first if several exits)."""
        if len(self.exit_ids) != 1:
            raise WorkflowError(
                f"workflow {self.wid} has {len(self.exit_ids)} exit tasks; "
                "call normalized() first"
            )
        return self.exit_ids[0]

    @cached_property
    def topo_index(self) -> dict[int, int]:
        """Each task's position in ``topo_order``."""
        return {tid: k for k, tid in enumerate(self.topo_order)}

    @cached_property
    def reverse_sweep(self) -> list[tuple[int, float, tuple[tuple[int, float], ...]]]:
        """``(tid, load, successor items)`` in reverse topological order."""
        tasks, successors = self.tasks, self.successors
        return [
            (tid, tasks[tid].load, tuple(successors[tid].items()))
            for tid in reversed(self.topo_order)
        ]

    @property
    def n_tasks(self) -> int:
        """|T(f)| including virtual tasks."""
        return len(self.tasks)

    @property
    def n_edges(self) -> int:
        """θ(f): number of dependency edges."""
        return len(self.edges)

    def total_load(self) -> float:
        """Sum of task loads in MI."""
        return sum(t.load for t in self.tasks.values())

    def total_data(self) -> float:
        """Sum of edge data sizes in Mb."""
        return sum(self.edges.values())

    def __iter__(self) -> Iterator[Task]:
        for tid in self.topo_order:
            yield self.tasks[tid]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Workflow({self.wid!r}, tasks={self.n_tasks}, edges={self.n_edges})"

    # -------------------------------------------------------- normalization
    def normalized(self) -> "Workflow":
        """Return a workflow with a unique entry and a unique exit task.

        If this workflow already has both, ``self`` is returned.  Otherwise
        zero-cost virtual tasks (paper §II.A) are connected to all original
        entries/exits with zero-size data edges.
        """
        if len(self.entry_ids) == 1 and len(self.exit_ids) == 1:
            return self
        tasks = list(self.tasks.values())
        edges = dict(self.edges)
        next_id = max(self.tasks) + 1
        if len(self.entry_ids) > 1:
            ventry = Task(tid=next_id, load=0.0, image_size=0.0, virtual=True, name="ventry")
            next_id += 1
            tasks.append(ventry)
            for e in self.entry_ids:
                edges[(ventry.tid, e)] = 0.0
        if len(self.exit_ids) > 1:
            vexit = Task(tid=next_id, load=0.0, image_size=0.0, virtual=True, name="vexit")
            tasks.append(vexit)
            for x in self.exit_ids:
                edges[(x, vexit.tid)] = 0.0
        return Workflow(self.wid, tasks, edges)

    # -------------------------------------------------------------- queries
    def ready_successors(self, finished: set[int]) -> list[int]:
        """Tasks whose precedents are all in ``finished`` and that are not
        themselves finished — the *schedule-point* candidates of §II.A."""
        out = []
        for tid in self.topo_order:
            if tid in finished:
                continue
            if all(p in finished for p in self.precedents[tid]):
                out.append(tid)
        return out
