"""Execution trace: the events a simulated grid reports while it runs.

Pass a :class:`TraceRecorder` to
:class:`~repro.grid.system.P2PGridSystem` (``recorder=``, also accepted by
:func:`repro.api.run_experiment` and :func:`repro.api.quick_run`).  The
system and its transfer manager report every dispatch (phase 1 and
full-ahead), CPU start/finish, data transfer, gossip round, workflow
terminal, churn task loss and node kill/revive through :meth:`add` at
explicit hook sites, each behind one ``is not None`` check, so an
untraced run pays nothing and a traced one leaves every result
bit-identical.  Overhead is one list append per event; recording 100k
events costs a few milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = ["TraceEvent", "TraceRecorder"]


@dataclass(frozen=True)
class TraceEvent:
    """One recorded occurrence.

    ``kind`` is one of ``dispatch``, ``start``, ``finish``,
    ``transfer_start``, ``transfer_done``, ``gossip_round``,
    ``workflow_done``, ``workflow_failed``, ``task_lost``, ``node_down``,
    ``node_up``.

    Field use per kind: transfer events carry ``src`` (source node),
    ``size`` (megabits) and ``tid`` (a transfer sequence number pairing
    start with done); gossip rounds carry ``tid`` (cycle index) and
    ``size`` (messages sent that round); task/workflow events carry
    ``wid``/``tid`` as usual.
    """

    time: float
    kind: str
    node: int
    wid: str = ""
    tid: int = -1
    detail: str = ""
    src: int = -1
    size: float = 0.0


class TraceRecorder:
    """Collects the :class:`TraceEvent` objects a running system reports."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def add(
        self,
        time: float,
        kind: str,
        node: int,
        wid: str = "",
        tid: int = -1,
        detail: str = "",
        src: int = -1,
        size: float = 0.0,
    ) -> None:
        """Record one event (called from the system's hook sites)."""
        self.events.append(TraceEvent(time, kind, node, wid, tid, detail, src, size))

    # -------------------------------------------------------------- queries
    def of_kind(self, kind: str) -> list[TraceEvent]:
        """Events of one kind, in time order."""
        return [e for e in self.events if e.kind == kind]

    def for_workflow(self, wid: str) -> list[TraceEvent]:
        """Events belonging to one workflow."""
        return [e for e in self.events if e.wid == wid]

    def for_node(self, node: int) -> list[TraceEvent]:
        """Events at one node."""
        return [e for e in self.events if e.node == node]

    def task_intervals(self) -> list[tuple[int, str, int, float, float]]:
        """``(node, wid, tid, start, finish)`` per executed task."""
        starts: dict[tuple[str, int], TraceEvent] = {}
        out: list[tuple[int, str, int, float, float]] = []
        for e in self.events:
            if e.kind == "start":
                starts[(e.wid, e.tid)] = e
            elif e.kind == "finish":
                s = starts.pop((e.wid, e.tid), None)
                if s is not None:
                    out.append((e.node, e.wid, e.tid, s.time, e.time))
        return out

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterable[TraceEvent]:
        return iter(self.events)
