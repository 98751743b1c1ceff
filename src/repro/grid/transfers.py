"""Data and image transfers (substrate S11, paper §II.A steps 3/7/8).

The paper assumes dependent-data transmissions toward an execution node
"could be performed concurrently on the network" — transfers do not contend
with each other, and the slowest inbound transfer determines the task's
longest transmission delay.  Each transfer is therefore a single simulator
event completing after ``size/bandwidth + latency`` seconds on the
ground-truth topology.

An optional *contention* mode (an extension beyond the paper, exercised by
the ablation benches) divides a node's inbound capacity among its active
inbound transfers by rescheduling completions whenever the active set
changes (processor-sharing approximation).

A :class:`Transfer` is its own completion event's callback and drops that
event when it finishes, so reference counting frees a finished transfer, its
event and its arrival callback at once: no cycle is left for the collector.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.topology import Topology
from repro.sim.engine import Event, Simulator

__all__ = ["Transfer", "TransferManager"]


class Transfer:
    """One in-flight data movement; calling it completes it."""

    __slots__ = (
        "manager",
        "src",
        "dst",
        "megabits",
        "on_complete",
        "event",
        "done",
        "remaining",
        "armed_at",
        "rate",
        "seq",
    )

    def __init__(
        self,
        manager: "TransferManager",
        src: int,
        dst: int,
        megabits: float,
        on_complete: Callable[[], None],
        seq: int,
    ):
        self.manager = manager
        self.src = src
        self.dst = dst
        self.megabits = megabits
        self.on_complete = on_complete
        #: 1-based start order within its manager (the trace's transfer id).
        self.seq = seq
        self.event: Optional[Event] = None
        self.done = False
        self.remaining = megabits
        self.armed_at = 0.0
        self.rate = 0.0

    def __call__(self) -> None:
        self.manager._finish(self)

    def cancel(self) -> None:
        """Abort the transfer (destination churned out)."""
        if self.event is not None:
            self.event.cancel()
            self.event = None


class TransferManager:
    """Schedules transfer completions and tracks them per destination."""

    def __init__(
        self, sim: Simulator, topology: Topology, contention: bool = False, recorder=None
    ):
        self.sim = sim
        self.topology = topology
        self.contention = contention
        #: optional :class:`~repro.obs.recorder.TraceRecorder`
        self.recorder = recorder
        #: active transfers keyed by destination (for churn cancellation).
        self.inbound: dict[int, set[Transfer]] = {}
        self.started = 0
        self.completed = 0
        self.cancelled = 0
        self.bytes_moved = 0.0
        #: currently in-flight transfers and the highest count ever seen
        #: (observability only — never read by the simulation).
        self.active_now = 0
        self.peak_active = 0

    # ------------------------------------------------------------------ API
    def start(
        self, src: int, dst: int, megabits: float, on_complete: Callable[[], None]
    ) -> Transfer:
        """Begin moving ``megabits`` from ``src`` to ``dst``.

        Local or empty transfers complete via a zero-delay event so callers
        get uniform asynchronous semantics.
        """
        self.started += 1
        tr = Transfer(self, src, dst, megabits, on_complete, self.started)
        if self.recorder is not None:
            self.recorder.add(
                self.sim.now, "transfer_start", dst, tid=tr.seq, src=src, size=megabits
            )
        group = self.inbound.get(dst)
        if group is None:
            group = self.inbound[dst] = set()
        group.add(tr)
        self.active_now += 1
        if self.active_now > self.peak_active:
            self.peak_active = self.active_now
        if self.contention and megabits > 0.0 and src != dst:
            self._arm_contended(dst)
        else:
            delay = self.topology.transfer_time(src, dst, megabits)
            tr.event = self.sim.schedule(delay, tr, label="xfer")
        return tr

    def cancel_inbound(self, dst: int) -> int:
        """Cancel every in-flight transfer into ``dst`` (node departed)."""
        transfers = self.inbound.pop(dst, set())
        for tr in transfers:
            tr.cancel()
        self.cancelled += len(transfers)
        self.active_now -= len(transfers)
        return len(transfers)

    def active_count(self, dst: int) -> int:
        """Number of in-flight transfers into ``dst``."""
        return len(self.inbound.get(dst, ()))

    # ------------------------------------------------------------ internals
    def _finish(self, tr: Transfer) -> None:
        if tr.done:
            return
        tr.done = True
        tr.event = None
        tr.remaining = 0.0
        group = self.inbound.get(tr.dst)
        if group is not None:
            group.discard(tr)
            if not group:
                del self.inbound[tr.dst]
        self.completed += 1
        self.active_now -= 1
        self.bytes_moved += tr.megabits
        if self.recorder is not None:
            self.recorder.add(
                self.sim.now, "transfer_done", tr.dst, tid=tr.seq, src=tr.src,
                size=tr.megabits,
            )
        tr.on_complete()
        if self.contention:
            self._arm_contended(tr.dst)

    # ---- contention mode (extension) --------------------------------------
    def _arm_contended(self, dst: int) -> None:
        """Re-plan completions for ``dst`` under processor sharing.

        The inbound capacity of each active transfer is its path bandwidth
        divided by the number of concurrent inbound flows; whenever the
        active set changes all pending completion events are re-derived
        from the remaining volumes.
        """
        group = self.inbound.get(dst)
        if not group:
            return
        active = [t for t in group if not t.done]
        n = len(active)
        now = self.sim.now
        for tr in active:
            if tr.event is not None:
                # Credit progress made at the previous rate before re-arming.
                tr.event.cancel()
                if tr.rate > 0.0:
                    tr.remaining = max(0.0, tr.remaining - tr.rate * (now - tr.armed_at))
            if tr.megabits <= 0.0 or tr.src == tr.dst or tr.remaining <= 0.0:
                tr.rate = 0.0
                tr.event = self.sim.schedule(0.0, tr, label="xfer0")
                continue
            bw = self.topology.bandwidth(tr.src, tr.dst) / n
            delay = tr.remaining / bw + self.topology.latency(tr.src, tr.dst)
            tr.armed_at = now
            tr.rate = bw
            tr.event = self.sim.schedule(delay, tr, label="xferC")
