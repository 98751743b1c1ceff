"""Per-layer self time and work counts, taken from outside the program.

Nothing under ``src/`` knows about this module.  It wraps the public entry
point of each layer — on one ``P2PGridSystem`` instance, or on a class for
the duration of a ``with`` block — and keeps a stack of open spans.  When
a span closes, its duration minus the time its child spans covered is
charged to its layer as self time.  The root spans are the system's
construction (``setup``) and ``system.run()`` (``sim``), so the self times
of the layers under a root add up to that root's traced duration.

Layer -> entry point:

* ``gossip.newscast`` / ``gossip.epidemic`` / ``gossip.aggregation`` —
  ``overlay`` / ``epidemic`` / ``aggregation.run_cycle``
* ``phase1.view`` — ``Phase1Runner.run_for_home`` (its self time is the
  view and context build), ``phase1.plan`` — ``bundle.phase1.plan``,
  ``phase1.dispatch`` — ``system.execute_decision``
* ``phase2.select`` — ``bundle.phase2.select``
* ``xfer.start`` — ``TransferManager.start``
* ``churn.kill`` / ``churn.revive`` — ``system.kill_node`` / ``revive_node``
* ``net.topology`` — ``Topology.waxman``, ``net.landmarks`` —
  ``LandmarkEstimator(...)``, both during construction

Formula (9) evaluations are counted, not timed: every outermost call of
``ResourceView.best`` / ``best_ft`` / ``ft_vector`` is one call over
``len(view)`` candidates.
"""

from __future__ import annotations

import contextlib
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Iterator


class LayerClock:
    """Self-time accounting for nested spans, plus named counters."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[float] = []

    def timed(self, layer: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span charged to ``layer``."""
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                self_s[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                calls[layer] += 1

        return span


def instrument_run(system, clock: LayerClock) -> None:
    """Wrap every layer entry point reached from ``system.run()``."""
    for layer, owner in (
        ("gossip.newscast", system.overlay),
        ("gossip.epidemic", system.epidemic),
        ("gossip.aggregation", system.aggregation),
    ):
        owner.run_cycle = clock.timed(layer, owner.run_cycle)
    phase1 = system.phase1
    phase1.run_for_home = clock.timed("phase1.view", phase1.run_for_home)
    policy1, policy2 = system.bundle.phase1, system.bundle.phase2
    policy1.plan = clock.timed("phase1.plan", policy1.plan)
    policy2.select = clock.timed("phase2.select", policy2.select)
    system.execute_decision = clock.timed("phase1.dispatch", system.execute_decision)
    system.transfers.start = clock.timed("xfer.start", system.transfers.start)
    system.kill_node = clock.timed("churn.kill", system.kill_node)
    system.revive_node = clock.timed("churn.revive", system.revive_node)


@contextlib.contextmanager
def formula9_counter(clock: LayerClock) -> Iterator[None]:
    """Count outermost Formula (9) evaluations while the block runs."""
    from repro.core.estimates import ResourceView

    names = ("best", "best_ft", "ft_vector")
    originals = {name: ResourceView.__dict__[name] for name in names}
    counts = clock.counts
    depth = [0]

    def counting(fn):
        def evaluate(view, *args, **kwargs):
            if not depth[0]:
                counts["phase1.ft_calls"] += 1
                counts["phase1.ft_candidate_evals"] += len(view)
            depth[0] += 1
            try:
                return fn(view, *args, **kwargs)
            finally:
                depth[0] -= 1

        return evaluate

    for name, fn in originals.items():
        setattr(ResourceView, name, counting(fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(ResourceView, name, fn)


@contextlib.contextmanager
def setup_spans(clock: LayerClock) -> Iterator[None]:
    """Time the network layer's construction-time entry points."""
    import repro.grid.system as grid_system
    from repro.net.topology import Topology

    waxman = Topology.__dict__["waxman"]
    landmarks = grid_system.LandmarkEstimator
    Topology.waxman = classmethod(clock.timed("net.topology", waxman.__func__))
    grid_system.LandmarkEstimator = clock.timed("net.landmarks", landmarks)
    try:
        yield
    finally:
        Topology.waxman = waxman
        grid_system.LandmarkEstimator = landmarks


class StepClock:
    """Host time of each simulated event of one run.

    Every callback scheduled on the system's simulator is wrapped to stamp
    its start; the host time from one event's start to the next (and from
    the last one to the end of the run) is the latency of one step.  A
    ``metro-1k`` run has about 44k events, so a tail percentile rests on
    thousands of distinct events rather than on a few heavy gossip ticks.
    Attach it after construction and before ``run()``, while the event
    queue is still empty.

    With a :class:`~perfbench.hostspeed.HostSpeed`, a probe runs before
    every ``every``-th event, and the clock stops while it runs: the stamps
    and :meth:`elapsed` leave out :attr:`paused_s`.
    """

    def __init__(self, system, speed=None, every: int = 0) -> None:
        sim = system.sim
        if sim.queue_depth():
            raise RuntimeError("the step clock must be attached before any event is scheduled")
        self.stamps: list[float] = []
        self.paused_s = 0.0
        stamp = self.stamps.append
        schedule_at = sim.schedule_at

        if speed is None:
            def stamped_schedule_at(time, callback, label=""):
                def stamped():
                    stamp(perf_counter())
                    return callback()

                return schedule_at(time, stamped, label)
        else:
            probe = speed.probe
            clock = self

            def stamped_schedule_at(time, callback, label=""):
                def stamped():
                    if len(clock.stamps) % every == 0:
                        t0 = perf_counter()
                        probe()
                        clock.paused_s += perf_counter() - t0
                    stamp(perf_counter() - clock.paused_s)
                    return callback()

                return schedule_at(time, stamped, label)

        sim.schedule_at = stamped_schedule_at

    def elapsed(self, start: float, end: float) -> float:
        """Host time from ``start`` to ``end`` (``perf_counter`` readings)
        without the probes."""
        return end - start - self.paused_s

    def steps_ms(self, run_end: float) -> list[float]:
        ends = self.stamps[1:] + [run_end - self.paused_s]
        return [(b - a) * 1000.0 for a, b in zip(self.stamps, ends)]
