"""Host speed, sampled by a tiny reference loop while the program runs.

The benchmark's host is a shared VM whose speed flips between two modes,
about 1.6x apart for the simulator, sometimes within seconds and sometimes
for minutes.  A median over reps cannot remove a shift that lasts longer
than a run, and a probe before and after a four-second rep misses the
flips inside it.  So the host's speed is sampled *during* each timed
operation: :meth:`HostSpeed.probe` times a fixed loop of 0.15-0.3 ms,
nothing from the program under test, and the operation's host time is
multiplied by ``REFERENCE_S / mean(the probes taken during it)``.  The
loop has two halves: attribute arithmetic, dict lookups and heap pushes
on a few hundred objects, which stay in cache, and attribute updates and
dict lookups at scattered positions of 100k objects, which do not.  The
host's slow mode slows the first half more than the simulator and the
second half less; their sum follows it.  In a simulation run the step clock
(:class:`~perfbench.layers.StepClock`) takes a probe every
:data:`PROBE_EVERY` events and stops its own clock meanwhile, so the probes
are not part of any reported time; the service client takes one before
each request.  Set-up, which runs no events, is scaled by a burst of
probes just before it and one just after.

Over twelve ``metro-1k`` reps of one seed, raw ``run_s`` spread by 0.058
(IQR / median); scaled by the in-cache half alone by 0.086, by the
scattered half alone by 0.068 and by both by 0.039.  Probes before and
after each rep instead of inside it did worse than no scaling (0.26
against 0.16 raw, in a noisier period).  The probe allocates no object
the garbage collector tracks, so the program's heap does not change its
cost.  Its objects add about 20 MB to the resident set of the process
that probes.  A scaled time reads in seconds at the speed at which one
probe takes :data:`REFERENCE_S`.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from time import perf_counter

#: Host time of one probe at the reference speed: about its mean inside a
#: simulation run on the 2-vCPU VM the bounds were set on (Python 3.11),
#: where the program keeps the probe's objects out of cache.  There, scaled
#: times come out close to host seconds.
REFERENCE_S = 3.0e-4

#: Simulated events between two probes in a simulation run.
PROBE_EVERY = 100
#: Probes in a burst around a set-up.
BURST = 40

_STEPS = 300
_SCATTERED = 100_000
_SCATTERED_STEPS = 150


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: float) -> None:
        self.a = a
        self.b = 0.0


class HostSpeed:
    """The reference loop and the probes taken so far."""

    def __init__(self) -> None:
        self._items = [_Item(float(i)) for i in range(64)]
        self._table = {i: 0.0 for i in range(256)}
        self._heap: list[float] = []
        rng = random.Random(5)
        self._scattered = [_Item(float(i)) for i in range(_SCATTERED)]
        self._scattered_table = {i * 7919: float(i) for i in range(_SCATTERED)}
        self._order = [rng.randrange(_SCATTERED) for _ in range(4096)]
        self._pos = 0
        self.samples_s: list[float] = []

    def probe(self) -> float:
        """Host time of one fixed unit of reference work (also recorded)."""
        items, table, heap = self._items, self._table, self._heap
        t0 = perf_counter()
        for i in range(_STEPS):
            item = items[i & 63]
            item.b = item.b * 0.7 + item.a
            table[i & 255] = table.get((i * 7) & 255, 0.0) * 0.5 + item.b
            heappush(heap, item.b)
            if len(heap) > 32:
                heappop(heap)
        del heap[:]
        scattered, scattered_table, order, pos = (
            self._scattered, self._scattered_table, self._order, self._pos
        )
        for j in range(_SCATTERED_STEPS):
            k = order[(pos + j) & 4095]
            item = scattered[k]
            item.b = item.b * 0.7 + scattered_table.get(k * 7919, 0.0)
        self._pos = (pos + _SCATTERED_STEPS + 1) & 4095
        elapsed = perf_counter() - t0
        self.samples_s.append(elapsed)
        return elapsed

    def burst(self) -> None:
        for _ in range(BURST):
            self.probe()

    def mark(self) -> int:
        """A position in :attr:`samples_s`, for :meth:`scale_since`."""
        return len(self.samples_s)

    def scale_since(self, mark: int) -> float:
        """The factor that turns host time into reference-speed time, from
        the probes taken since ``mark`` (1.0 if there were none)."""
        samples = self.samples_s[mark:]
        if not samples:
            return 1.0
        return REFERENCE_S * len(samples) / sum(samples)
