"""Start/finish-time estimation (Equations (4)–(6)) and the resource view.

At the first scheduling phase a home node evaluates, for every candidate
resource node ``p_h`` in its RSS, the estimated finish time of task ``τ``::

    R(τ, p_h)   = l_h / c_h                          queuing delay (total load
                                                     over capacity — the
                                                     paper's conservative
                                                     estimate)
    LTD(τ)      = max over inputs (transfer time)    Eq. (4) — dependent data
                                                     from each precedent's
                                                     node, plus the task image
                                                     from the home node
    ST(τ, p_h)  = max(R, LTD)                        Eq. (5) — queueing and
                                                     transfers overlap
    FT(τ, p_h)  = ST + load(τ)/c_h                   Eq. (6)

:class:`ResourceView` holds the candidate table for one scheduling cycle and
evaluates ``FT`` for *all* candidates (the phase-1 hot path).  ``add_load``
implements Algorithm 1 line 15: the scheduler's local record of the chosen
node is bumped so the next pick in the same cycle sees the load it just
added.

Performance note: the typical view is tiny — the RSS holds O(log2 n)
records — and at that size the fixed overhead of materializing numpy arrays
dwarfs the arithmetic.  The view therefore keeps plain-Python candidate
lists and serves :meth:`best`/:meth:`best_ft` (what every bundled phase-1
policy actually calls) through a scalar fast path whenever the bandwidth
provider exposes scalar lookups; IEEE arithmetic makes the scalar and
vectorized paths bit-identical, and the vectorized :meth:`ft_vector` API is
unchanged for the pooled list heuristics and large (oracle-mode) views.
Eq. (4) does not depend on loads, so each view evaluates it once per
distinct ``(image, inputs)`` and every entry point reuses that row.
"""

from __future__ import annotations

from array import array
from typing import Callable, Protocol, Sequence

import numpy as np

__all__ = ["BandwidthProvider", "ResourceView", "TaskInput"]

#: One dependent input: ``(source_node_id, megabits)``.
TaskInput = tuple[int, float]

#: Candidate counts up to this size take the scalar fast path in
#: ``best``/``best_ft`` (crossover measured on the bench harness; both
#: paths produce bit-identical floats, so the value only affects speed).
_SCALAR_MAX = 64


class BandwidthProvider(Protocol):
    """Bandwidth/latency knowledge available to a scheduler.

    Implementations: the ground-truth topology (oracle) or the
    landmark-based estimator of :mod:`repro.net.landmarks`; actual
    transfers always use the ground truth.  Providers may additionally
    expose scalar ``bw_to(src, dst)``/``lat_to(src, dst)`` lookups to
    enable the small-view fast path.
    """

    def bw_between(self, src: int, targets: np.ndarray) -> np.ndarray:
        """Estimated bandwidth (Mb/s) from ``src`` to each target id."""
        ...

    def latency_between(self, src: int, targets: np.ndarray) -> np.ndarray:
        """Latency (s) from ``src`` to each target id."""
        ...


def _float_row(values: np.ndarray) -> array:
    """A float64 row as ``array('d')``: indexing it yields the same Python
    floats as ``tolist()`` would, at 8 bytes per entry instead of 32."""
    return array("d", np.asarray(values, dtype=np.float64).tobytes())


class OracleBandwidth:
    """Ground-truth bandwidth provider backed by the topology matrices."""

    #: Row caching is always worthwhile here: construction already
    #: materialized the dense matrices.
    scalar_ok = True

    def __init__(self, topology) -> None:
        self._bw = topology._bandwidth
        self._lat = topology._latency
        # Per-source row caches (scalar fast path): indexing an
        # ``array('d')`` returns a Python float several times faster than
        # numpy scalar indexing, at a quarter of a list's memory, and rows
        # are touched repeatedly across cycles.
        self._bw_rows: dict[int, tuple[array, array]] = {}

    def bw_between(self, src: int, targets: np.ndarray) -> np.ndarray:
        return self._bw[src, targets]

    def latency_between(self, src: int, targets: np.ndarray) -> np.ndarray:
        return self._lat[src, targets]

    def bw_to(self, src: int, dst: int) -> float:
        return self.rows(src)[0][dst]

    def lat_to(self, src: int, dst: int) -> float:
        return self.rows(src)[1][dst]

    def rows(self, src: int) -> tuple[array, array]:
        """``(bandwidth_row, latency_row)`` from ``src`` as ``array('d')``.

        Rows are static for a whole run, so each is converted once and the
        scalar fast path indexes Python floats from then on.
        """
        row = self._bw_rows.get(src)
        if row is None:
            row = self._bw_rows[src] = (
                _float_row(self._bw[src]),
                _float_row(self._lat[src]),
            )
        return row


class LandmarkBandwidth:
    """Landmark-estimated bandwidth with oracle latency.

    Latency to a handful of landmarks is trivially measurable (ping), so the
    paper's nodes are assumed to know it; only bandwidth is estimated.
    """

    def __init__(self, estimator, topology) -> None:
        self._meas = estimator.measurements
        self._topology = topology
        #: Row caching materializes O(n)-element rows per queried
        #: source — the dominant scheduling cost above the exact-matrix
        #: scale, where views stay on the vectorized path instead.
        self.scalar_ok = topology.exact_paths
        #: src -> (estimated bandwidth row, latency row); estimates are
        #: static per run, so each queried source pays the O(n log n) row
        #: derivation once.
        self._rows: dict[int, tuple[array, array]] = {}

    def bw_between(self, src: int, targets: np.ndarray) -> np.ndarray:
        est = np.minimum(self._meas[src][None, :], self._meas[targets]).max(axis=1)
        est[targets == src] = np.inf
        return est

    def latency_between(self, src: int, targets: np.ndarray) -> np.ndarray:
        return self._topology.latency_between(src, targets)

    def bw_to(self, src: int, dst: int) -> float:
        return self.rows(src)[0][dst]

    def lat_to(self, src: int, dst: int) -> float:
        return self.rows(src)[1][dst]

    def rows(self, src: int) -> tuple[array, array]:
        """``(estimated bandwidth row, latency row)`` from ``src``.

        est(a, b) = max over landmarks of min(bw(a, L), bw(L, b)) — exact
        min/max arithmetic, so the row matches ``bw_between`` bit for bit.
        """
        row = self._rows.get(src)
        if row is None:
            est = np.minimum(self._meas[src][None, :], self._meas).max(axis=1)
            est[src] = np.inf
            row = self._rows[src] = (
                _float_row(est),
                _float_row(self._topology.latency_row(src)),
            )
        return row


class ResourceView:
    """Candidate resource nodes as seen by one scheduler in one cycle.

    Parameters
    ----------
    ids:
        Candidate node ids (the RSS plus the home node itself).
    capacities / loads:
        Per-candidate capacity (MIPS) and *believed* total load (MI) — from
        gossip records, hence possibly stale.
    bandwidth:
        The scheduler's bandwidth knowledge.
    home_id:
        The scheduling node (source of task images).
    """

    __slots__ = (
        "_ids",
        "_caps",
        "_loads",
        "_ids_arr",
        "_caps_arr",
        "_loads_arr",
        "bandwidth",
        "home_id",
        "writeback",
        "_index",
        "_scalar",
        "_qd",
        "_ltd_memo",
    )

    def __init__(
        self,
        ids: Sequence[int],
        capacities: Sequence[float],
        loads: Sequence[float],
        bandwidth: BandwidthProvider,
        home_id: int,
        writeback: Callable[[int, float], None] | None = None,
    ):
        if len(ids) == 0:
            raise ValueError("ResourceView needs at least one candidate node")
        self._ids = [int(i) for i in ids]
        self._caps = [float(c) for c in capacities]
        self._loads = [float(x) for x in loads]
        if len(self._ids) != len(self._caps) or len(self._ids) != len(self._loads):
            raise ValueError("ids, capacities and loads must align")
        if any(c <= 0 for c in self._caps):
            raise ValueError("capacities must be positive")
        # Lazy numpy mirrors: materialized only when the vectorized API is
        # used (pooled-list heuristics, tests); kept in sync by add_load.
        self._ids_arr: np.ndarray | None = None
        self._caps_arr: np.ndarray | None = None
        self._loads_arr: np.ndarray | None = None
        self.bandwidth = bandwidth
        self.home_id = int(home_id)
        #: persistent write-back of Algorithm 1 line 15 (e.g. into the
        #: home's gossip RSS record) applied on every ``add_load``.
        self.writeback = writeback
        self._index = {nid: k for k, nid in enumerate(self._ids)}
        self._scalar = (
            len(self._ids) <= _SCALAR_MAX
            and hasattr(bandwidth, "rows")
            and getattr(bandwidth, "scalar_ok", True)
        )
        # Memoized per-candidate queueing delays (loads[k] / caps[k]) for
        # the scalar fast path: a scheduling cycle evaluates many tasks
        # against the same view between load mutations, and ``add_load``
        # refreshes the single affected slot with the identical division.
        self._qd: list[float] | None = None
        # Eq. (4) per distinct (image_mb, inputs), filled by ``_ltd``.
        self._ltd_memo: dict[tuple, list[float] | np.ndarray] = {}

    @classmethod
    def trusted(
        cls,
        ids: list[int],
        capacities: list[float],
        loads: list[float],
        bandwidth: BandwidthProvider,
        home_id: int,
        writeback: Callable[[int, float], None] | None = None,
    ) -> "ResourceView":
        """Construction fast path for the per-cycle scheduler: the caller
        guarantees plain non-empty ``int``/``float`` lists with positive
        capacities, so the per-element conversion/validation of
        ``__init__`` is skipped (the lists are owned by the view from here
        on)."""
        view = cls.__new__(cls)
        view._ids = ids
        view._caps = capacities
        view._loads = loads
        view._ids_arr = None
        view._caps_arr = None
        view._loads_arr = None
        view.bandwidth = bandwidth
        view.home_id = home_id
        view.writeback = writeback
        view._index = {nid: k for k, nid in enumerate(ids)}
        view._scalar = (
            len(ids) <= _SCALAR_MAX
            and hasattr(bandwidth, "rows")
            and getattr(bandwidth, "scalar_ok", True)
        )
        view._qd = None
        view._ltd_memo = {}
        return view

    def __len__(self) -> int:
        return len(self._ids)

    # ------------------------------------------------------- numpy mirrors
    @property
    def ids(self) -> np.ndarray:
        if self._ids_arr is None:
            self._ids_arr = np.asarray(self._ids, dtype=np.int64)
        return self._ids_arr

    @property
    def capacities(self) -> np.ndarray:
        if self._caps_arr is None:
            self._caps_arr = np.asarray(self._caps, dtype=np.float64)
        return self._caps_arr

    @property
    def loads(self) -> np.ndarray:
        if self._loads_arr is None:
            self._loads_arr = np.asarray(self._loads, dtype=np.float64)
        return self._loads_arr

    # ------------------------------------------------------------- estimates
    def queue_delays(self) -> np.ndarray:
        """R(·, p_h) for every candidate (Eq. 5's first argument)."""
        return self.loads / self.capacities

    def _ltd(
        self, image_mb: float, inputs: Sequence[TaskInput]
    ) -> list[float] | np.ndarray:
        """Eq. (4) for every candidate, evaluated once per view and inputs.

        LTD does not depend on loads, and a view's candidates and bandwidth
        knowledge are fixed for its lifetime, so each distinct
        ``(image_mb, inputs)`` is evaluated once and then reused by every
        entry point — a list on the scalar path, an array otherwise.
        Callers must not mutate the result.
        """
        memo_key = (image_mb, tuple(inputs))
        ltd = self._ltd_memo.get(memo_key)
        if ltd is None:
            if self._scalar:
                ltd = self._ltd_scalar(image_mb, inputs)
            else:
                ltd = self._ltd_array(image_mb, inputs)
            self._ltd_memo[memo_key] = ltd
        return ltd

    def _ltd_array(self, image_mb: float, inputs: Sequence[TaskInput]) -> np.ndarray:
        """Eq. (4) over the candidate array, one NumPy pass per source."""
        ids = self.ids
        ltd = np.zeros(len(ids))
        if image_mb > 0.0:
            bw = self.bandwidth.bw_between(self.home_id, ids)
            t = image_mb / bw + self.bandwidth.latency_between(self.home_id, ids)
            t[ids == self.home_id] = 0.0
            np.maximum(ltd, t, out=ltd)
        for src, mb in inputs:
            if mb <= 0.0:
                continue
            bw = self.bandwidth.bw_between(src, ids)
            t = mb / bw + self.bandwidth.latency_between(src, ids)
            t[ids == src] = 0.0
            np.maximum(ltd, t, out=ltd)
        return ltd

    def _ltd_scalar(self, image_mb: float, inputs: Sequence[TaskInput]) -> list[float]:
        """Pure-Python :meth:`_ltd_array`: every operation (division,
        addition, max) matches the vectorized float64 expression bit for
        bit."""
        ids = self._ids
        rows = self.bandwidth.rows
        inf = np.inf
        ltd = [0.0] * len(ids)
        # The image from home first, then each dependent input in order —
        # the accumulation order of _ltd_array (max is order-exact anyway).
        for src, mb in ((self.home_id, image_mb), *inputs):
            if not mb > 0.0:
                continue
            bw_row, lat_row = rows(src)
            for k, nid in enumerate(ids):
                if nid != src:
                    b = bw_row[nid]
                    # b == 0 must yield inf like numpy division, not raise.
                    t = mb / b + lat_row[nid] if b else inf
                    if t > ltd[k]:
                        ltd[k] = t
        return ltd

    def ltd_vector(self, image_mb: float, inputs: Sequence[TaskInput]) -> np.ndarray:
        """Eq. (4): longest transmission delay onto every candidate."""
        return np.array(self._ltd(image_mb, inputs), dtype=np.float64)

    def ft_vector(
        self, load: float, image_mb: float, inputs: Sequence[TaskInput]
    ) -> np.ndarray:
        """FT(τ, p_h) for every candidate — Eq. (6), fully vectorized."""
        st = np.maximum(self.queue_delays(), self._ltd(image_mb, inputs))
        return st + load / self.capacities

    # ---- scalar fast path --------------------------------------------------
    def _best_scalar(
        self, load: float, image_mb: float, inputs: Sequence[TaskInput]
    ) -> tuple[int, int, float]:
        """``(index, node_id, ft)`` of the earliest-finish candidate.

        Pure-Python evaluation of Eq. (5)–(6) over the candidate lists;
        every operation (division, addition, max, first-minimum) matches
        the vectorized float64 expression bit for bit.
        """
        caps = self._caps
        qd = self._qd
        if qd is None:
            # Same divisions as the loop formerly performed per call.
            qd = self._qd = [x / c for x, c in zip(self._loads, caps)]
        ltd = self._ltd(image_mb, inputs)
        best_k = 0
        best_ft = np.inf
        for k, st in enumerate(qd):
            d = ltd[k]
            if d > st:
                st = d
            ft = st + load / caps[k]
            if ft < best_ft:
                best_ft = ft
                best_k = k
        return best_k, self._ids[best_k], float(best_ft)

    def best(
        self, load: float, image_mb: float, inputs: Sequence[TaskInput]
    ) -> tuple[int, float]:
        """Formula (9): the candidate with the earliest estimated finish."""
        if self._scalar:
            _, nid, ft = self._best_scalar(load, image_mb, inputs)
            return nid, ft
        ft = self.ft_vector(load, image_mb, inputs)
        k = int(np.argmin(ft))
        return int(self.ids[k]), float(ft[k])

    def best_ft(self, load: float, image_mb: float, inputs: Sequence[TaskInput]) -> float:
        """min over candidates of FT (the dynamic part of a schedule-point
        RPM)."""
        if self._scalar:
            return self._best_scalar(load, image_mb, inputs)[2]
        return float(self.ft_vector(load, image_mb, inputs).min())

    # -------------------------------------------------------------- mutation
    def add_load(
        self, node_id: int, load: float, on_update: Callable[[int, float], None] | None = None
    ) -> None:
        """Algorithm 1 line 15: account a dispatched task against the local
        record of ``node_id``; ``on_update(node_id, new_load)`` lets the
        caller write the update back to its gossip RSS."""
        k = self._index.get(int(node_id))
        if k is None:
            raise KeyError(f"node {node_id} not in this resource view")
        new = self._loads[k] + load
        self._loads[k] = new
        if self._loads_arr is not None:
            self._loads_arr[k] = new
        if self._qd is not None:
            self._qd[k] = new / self._caps[k]
        if on_update is not None:
            on_update(int(node_id), new)
        if self.writeback is not None:
            self.writeback(int(node_id), new)
