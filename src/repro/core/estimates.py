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

Performance note: Eq. (4) does not depend on loads, and within one phase-1
cycle no home's candidates or task inputs change before its turn (another
home's dispatches move only node loads and that home's own RSS row).  So
:func:`ltd_rows` evaluates LTD for a whole cycle at once, in the shape of a
bulk-scheduling cost matrix: every transfer of every distinct
``(image, inputs)`` of every home is one segment of (source, candidate)
pairs, one :meth:`BandwidthProvider.pairs` gather prices them all, and one
segmented max folds them into per-key rows that seed each home's view.  A
view answers every Formula-(9) entry point from those rows, and runs the
same function for itself on a key the batch did not cover.  The typical
view is tiny — the RSS holds O(log2 n) records — and at that size NumPy's
per-call overhead dwarfs the arithmetic, so views of up to ``_SCALAR_MAX``
candidates keep plain-Python lists and serve :meth:`~ResourceView.best` and
:meth:`~ResourceView.best_ft` with a Python argmin; IEEE arithmetic makes it
bit-identical to the NumPy one that larger views use.
"""

from __future__ import annotations

from typing import Callable, Iterable, Protocol, Sequence

import numpy as np

__all__ = ["BandwidthProvider", "ResourceView", "TaskInput", "ltd_rows"]

#: One dependent input: ``(source_node_id, megabits)``.
TaskInput = tuple[int, float]

#: One Eq. (4) key: a task's image size and its dependent inputs.
LtdKey = tuple[float, tuple[TaskInput, ...]]

#: Views of up to this many candidates keep Python lists and take the
#: Python argmin (crossover measured on the bench harness; both argmins
#: produce bit-identical floats, so the value only affects speed).
_SCALAR_MAX = 64


class BandwidthProvider(Protocol):
    """Bandwidth/latency knowledge available to a scheduler.

    Implementations: the ground-truth topology (oracle) or the
    landmark-based estimator of :mod:`repro.net.landmarks`; actual
    transfers always use the ground truth.  One call prices a whole
    cycle's transfers, and nothing is cached per source.
    """

    def pairs(self, srcs: np.ndarray, dsts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(bandwidth Mb/s, latency s)`` of each pair ``(srcs[i], dsts[i])``."""
        ...


class OracleBandwidth:
    """Ground-truth bandwidth and latency from the topology: matrix reads
    on an exact topology, pair lookups on a scalable one, so no O(n^2)
    matrix is ever built here."""

    def __init__(self, topology) -> None:
        self._topology = topology

    def pairs(self, srcs: np.ndarray, dsts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        topology = self._topology
        return topology.bandwidth_between(srcs, dsts), topology.latency_between(srcs, dsts)


class LandmarkBandwidth:
    """Landmark-estimated bandwidth with the topology's latency.

    Latency to a handful of landmarks is trivially measurable (ping), so the
    paper's nodes are assumed to know it; only bandwidth is estimated:
    est(a, b) = max over landmarks L of min(bw(a, L), bw(L, b)).
    """

    def __init__(self, estimator, topology) -> None:
        #: One contiguous row per landmark: ``pairs`` takes the pairwise
        #: min and running max one landmark at a time.
        self._by_landmark = np.ascontiguousarray(estimator.measurements.T)
        self._topology = topology

    def pairs(self, srcs: np.ndarray, dsts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        meas = self._by_landmark
        bw = np.minimum(meas[0].take(srcs), meas[0].take(dsts))
        for row in meas[1:]:
            np.maximum(bw, np.minimum(row.take(srcs), row.take(dsts)), out=bw)
        bw[srcs == dsts] = np.inf
        return bw, self._topology.latency_between(srcs, dsts)


def ltd_rows(
    bandwidth: BandwidthProvider,
    homes: Sequence[tuple[int, Sequence[int], Iterable[LtdKey]]],
) -> list[dict[LtdKey, list[float] | np.ndarray]]:
    """Eq. (4) for many homes in one pass.

    ``homes`` lists ``(home_id, candidate_ids, keys)``.  Returns, per home,
    each key's LTD row over its candidates: a list for views of up to
    ``_SCALAR_MAX`` candidates, an array above.  The image ships from the
    home and each input from its source; a transfer of no data, or onto
    the node that already holds it, costs nothing.  Each transfer is one
    segment of (source, candidate) pairs: one ``bandwidth.pairs`` gather
    prices every segment, and one segmented max folds each key's segments
    into its row.
    """
    cand: list[int] = []
    # ``(home index, key, offset into the output, width)`` per row
    rows: list[tuple[int, LtdKey, int, int]] = []
    # ``source, megabits, row offset, offset into cand, width`` of each
    # transfer that costs anything, flat
    segments: list[float] = []
    size = 0
    for h, (home_id, ids, keys) in enumerate(homes):
        first, width = len(cand), len(ids)
        cand.extend(ids)
        for key in keys:
            image_mb, inputs = key
            for src, mb in ((home_id, image_mb), *inputs):
                if mb > 0.0:
                    segments.extend((src, mb, size, first, width))
            rows.append((h, key, size, width))
            size += width
    out = np.zeros(size)
    if segments:
        seg = np.array(segments, dtype=np.float64).reshape(-1, 5)
        src, at, cand_at, n = seg[:, [0, 2, 3, 4]].astype(np.int64).T
        # Each pair's candidate index within its segment.
        k = np.arange(int(n.sum())) - np.repeat(np.cumsum(n) - n, n)
        srcs = np.repeat(src, n)
        dsts = np.array(cand, dtype=np.int64)[np.repeat(cand_at, n) + k]
        bw, lat = bandwidth.pairs(srcs, dsts)
        with np.errstate(divide="ignore"):  # a zero-bandwidth pair costs inf
            t = np.repeat(seg[:, 1], n) / bw + lat
        t[srcs == dsts] = 0.0
        np.maximum.at(out, np.repeat(at, n) + k, t)
    flat = out.tolist()
    result: list[dict] = [{} for _ in homes]
    for h, key, a, m in rows:
        result[h][key] = flat[a : a + m] if m <= _SCALAR_MAX else out[a : a + m]
    return result


class ResourceView:
    """Candidate resource nodes as seen by one scheduler in one cycle.

    Eq. (4) rows come from the cycle's :func:`ltd_rows` batch through
    :meth:`seed_ltd`; a key the batch did not cover is evaluated once, by
    the same function for this view alone.

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
        #: persistent write-back of Algorithm 1 line 15 (e.g. into the home's
        #: gossip RSS record): ``add_load`` calls ``writeback(index, new load)``.
        self.writeback = writeback
        self._index = {nid: k for k, nid in enumerate(self._ids)}
        self._scalar = len(self._ids) <= _SCALAR_MAX
        # Memoized per-candidate queueing delays (loads[k] / caps[k]) for
        # the Python argmin: a scheduling cycle evaluates many tasks
        # against the same view between load mutations, and ``add_load``
        # refreshes the single affected slot with the identical division.
        self._qd: list[float] | None = None
        # Eq. (4) row per distinct (image_mb, inputs): seeded from the
        # cycle batch by ``seed_ltd``, filled on a miss by ``_ltd``.
        self._ltd_memo: dict[LtdKey, list[float] | np.ndarray] = {}

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
        view._scalar = len(ids) <= _SCALAR_MAX
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

    def seed_ltd(self, ids: list[int], rows: dict[LtdKey, list[float] | np.ndarray]) -> None:
        """Adopt Eq. (4) rows that :func:`ltd_rows` evaluated over ``ids``.

        Raises ``ValueError`` unless ``ids`` are this view's candidates in
        order: rows over other candidates would misprice every transfer.
        """
        if ids != self._ids:
            raise ValueError("Eq. (4) rows were evaluated over other candidates than this view's")
        self._ltd_memo.update(rows)

    def _ltd(self, image_mb: float, inputs: Sequence[TaskInput]) -> list[float] | np.ndarray:
        """Eq. (4) for every candidate: the seeded row, else a one-key
        :func:`ltd_rows` for this view.  Callers must not mutate it."""
        key = (image_mb, tuple(inputs))
        ltd = self._ltd_memo.get(key)
        if ltd is None:
            (rows,) = ltd_rows(self.bandwidth, [(self.home_id, self._ids, [key])])
            ltd = self._ltd_memo[key] = rows[key]
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

    # ---- Python argmin (views of up to _SCALAR_MAX candidates) -------------
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
            self.writeback(k, new)
