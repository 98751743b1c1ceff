"""Topology facade: link properties and end-to-end path metrics (S2+S3).

A :class:`Topology` owns a generated Waxman graph, assigns per-link
bandwidth (Table I: 0.1–10 Mb/s) and distance-derived latency, and exposes
the two end-to-end quantities the grid runtime needs:

* ``bandwidth(u, v)`` — bottleneck bandwidth of the widest path (Mb/s), and
* ``latency(u, v)``  — propagation delay of the shortest path (s).

``transfer_time(u, v, megabits)`` combines them the way the paper's cost
model does (``datasize / bandwidth``), plus the propagation term which is
negligible for the paper's data sizes but keeps the model physical.

Bottleneck bandwidth always comes from one descending-Kruskal sweep
(:func:`widest_paths`): processing links in descending bandwidth order with
a union-find, the link that first merges the components of ``u`` and ``v``
has exactly their widest-path bottleneck, so the sweep yields the
maximum-spanning forest, the exact mean over all connected pairs (the link
merging components of sizes ``a`` and ``b`` is the bottleneck for exactly
``a*b`` unordered pairs) and, when asked, the whole matrix by NumPy block
assignments.  Two storage regimes, switched on ``exact_paths``:

* **exact** (default up to ``_EXACT_MAX_NODES`` peers) — both end-to-end
  matrices are computed eagerly: the sweep block-fills all-pairs bottleneck
  bandwidth and scipy's multi-source Dijkstra gives all-pairs latency.  At
  the paper's largest scale (n=2000) each matrix is 32 MB and every lookup
  is an O(1) array read.
* **scalable** (``metro-10k`` and beyond) — the all-pairs matrices would
  cost O(n^2) memory (800 MB each at n=10k) and the Dijkstra sweep minutes
  of wall clock, so nothing quadratic is ever built.  Bottleneck bandwidth
  stays *exact*: the widest-path value between any pair is the minimum edge
  on their maximum-spanning-forest path, answered in O(log n) via binary
  lifting (rows in O(n) by a running-min tree walk).  Latency switches to
  the standard landmark scheme — single-source Dijkstra from ``log2 n``
  high-degree landmarks, ``lat(u, v) ~= min_k lat(u, k) + lat(k, v)`` — an
  upper bound that is exact whenever a landmark lies on the shortest path.
  ``mean_bandwidth`` is the sweep's exact mean.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple, Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.net.waxman import WaxmanGraph, generate_waxman

__all__ = ["Topology", "WidestPaths", "widest_paths"]

#: Speed of signal propagation used to turn plane distance into latency.
#: The plane is unit-less; this constant maps the default 1000-unit plane to
#: a ~60 ms coast-to-coast one-way delay, a typical WAN figure.
_PROPAGATION_UNITS_PER_SECOND = 25_000.0

#: Largest node count that defaults to eager all-pairs matrices.  Above it
#: the scalable widest-forest / latency-landmark representation kicks in.
_EXACT_MAX_NODES = 4096


class WidestPaths(NamedTuple):
    """What one descending-Kruskal sweep yields (see :func:`widest_paths`)."""

    #: maximum-spanning-forest links as parallel lists, in merge order
    u: list[int]
    v: list[int]
    width: list[float]
    #: exact mean widest-path width over all connected unordered pairs
    mean: float
    #: ``(n, n)`` widest-path widths (``inf`` on the diagonal, ``0`` for
    #: disconnected pairs), or ``None`` unless requested
    matrix: Optional[np.ndarray]


def widest_paths(
    n: int, edges: np.ndarray, widths: np.ndarray, matrix: bool = False
) -> WidestPaths:
    """Widest-path (bottleneck) bandwidth of an ``n``-node graph.

    ``edges`` is an ``(m, 2)`` undirected index array and ``widths`` the
    ``(m,)`` per-link bandwidths.  Every pair across two components merged
    by a link has that link's width as its bottleneck (all earlier links
    were wider and failed to connect them); with ``matrix`` those pairs are
    written as NumPy blocks from the union-find's member lists.
    """
    if len(edges) != len(widths):
        raise ValueError("edges and widths must have the same length")
    bott = None
    if matrix:
        bott = np.zeros((n, n))
        np.fill_diagonal(bott, np.inf)
    uf = list(range(n))
    members: list[Optional[list[int]]] = [[i] for i in range(n)]

    def find(x: int) -> int:
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    tu: list[int] = []
    tv: list[int] = []
    tw: list[float] = []
    pair_sum = 0.0
    pair_cnt = 0
    eu = edges[:, 0].tolist()
    ev = edges[:, 1].tolist()
    wl = np.asarray(widths, dtype=np.float64).tolist()
    for idx in np.argsort(widths)[::-1].tolist():
        ru, rv = find(eu[idx]), find(ev[idx])
        if ru == rv:
            continue
        mu, mv = members[ru], members[rv]
        assert mu is not None and mv is not None
        ww = wl[idx]
        pair_sum += ww * len(mu) * len(mv)
        pair_cnt += len(mu) * len(mv)
        tu.append(eu[idx])
        tv.append(ev[idx])
        tw.append(ww)
        if bott is not None:
            au = np.asarray(mu, dtype=np.int64)
            av = np.asarray(mv, dtype=np.int64)
            bott[np.ix_(au, av)] = ww
            bott[np.ix_(av, au)] = ww
        # Union by size.
        if len(mu) < len(mv):
            ru, rv, mu, mv = rv, ru, mv, mu
        uf[rv] = ru
        mu.extend(mv)
        members[rv] = None
        if len(tu) == n - 1:
            break
    mean = pair_sum / pair_cnt if pair_cnt else 0.0
    return WidestPaths(tu, tv, tw, mean, bott)


class Topology:
    """End-to-end network model for ``n`` peers.

    Parameters
    ----------
    graph:
        The underlying Waxman graph.
    bw_min, bw_max:
        Uniform per-link bandwidth range in Mb/s (Table I: 0.1–10).
    rng:
        Generator for the bandwidth draw.
    exact_paths:
        ``True`` forces the eager all-pairs matrices, ``False`` the
        scalable representation; ``None`` (default) picks by size.  The
        choice never touches the RNG stream, so it only affects memory,
        speed, and the latency approximation at scale.
    """

    def __init__(
        self,
        graph: WaxmanGraph,
        bw_min: float = 0.1,
        bw_max: float = 10.0,
        rng: Optional[np.random.Generator] = None,
        exact_paths: Optional[bool] = None,
    ):
        if bw_min <= 0 or bw_max < bw_min:
            raise ValueError(f"invalid bandwidth range [{bw_min}, {bw_max}]")
        self.graph = graph
        self.n = graph.n
        if rng is None:
            rng = np.random.default_rng(0)
        self.link_bandwidth = rng.uniform(bw_min, bw_max, size=graph.m)
        self.link_latency = graph.distances / _PROPAGATION_UNITS_PER_SECOND

        if exact_paths is None:
            exact_paths = self.n <= _EXACT_MAX_NODES
        self.exact_paths = bool(exact_paths)
        self._lat_mat: Optional[np.ndarray] = None
        widest = widest_paths(
            self.n, graph.edges, self.link_bandwidth, matrix=self.exact_paths
        )
        self._bw_mat = widest.matrix
        self._mean_bw = widest.mean
        if self.exact_paths:
            self._lat_mat = self._all_pairs_latency()
        else:
            self._build_widest_forest(widest)
            self._build_latency_landmarks()
            #: (u, v) -> (bandwidth, latency) memo for repeated transfer
            #: pairs (workflow edges re-ship between the same endpoints).
            self._pair_cache: dict[tuple[int, int], tuple[float, float]] = {}

    # ------------------------------------------------------------ internals
    def _adjacency(self) -> csr_matrix:
        """Link latencies with both directions of every link stored, so
        the Dijkstra searches run ``directed=True`` and relax each arc once
        (an undirected search would add the transpose and relax it twice)."""
        e = self.graph.edges
        w = self.link_latency
        rows = np.concatenate([e[:, 0], e[:, 1]])
        cols = np.concatenate([e[:, 1], e[:, 0]])
        data = np.concatenate([w, w])
        return csr_matrix((data, (rows, cols)), shape=(self.n, self.n))

    def _all_pairs_latency(self) -> np.ndarray:
        n = self.n
        if n == 1 or self.graph.m == 0:
            return np.zeros((n, n))
        return dijkstra(self._adjacency(), directed=True)

    def _build_widest_forest(self, widest: WidestPaths) -> None:
        """Path-min index over the sweep's maximum-spanning forest.

        Widest-path bottlenecks live entirely on this forest: the bottleneck
        between ``u`` and ``v`` is the minimum edge weight on their forest
        path.
        """
        n = self.n
        tu, tv, tw = widest.u, widest.v, widest.width
        # CSR adjacency of the (undirected) forest.
        src = np.asarray(tu + tv, dtype=np.int64)
        dst = np.asarray(tv + tu, dtype=np.int64)
        wts = np.asarray(tw + tw, dtype=np.float64)
        order2 = np.argsort(src, kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(np.bincount(src, minlength=n))
        self._t_indptr = indptr.tolist()
        self._t_nbr = dst[order2].tolist()
        self._t_wt = wts[order2].tolist()

        # Rooted BFS forest: parent pointers + parent-edge widths.
        parent = np.arange(n, dtype=np.int64)
        pwidth = np.full(n, np.inf)
        depth = np.zeros(n, dtype=np.int64)
        comp = np.full(n, -1, dtype=np.int64)
        indptr_l, nbr_l, wt_l = self._t_indptr, self._t_nbr, self._t_wt
        comp_l = comp.tolist()
        for root in range(n):
            if comp_l[root] != -1:
                continue
            comp_l[root] = root
            dq = deque([root])
            while dq:
                cur = dq.popleft()
                for k in range(indptr_l[cur], indptr_l[cur + 1]):
                    nb = nbr_l[k]
                    if comp_l[nb] == -1:
                        comp_l[nb] = root
                        parent[nb] = cur
                        pwidth[nb] = wt_l[k]
                        depth[nb] = depth[cur] + 1
                        dq.append(nb)
        self._comp = np.asarray(comp_l, dtype=np.int64)
        self._depth = depth
        # Binary-lifting tables: _up[k, v] is v's 2^k-th ancestor, _upw[k, v]
        # the minimum edge width on that ancestor path.  Roots self-loop with
        # width inf, so lifting past a root is a no-op.
        levels = max(1, int(np.ceil(np.log2(max(int(depth.max()), 1) + 1))) + 1)
        up = np.empty((levels, n), dtype=np.int64)
        upw = np.empty((levels, n))
        up[0] = parent
        upw[0] = pwidth
        for k in range(1, levels):
            up[k] = up[k - 1][up[k - 1]]
            upw[k] = np.minimum(upw[k - 1], upw[k - 1][up[k - 1]])
        self._up = up
        self._upw = upw
        self._levels = levels

    def _build_latency_landmarks(self) -> None:
        """Latency rows from ``log2 n`` high-degree landmark routers.

        Landmark choice is deterministic (degree, ties to the lower id) so
        the scalable path consumes no extra RNG draws.
        """
        n = self.n
        n_lm = min(n, max(1, int(np.ceil(np.log2(max(n, 2))))))
        deg = self.graph.degree_array()
        self._lat_landmarks = np.sort(np.argsort(-deg, kind="stable")[:n_lm])
        if self.graph.m == 0:
            self._lat_lm = np.zeros((n_lm, n))
            return
        self._lat_lm = dijkstra(
            self._adjacency(), directed=True, indices=self._lat_landmarks
        )

    def _widest_pair(self, u: int, v: int) -> float:
        """Exact widest-path bottleneck via binary lifting (``u != v``)."""
        comp = self._comp
        if comp[u] != comp[v]:
            return 0.0
        up, upw, depth = self._up, self._upw, self._depth
        du, dv = int(depth[u]), int(depth[v])
        if du < dv:
            u, v = v, u
            du, dv = dv, du
        mn = np.inf
        diff = du - dv
        k = 0
        while diff:
            if diff & 1:
                mn = min(mn, float(upw[k, u]))
                u = int(up[k, u])
            diff >>= 1
            k += 1
        if u == v:
            return mn
        for k in range(self._levels - 1, -1, -1):
            if up[k, u] != up[k, v]:
                mn = min(mn, float(upw[k, u]), float(upw[k, v]))
                u = int(up[k, u])
                v = int(up[k, v])
        return min(mn, float(upw[0, u]), float(upw[0, v]))

    def _widest_row(self, u: int) -> np.ndarray:
        """Bottleneck from ``u`` to every peer: one running-min tree walk."""
        out = np.zeros(self.n)
        out_l = out.tolist()
        out_l[u] = np.inf
        indptr, nbr, wt = self._t_indptr, self._t_nbr, self._t_wt
        stack = [(u, -1)]
        while stack:
            cur, prev = stack.pop()
            base = out_l[cur]
            for k in range(indptr[cur], indptr[cur + 1]):
                nb = nbr[k]
                if nb != prev:
                    w = wt[k]
                    out_l[nb] = w if w < base else base
                    stack.append((nb, cur))
        out[:] = out_l
        return out

    def _lat_pair(self, u: int, v: int) -> float:
        lm = self._lat_lm
        return float((lm[:, u] + lm[:, v]).min())

    def _pair(self, u: int, v: int) -> tuple[float, float]:
        """Memoized ``(bandwidth, latency)`` for one pair (scalable mode)."""
        key = (u, v) if u < v else (v, u)
        hit = self._pair_cache.get(key)
        if hit is None:
            hit = self._pair_cache[key] = (
                self._widest_pair(u, v),
                self._lat_pair(u, v),
            )
        return hit

    # ------------------------------------------------------------------ API
    def bandwidth(self, u: int, v: int) -> float:
        """End-to-end bandwidth between peers ``u`` and ``v`` in Mb/s.

        ``inf`` for ``u == v`` (local transfers are free).
        """
        if self._bw_mat is not None:
            return float(self._bw_mat[u, v])
        if u == v:
            return float("inf")
        return self._pair(u, v)[0]

    def latency(self, u: int, v: int) -> float:
        """One-way end-to-end propagation delay in seconds."""
        if self._lat_mat is not None:
            return float(self._lat_mat[u, v])
        if u == v:
            return 0.0
        return self._pair(u, v)[1]

    def bandwidth_row(self, u: int) -> np.ndarray:
        """Bandwidth from ``u`` to every peer (vectorized scheduling path)."""
        if self._bw_mat is not None:
            return self._bw_mat[u]
        return self._widest_row(u)

    def latency_row(self, u: int) -> np.ndarray:
        """Latency from ``u`` to every peer."""
        if self._lat_mat is not None:
            return self._lat_mat[u]
        lm = self._lat_lm
        row = (lm + lm[:, u][:, None]).min(axis=0)
        row[u] = 0.0
        return row

    def bandwidth_between(self, srcs: np.ndarray, dsts: np.ndarray) -> np.ndarray:
        """:meth:`bandwidth` of each pair ``(srcs[i], dsts[i])``: matrix
        reads in exact mode, pair lookups in scalable mode."""
        if self._bw_mat is not None:
            return self._bw_mat[srcs, dsts]
        pairs = zip(srcs.tolist(), dsts.tolist())
        return np.array([self.bandwidth(u, v) for u, v in pairs], dtype=np.float64)

    def latency_between(self, srcs, dsts) -> np.ndarray:
        """:meth:`latency` of each pair ``(srcs[i], dsts[i])``; ``srcs`` may
        be one id.  Scalable mode takes the landmark minimum one landmark
        row at a time, so no (landmarks x pairs) block is built."""
        if self._lat_mat is not None:
            return self._lat_mat[srcs, dsts]
        lm = self._lat_lm
        out = lm[0][srcs] + lm[0][dsts]
        for row in lm[1:]:
            np.minimum(out, row[srcs] + row[dsts], out=out)
        out[srcs == dsts] = 0.0
        return out

    def bandwidth_columns(self, ids: np.ndarray) -> np.ndarray:
        """``(n, len(ids))`` bottleneck bandwidth to each listed peer.

        By symmetry each column is that peer's bandwidth row, so the
        scalable mode serves this without the full matrix — it is how the
        landmark estimator takes its probe measurements at any scale.
        """
        if self._bw_mat is not None:
            return self._bw_mat[:, ids].copy()
        return np.stack([self._widest_row(int(i)) for i in ids], axis=1)

    def transfer_time(self, u: int, v: int, megabits: float) -> float:
        """Seconds to ship ``megabits`` of data from ``u`` to ``v``.

        Local transfers (``u == v``) are instantaneous, matching the paper's
        model where only *remote* dependent data incurs aggregation cost.
        """
        if u == v or megabits <= 0.0:
            return 0.0
        if self._bw_mat is not None and self._lat_mat is not None:
            return megabits / self._bw_mat[u, v] + self._lat_mat[u, v]
        bw, lat = self._pair(u, v)
        if bw <= 0.0:
            return float("inf")
        return megabits / bw + lat

    def mean_bandwidth(self) -> float:
        """System-wide average end-to-end bandwidth (ground truth).

        This is the quantity the aggregation gossip protocol estimates in a
        decentralized way; experiments can use either.
        """
        n = self.n
        if n < 2:
            return float("inf")
        if self._bw_mat is None:
            return self._mean_bw
        # With the matrix present this keeps its own summation: the value
        # feeds every workflow's EFT, so its float rounding is in the digests.
        off = ~np.eye(n, dtype=bool)
        vals = self._bw_mat[off]
        finite = vals[np.isfinite(vals) & (vals > 0)]
        return float(finite.mean()) if len(finite) else 0.0

    # --------------------------------------------------- dense-matrix views
    @property
    def _bandwidth(self) -> np.ndarray:
        """Full all-pairs bottleneck matrix.

        Always present in exact mode; in scalable mode it is materialized
        on first access (O(n^2) memory — only the full-ahead planners and
        diagnostics want it, and they are quadratic anyway).
        """
        if self._bw_mat is None:
            mat = np.empty((self.n, self.n))
            for u in range(self.n):
                mat[u] = self._widest_row(u)
            self._bw_mat = mat
        return self._bw_mat

    @property
    def _latency(self) -> np.ndarray:
        """Full all-pairs latency matrix (landmark values in scalable mode)."""
        if self._lat_mat is None:
            mat = np.empty((self.n, self.n))
            for u in range(self.n):
                mat[u] = self.latency_row(u)
            self._lat_mat = mat
        return self._lat_mat

    # ------------------------------------------------------------- factory
    @classmethod
    def waxman(
        cls,
        n: int,
        rng: np.random.Generator,
        alpha: float = 0.15,
        beta: float = 0.2,
        bw_min: float = 0.1,
        bw_max: float = 10.0,
        plane_size: float = 1000.0,
        exact_paths: Optional[bool] = None,
    ) -> "Topology":
        """Generate a Waxman graph and wrap it in a :class:`Topology`."""
        graph = generate_waxman(n, rng, alpha=alpha, beta=beta, plane_size=plane_size)
        return cls(graph, bw_min=bw_min, bw_max=bw_max, rng=rng, exact_paths=exact_paths)
