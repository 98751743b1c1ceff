"""Newscast-style membership overlay (part of substrate S5).

The paper selects gossip neighbors "randomly ... at every propagation cycle
based on the Newscast model" with a fan-out of ``log2(n)``.  Newscast
maintains, per node, a bounded cache of ``(peer, freshness)`` descriptors;
each cycle a node merges caches with a random cache entry and keeps the
freshest ``c`` descriptors.  The emergent communication graph is a small-
world random graph, which is what gives epidemic dissemination its
exponential spread.

The overlay also provides the peer-sampling service used by the epidemic and
aggregation protocols, and absorbs churn: descriptors of departed nodes age
out, joining nodes bootstrap from a random live seed.

The caches are one :class:`~repro.gossip.table.RecordTable`: the key is
the peer and the one float plane is the descriptor's freshness stamp.
This module keeps only the send rule.  A cycle is one *simultaneous*
round: every node's partner pick is a single batched draw
(:meth:`~repro.sim.fastrand.FastSampler.random_batch` keys + a row argmin),
and all pairwise exchanges merge at once into start-of-round state through
:meth:`RecordTable.merge`, so within one cycle no exchange sees another's.
The merge breaks a stamp tie by delivery order, and here that order cannot
matter: a descriptor is its peer and its stamp, so deliveries tied on
``(target, peer, stamp)`` are one descriptor, whichever of them wins.
"""

from __future__ import annotations

import numpy as np

from repro.gossip.batch import row_topk_smallest
from repro.gossip.table import RecordTable
from repro.sim.fastrand import FastSampler

__all__ = ["NewscastOverlay"]


class NewscastOverlay:
    """Bounded-cache membership with batched per-cycle shuffles.

    Parameters
    ----------
    node_ids:
        Initially live peers; rows are built for ids up to the largest,
        and only those ids may join later.
    rng:
        Peer-sampling randomness.  All bounded draws are emulated
        stream-identically (see module docstring); callers must not draw
        from this generator directly once the overlay owns it.
    cache_size:
        Descriptors kept per node; ``None`` -> ``max(8, 2*ceil(log2 n))``
        which keeps the per-node view O(log n) as the paper requires.
    """

    def __init__(
        self,
        node_ids: list[int],
        rng: np.random.Generator,
        cache_size: int | None = None,
    ):
        self.rng = rng
        self._fast = FastSampler(rng)
        n = max(len(node_ids), 2)
        if cache_size is None:
            cache_size = max(8, 2 * int(np.ceil(np.log2(n))))
        self.cache_size = int(cache_size)
        self.live: set[int] = set(node_ids)
        n_rows = max((max(node_ids) + 1) if node_ids else 1, 1)
        # A row never contains its owner.
        self.table = RecordTable(n_rows, self.cache_size, n_float=1)
        self._alive = np.zeros(n_rows, dtype=bool)
        if node_ids:
            self._alive[np.asarray(node_ids, dtype=np.int64)] = True
        self._live_cache: np.ndarray | None = None
        #: Completed pairwise shuffles / degenerate-cache reseeds
        #: (observability only — never read by the protocol).
        self.shuffles = 0
        self.reseeds = 0
        self._bootstrap_random(node_ids)

    # ---------------------------------------------------------------- setup
    def _bootstrap_random(self, node_ids: list[int]) -> None:
        n = len(node_ids)
        if n < 2:
            return
        k = min(self.cache_size, n - 1)
        choice_indices = self._fast.choice_indices
        keys, lens = self.table.keys, self.table.lens
        for i in node_ids:
            # Same draws as rng.choice(ids_array, size=k+1, replace=False);
            # every bootstrap descriptor is stamped 0.
            m = 0
            for t in choice_indices(n, k + 1):
                p = node_ids[t]
                if p != i and m < self.cache_size:
                    keys[i, m] = p
                    m += 1
            lens[i] = m

    def live_array(self) -> np.ndarray:
        """Live node ids, sorted ascending (cached between churn events);
        the epidemic and aggregation protocols drive their batched rounds
        over the same array."""
        if self._live_cache is None:
            self._live_cache = np.fromiter(
                sorted(self.live), dtype=np.int64, count=len(self.live)
            )
        return self._live_cache

    # ---------------------------------------------------------------- churn
    def add_node(self, node_id: int, now: float) -> None:
        """Join: the cache is rebuilt from a random live seed's cache plus
        a fresh descriptor of the seed, freshest first.  An id without a
        row raises IndexError and leaves the overlay unchanged."""
        t = self.table
        t.clear(node_id)
        if node_id in self.live:  # defensive; joins are not re-entrant
            candidates = [p for p in sorted(self.live) if p != node_id]
        else:
            # The cached sorted live array IS the candidate list (the
            # joiner is not in it yet).
            candidates = self.live_array()
        self.live.add(node_id)
        self._alive[node_id] = True
        self._live_cache = None
        if len(candidates):
            # Same draw as rng.choice(np.asarray(candidates)) — one bounded
            # integer — without the array round-trip.
            seed = int(candidates[self._fast.integers(len(candidates))])
            sm = t.lens[seed]
            peers = t.keys[seed, :sm]
            other = peers != node_id
            t.fill(
                node_id,
                np.append(peers[other], seed),
                np.append(t.floats[0, seed, :sm][other], now)[None],
            )

    def remove_node(self, node_id: int) -> None:
        """Leave: the node's cache dies with it; remote descriptors of it
        age out naturally (no global purge — matching real gossip)."""
        self.live.discard(node_id)
        if 0 <= node_id < len(self.table):
            self._alive[node_id] = False
            self.table.clear(node_id)
        self._live_cache = None

    # ---------------------------------------------------------------- cycle
    def _draw(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The cached peers of every row of ``ids``, which slots hold a
        live peer, and one random key per slot.  Consumes exactly
        ``len(ids) * cache_size`` doubles from the overlay stream
        regardless of occupancy."""
        peers = self.table.keys[ids]
        live = self.table.filled(ids) & self._alive[peers]
        keys = self._fast.random_batch(ids.size * self.cache_size).reshape(
            ids.size, self.cache_size
        )
        return peers, live, keys

    def run_cycle(self, now: float) -> None:
        """One simultaneous Newscast round over every live node.

        Each node picks one random live cache entry; each pair (i, j) then
        sends i j's cache plus a fresh descriptor of j, and j the same of
        i.  Every row keeps the freshest ``cache_size`` entries of its
        start-of-round cache and what it was sent, in one
        :meth:`RecordTable.merge`.
        """
        live_ids = self.live_array()
        s = int(live_ids.size)
        if s == 0:
            return
        t = self.table
        partners = self.sample_one_batch(live_ids)
        has = partners >= 0

        # Degenerate caches (all entries churned out): reseed from a
        # random live candidate, in ascending node order.
        empty = (~has).nonzero()[0]
        if empty.size and s >= 2:
            live_list = live_ids.tolist()
            for r in empty.tolist():
                i = live_list[r]
                x = self._fast.integers(s - 1)
                self._reseed(i, live_list[x] if x < r else live_list[x + 1], now)
                self.reseeds += 1

        P = live_ids[has]
        J = partners[has]
        m = int(P.size)
        if m == 0:
            return
        self.shuffles += m
        # Row k of ``src`` sends its cache and a fresh descriptor of itself
        # to row k of ``dst``.
        src, dst = np.concatenate([J, P]), np.concatenate([P, J])
        r, cells = t.cells(src)
        sent_key, sent_f, _ = t.take(cells)
        tgt = np.concatenate([dst[r], dst])
        key = np.concatenate([sent_key, src])
        stamp = np.concatenate([sent_f[0], np.full(2 * m, now)])
        keep = key != tgt  # a node never caches itself
        t.merge(tgt[keep], key[keep], stamp[None, keep])

    def _reseed(self, node_id: int, peer: int, now: float) -> None:
        """Give a cache with no live entry one live peer: append it, or
        overwrite the stalest entry when the cache is full.  (The peer is
        live, so it is never already in the cache.)"""
        t = self.table
        m = int(t.lens[node_id])
        slot = m if m < self.cache_size else int(np.argmin(t.floats[0, node_id]))
        t.keys[node_id, slot] = peer
        t.floats[0, node_id, slot] = now
        t.lens[node_id] = max(m, slot + 1)

    # -------------------------------------------------------------- sampling
    def sample(self, node_id: int, k: int) -> list[int]:
        """Return up to ``k`` distinct random live peers from the cache.

        Scalar path (tests, cold call sites); the protocols use the
        batched :meth:`sample_rounds` / :meth:`sample_one_batch`.
        """
        peers = self.known_live(node_id)
        if not peers:
            return []
        n = len(peers)
        if n <= k:
            return peers
        fast = self._fast
        if k == 1:
            return [peers[fast.integers(n)]]
        return [peers[t] for t in fast.choice_indices(n, k)]

    def sample_rounds(
        self, senders: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Up to ``k`` distinct live cached peers for *every* sender row.

        The whole round's fan-out selection as one batch: one random key
        per cache slot, ``k`` smallest valid keys per row.  Returns
        ``(peers, picked)`` of shape ``(len(senders), min(k, cache_size))``;
        ``peers`` is ``-1`` where ``picked`` is False.
        """
        peers, live, keys = self._draw(senders)
        pos, picked = row_topk_smallest(keys, live, k)
        return np.where(picked, np.take_along_axis(peers, pos, axis=1), -1), picked

    def sample_one_batch(self, ids: np.ndarray) -> np.ndarray:
        """One uniform live cached peer per id (``-1`` where none) — the
        batched form of ``sample(i, 1)``, used for the shuffle partners
        and the aggregation pairing."""
        peers, live, keys = self._draw(ids)
        pick = np.argmin(np.where(live, keys, np.inf), axis=1)
        rix = np.arange(ids.size)
        return np.where(live[rix, pick], peers[rix, pick], -1)

    # ------------------------------------------------------------- consumers
    @property
    def cache(self) -> dict[int, dict[int, float]]:
        """Dict-of-dicts snapshot of the caches, each in slot order
        (tests/diagnostics only; rebuilt on every access)."""
        t = self.table
        return {
            i: dict(
                zip(
                    t.keys[i, : t.lens[i]].tolist(),
                    t.floats[0, i, : t.lens[i]].tolist(),
                )
            )
            for i in self.live
        }

    def known_live(self, node_id: int) -> list[int]:
        """All live peers currently in the node's cache, in slot order."""
        if node_id not in self.live:
            return []
        peers = self.table.keys[node_id, : self.table.lens[node_id]]
        return peers[self._alive[peers]].tolist()

    def mean_descriptor_age(self, now: float) -> float:
        """Mean age (seconds) of cached peer descriptors across live nodes.

        A telemetry-snapshot helper (called once per run, never on the
        cycle hot path): young views mean the shuffle is keeping
        membership fresh; ages near the churn timescale mean stale
        neighbor sets.
        """
        live_ids = self.live_array()
        if live_ids.size == 0:
            return 0.0
        count = int(self.table.lens[live_ids].sum())
        if count == 0:
            return 0.0
        ages = (now - self.table.floats[0][live_ids]) * self.table.filled(live_ids)
        return float(ages.sum() / count)
