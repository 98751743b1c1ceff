"""Epidemic push gossip for node-state dissemination (substrate S5).

Per gossip cycle (paper: five minutes) every live node

1. re-stamps its own :class:`~repro.gossip.messages.NodeStateRecord` with its
   current total load,
2. selects ``fanout = ceil(log2 n)`` random neighbors via the Newscast
   overlay, and
3. pushes its own record plus up to ``push_size`` sampled known records,
   each with TTL decremented (paper: TTL = 4, so a record travels at most
   four hops from its owner).

Receivers merge records, keeping the fresher timestamp per node, and each
node's resource set RSS is bounded to ``rss_capacity`` entries — the paper's
O(log2 n) space bound — evicting the stalest.  Records older than
``expiry`` (default: four gossip cycles) are dropped, which is also how
departed nodes disappear from scheduling views under churn.

The per-node view exposed to Algorithm 1 is :meth:`rss_columns` (array
slices) / :meth:`rss_view` (a dict snapshot); the scheduler additionally
*writes back* its dispatch decisions into its own records (Algorithm 1
line 15) so consecutive picks in the same scheduling cycle see the load
they just added.

The RSS caches are one :class:`~repro.gossip.table.RecordTable`: the key
is the record owner, the float planes are stamp, capacity and load, and
the int plane is the remaining hop count.  This module keeps only the send
rule.  A cycle is one *simultaneous* round: every sender's fan-out targets
and push digest are drawn as single batched key selections
(:func:`repro.gossip.batch.row_topk_smallest`), and all deliveries merge
at once into start-of-round state through :meth:`RecordTable.merge`, so
within one cycle no delivery sees another's merge.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.gossip.batch import row_topk_smallest
from repro.gossip.messages import NodeStateRecord
from repro.gossip.newscast import NewscastOverlay
from repro.gossip.table import RecordTable
from repro.sim.fastrand import FastSampler

__all__ = ["EpidemicGossip"]

# Float planes of the RSS table (plane 0 is the table's stamp plane).
_STAMP, _CAP, _LOAD = 0, 1, 2

LoadProvider = Callable[[int], tuple[float, float]]
"""Callback ``node_id -> (total_load_MI, capacity_MIPS)``."""


class EpidemicGossip:
    """State-information dissemination with bounded per-node views.

    Parameters
    ----------
    overlay:
        Peer-sampling service.
    load_provider:
        Returns the *ground truth* ``(total_load, capacity)`` of a node when
        that node stamps its own record (information about *other* nodes is
        only ever obtained through gossip).
    rng:
        Randomness for record sampling.
    ttl:
        Initial hop budget of a freshly stamped record (paper: 4).
    push_size:
        Known records piggybacked per push in addition to the sender's own.
    rss_capacity:
        Max records retained per node; ``None`` -> ``2 * ceil(log2 n)``.
    expiry:
        Age (seconds) beyond which a record is evicted; ``None`` -> never.
    """

    def __init__(
        self,
        overlay: NewscastOverlay,
        load_provider: LoadProvider,
        rng: np.random.Generator,
        ttl: int = 4,
        push_size: int = 4,
        rss_capacity: int | None = None,
        expiry: float | None = None,
    ):
        self.overlay = overlay
        self.load_provider = load_provider
        self.rng = rng
        self._fast = FastSampler(rng)
        self.ttl = int(ttl)
        self.push_size = int(push_size)
        n = max(len(overlay.live), 2)
        if rss_capacity is None:
            rss_capacity = 2 * int(np.ceil(np.log2(n)))
        self.rss_capacity = int(rss_capacity)
        self.expiry = expiry
        self.fanout = max(1, int(np.ceil(np.log2(n))))
        # One row per overlay row; a row never contains its owner.
        self.table = RecordTable(
            len(overlay.table), self.rss_capacity, n_float=3, n_int=1
        )
        self.messages_sent = 0
        self.records_shipped = 0
        #: Delivered records that survived the round's freshness merge and
        #: capacity cut (observability only — never read by the protocol).
        self.records_merged = 0
        self.evictions = 0

    # ---------------------------------------------------------------- churn
    def add_node(self, node_id: int) -> None:
        """A joining node starts with an empty RSS that fills via gossip."""
        self.table.clear(node_id)

    def remove_node(self, node_id: int) -> None:
        """Forget a departing node's own view.

        Remote records pointing at it decay via ``expiry``; until then
        schedulers may still (incorrectly) select it — exactly the staleness
        hazard the paper attributes to node churning.
        """
        if 0 <= node_id < len(self.table):
            self.table.clear(node_id)

    # ---------------------------------------------------------------- cycle
    def run_cycle(self, now: float) -> None:
        """One simultaneous push round over every live node.

        All senders' fan-out draws and digest picks happen as single
        batches, and every delivery merges into *start-of-round* state in
        one :meth:`RecordTable.merge`.  The deliveries reach it in sender
        order, so of same-stamp copies of a record (which can differ in
        hop count) the incumbent wins, then the earliest sender's.
        """
        senders = self.overlay.live_array()
        if senders.size:
            self._push(senders, now)
        if self.expiry is not None:
            self.table.expire(now - self.expiry)

    def _push(self, senders: np.ndarray, now: float) -> None:
        t = self.table
        s = int(senders.size)

        # Fresh self-records — the only per-node Python work in the
        # round (ground-truth reads from live node state).
        own = np.empty((3, s))
        own[_STAMP] = now
        provider = self.load_provider
        for k, i in enumerate(senders.tolist()):
            own[_LOAD, k], own[_CAP, k] = provider(i)

        # Fan-out targets (overlay stream; only live peers are picked),
        # then the per-sender digest: up to push_size forwardable (ttl > 0)
        # records plus the fresh self-record as the digest tail.
        targets, t_ok = self.overlay.sample_rounds(senders, self.fanout)
        forwardable = t.filled(senders) & (t.ints[0][senders] > 0)
        keys = self._fast.random_batch(s * t.cap).reshape(s, t.cap)
        dpos, d_ok = row_topk_smallest(keys, forwardable, self.push_size)
        fwd_key, fwd_f, fwd_i = t.take(senders[:, None] * t.cap + dpos)
        width = dpos.shape[1] + 1
        dg_key = np.concatenate([fwd_key, senders[:, None]], axis=1)
        dg_f = np.concatenate([fwd_f, own[:, :, None]], axis=2)
        dg_ttl = np.concatenate(
            [fwd_i[0] - 1, np.full((s, 1), self.ttl, dtype=np.int64)], axis=1
        )
        dg_ok = np.concatenate([d_ok, np.ones((s, 1), dtype=bool)], axis=1)

        t_count = t_ok.sum(axis=1)
        self.messages_sent += int(t_count.sum())
        self.records_shipped += int((t_count * dg_ok.sum(axis=1)).sum())

        # Deliveries: every (sender, target, digest entry) triple, minus
        # records about the target itself, in sender order (``nonzero``
        # walks the grid row by row).  ``st`` is the flat (sender, target)
        # index and ``dg`` the flat (sender, digest entry) index.
        ok3 = t_ok[:, :, None] & dg_ok[:, None, :]
        st, di = ok3.reshape(-1, width).nonzero()
        d_tgt = targets.take(st)
        dg = (st // targets.shape[1]) * width + di
        d_key = dg_key.take(dg)
        hit = d_key != d_tgt
        dg = dg[hit]
        kept, evicted = t.merge(
            d_tgt[hit],
            d_key[hit],
            dg_f.reshape(3, -1).take(dg, axis=1),
            dg_ttl.take(dg)[None],
        )
        self.records_merged += kept
        self.evictions += evicted

    # ------------------------------------------------------------ consumers
    def rss_columns(
        self, node_id: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The resource set RSS(p) as parallel array slices.

        Returns ``(ids, capacities, loads, timestamps)`` views over the
        node's row, in slot order — the zero-copy form Algorithm 1's
        candidate table is built from.  Only line 15's write-back writes
        through them (loads and stamps, at the slot its candidate was read
        from); other callers use :meth:`apply_local_update` / :meth:`discard`.
        """
        t = self.table
        m = t.lens[node_id]
        f = t.floats[:, node_id, :m]
        return t.keys[node_id, :m], f[_CAP], f[_LOAD], f[_STAMP]

    def rss_view(self, node_id: int) -> dict[int, NodeStateRecord]:
        """A dict *snapshot* of RSS(p), rebuilt per call.

        Convenience for tests and cold call sites; mutating the returned
        mapping does not touch gossip state (hot paths use
        :meth:`rss_columns`).
        """
        t = self.table
        m = t.lens[node_id]
        stamps, caps, loads = t.floats[:, node_id, :m].tolist()
        ids, ttls = t.keys[node_id, :m].tolist(), t.ints[0, node_id, :m].tolist()
        return {
            nid: NodeStateRecord(nid, cap, load, stamp, ttl)
            for nid, cap, load, stamp, ttl in zip(ids, caps, loads, stamps, ttls)
        }

    def discard(self, owner: int, target: int) -> None:
        """Drop the owner's record of ``target`` (stale-target eviction
        after a failed dispatch); no-op when absent."""
        pos = self.table.find(owner, target)
        if pos >= 0:
            self.table.remove(owner, pos)

    def timestamp_of(self, owner: int, target: int) -> Optional[float]:
        """Stamp of the owner's record of ``target`` (telemetry), or None."""
        pos = self.table.find(owner, target)
        return None if pos < 0 else float(self.table.floats[_STAMP, owner, pos])

    def apply_local_update(
        self, owner: int, target: int, new_load: float, now: float
    ) -> None:
        """Algorithm 1 line 15: after dispatching a task to ``target``,
        overwrite the *owner's local* record of the target's load."""
        pos = self.table.find(owner, target)
        if pos >= 0:
            self.table.floats[_LOAD, owner, pos] = new_load
            self.table.floats[_STAMP, owner, pos] = now

    def mean_known_nodes(self) -> float:
        """Average RSS size over live nodes — the Fig. 11(a) metric."""
        live = self.overlay.live_array()
        if live.size == 0:
            return 0.0
        return float(self.table.lens[live].mean())
