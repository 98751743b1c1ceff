"""Gossip message payloads.

The paper sizes each message at ~100 bytes (80 B payload + 20 B header): one
node-state record plus addressing.  We keep the record deliberately small —
exactly the fields Algorithm 1 needs to evaluate Formula (9):
the owner's identity, capacity ``c``, total load ``l`` and a freshness
timestamp.  ``ttl`` implements the paper's max-hop bound (default 4).

The epidemic keeps these records in a
:class:`~repro.gossip.table.RecordTable` (key = owner; float planes
timestamp, capacity, load; int plane TTL).  ``NodeStateRecord`` is the
per-record view :meth:`~repro.gossip.epidemic.EpidemicGossip.rss_view`
snapshots from one table row for tests and cold call sites.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["NodeStateRecord", "MESSAGE_PAYLOAD_BYTES", "MESSAGE_HEADER_BYTES"]

#: Wire-size accounting used by the overhead analysis in §IV.A.
MESSAGE_PAYLOAD_BYTES = 80
MESSAGE_HEADER_BYTES = 20


class NodeStateRecord(NamedTuple):
    """One node's advertised resource state (immutable).

    Attributes
    ----------
    node_id:
        Owner peer.
    capacity:
        CPU capacity in MIPS (static per node).
    total_load:
        Summed load (MI) of the running task plus everything waiting in the
        owner's ready set — the ``l_r`` of §II.B.
    timestamp:
        Simulated time at which the owner stamped this record; freshness
        wins on merge.
    ttl:
        Remaining relay hops (paper: 4).  Decremented on every forward;
        records at 0 are delivered but not re-forwarded.
    """

    node_id: int
    capacity: float
    total_load: float
    timestamp: float
    ttl: int = 4

    def aged(self) -> "NodeStateRecord":
        """Copy with one relay hop consumed."""
        return self._replace(ttl=self.ttl - 1)

    def fresher_than(self, other: "NodeStateRecord") -> bool:
        """True if this record supersedes ``other`` for the same node."""
        return self.timestamp > other.timestamp
