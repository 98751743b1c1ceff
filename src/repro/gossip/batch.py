"""Shared NumPy kernels for batched gossip rounds.

Both bounded-view gossip protocols (epidemic RSS dissemination and the
Newscast membership shuffle) reduce each cycle to the same primitive,
:meth:`repro.gossip.table.RecordTable.merge`: a pile of
``(target, key, timestamp, payload...)`` rows — every target's existing
cache contents plus everything delivered to it this round — deduplicated
per ``(target, key)`` keeping the freshest timestamp, then trimmed to each
target's ``cap`` freshest keys.  :func:`topk_merge` ranks that pile for
the *whole system at once* in two sorts, each one unstable ``argsort``
over an exact int64 code that packs every sort key (the timestamp enters
as its rank among the pile's distinct stamps).

:func:`row_topk_smallest` is the batched without-replacement sampler both
protocols use: draw one random key per cache slot, then take the ``k``
smallest valid keys per row.  Each row's selection is a uniform ``k``-
subset of its valid cells, and the draw *count* depends only on the
matrix shape — never on per-row occupancy — which keeps the RNG stream
deterministic under churn.

Tie rules (all deterministic):

* duplicate ``(target, key)`` rows — fresher timestamp wins; equal
  timestamps fall back to the smaller ``pref`` (callers pass 0 for a
  target's pre-existing rows and ``sender_rank + 1`` for deliveries, so
  an incumbent beats a same-age delivery and earlier senders beat later
  ones);
* the per-target capacity cut keeps the freshest ``cap`` keys, breaking
  timestamp ties by smaller key.
"""

from __future__ import annotations

import numpy as np

__all__ = ["topk_merge", "row_topk_smallest"]


def topk_merge(
    tgt: np.ndarray,
    key: np.ndarray,
    ts: np.ndarray,
    pref: np.ndarray,
    cap: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Dedupe rows per ``(tgt, key)`` and keep the ``cap`` freshest per ``tgt``.

    Parameters are parallel row arrays: non-negative int64 ``tgt`` (cache
    owner), non-negative int64 ``key`` (the entry's identity within that
    cache), float ``ts`` (freshness), non-negative int64 ``pref`` (tie
    priority, lower wins).

    Returns ``(sel, tgt_sel, rank, uniq, counts, n_evicted)`` where

    * ``sel`` — indices into the input rows of every surviving entry,
      ordered by ``(tgt, ts desc, key)``;
    * ``tgt_sel`` / ``rank`` — each survivor's cache owner and its slot
      (``0 <= rank < cap``), ready for a flat ``tgt * cap + rank`` scatter;
    * ``uniq`` / ``counts`` — the distinct targets touched and their new
      entry counts;
    * ``n_evicted`` — deduplicated entries dropped by the capacity cut.

    Every sort key is packed into one exact int64 code per row, so no two
    rows may agree on all of ``(tgt, key, ts, pref)``: then every code is
    distinct and the result does not depend on how the platform's
    unstable sort orders ties.  Both protocols guarantee the stronger
    ``(tgt, key, pref)`` uniqueness by construction (cache rows hold
    distinct entries, a sender's fan-out targets are distinct, a shuffle
    pair has one rank).  A repeated row raises :class:`ValueError`, and a
    pile whose codes would not fit in 63 bits raises
    :class:`OverflowError`.
    """
    m = int(tgt.shape[0])
    if m == 0:
        z = np.zeros(0, dtype=np.int64)
        return z, z, z, z, z, 0
    # Stamps as ranks among the pile's distinct stamps, counted from the
    # freshest: a smaller ``age`` sorts first.
    stamps = np.unique(ts)
    n_stamps = int(stamps.size)
    age = (n_stamps - 1) - np.searchsorted(stamps, ts)
    key_bound = int(key.max()) + 1
    pref_bound = int(pref.max()) + 1
    if min(int(tgt.min()), int(key.min()), int(pref.min())) < 0:
        raise ValueError("topk_merge needs non-negative tgt, key and pref")
    if (int(tgt.max()) + 1) * key_bound * n_stamps * pref_bound >= 2**63:
        raise OverflowError("topk_merge sort code does not fit in int64")
    # Pass 1 — one sort by (tgt, key, fresher first, smaller pref); the
    # first row of each (tgt, key) run is its winner.
    code = ((tgt * key_bound + key) * n_stamps + age) * pref_bound + pref
    o = np.argsort(code)
    code_s = code[o]
    if not (code_s[1:] != code_s[:-1]).all():
        raise ValueError("topk_merge rows repeat a (tgt, key, ts, pref)")
    group_s = code_s // (n_stamps * pref_bound)
    first = np.empty(m, dtype=bool)
    first[0] = True
    np.not_equal(group_s[1:], group_s[:-1], out=first[1:])
    kept = o[first]
    # Pass 2 — one sort of the survivors by (tgt, fresher first, key);
    # the position within each target's run is the entry's slot.
    t_k = tgt[kept]
    o2 = np.argsort((t_k * n_stamps + age[kept]) * key_bound + key[kept])
    order2 = kept[o2]
    t_s = t_k[o2]
    mk = int(t_s.shape[0])
    newg = np.empty(mk, dtype=bool)
    newg[0] = True
    np.not_equal(t_s[1:], t_s[:-1], out=newg[1:])
    starts = np.flatnonzero(newg)
    sizes = np.diff(np.append(starts, mk))
    rank = np.arange(mk, dtype=np.int64) - np.repeat(starts, sizes)
    within = rank < cap
    counts = np.minimum(sizes, cap)
    n_evicted = int((sizes - counts).sum())
    return (
        order2[within],
        t_s[within],
        rank[within],
        t_s[starts],
        counts,
        n_evicted,
    )


def row_topk_smallest(
    keys: np.ndarray, valid: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the ``k`` smallest keys per row among ``valid`` cells.

    Returns ``(pos, picked)``: ``pos`` is ``(rows, min(k, width))`` column
    indices and ``picked`` the same-shape mask (False where a row had
    fewer than ``k`` valid cells).  The selection within a row is
    *unordered* — both call sites (fan-out targets, push digests) treat
    the result as a set, so a partial selection suffices.
    """
    r, w = keys.shape
    k = min(int(k), w)
    if k <= 0:
        pos = np.zeros((r, 0), dtype=np.int64)
        return pos, np.zeros((r, 0), dtype=bool)
    masked = np.where(valid, keys, np.inf)
    if k < w:
        pos = np.argpartition(masked, k - 1, axis=1)[:, :k]
    else:
        pos = np.broadcast_to(np.arange(w, dtype=np.int64), (r, w))
    picked = np.take_along_axis(masked, pos, axis=1) < np.inf
    return pos, picked
