"""Shared NumPy kernels for batched gossip rounds.

Both bounded-view gossip protocols (epidemic RSS dissemination and the
Newscast membership shuffle) reduce each cycle to the same primitive,
:meth:`repro.gossip.table.RecordTable.merge`: a pile of
``(target, key, timestamp)`` rows — every target's existing records plus
everything delivered to it this round — deduplicated per ``(target, key)``
keeping the freshest timestamp, then trimmed to each target's ``cap``
freshest keys.  :func:`topk_merge` ranks that pile for the *whole system
at once* with two value sorts of one int64 code per row: bit fields for
the sort keys (a timestamp enters as its rank among the pile's distinct
stamps) above the row number, read back with a shift and a mask.  The
fields must fit in 63 bits; a ``metro-1k`` pile needs at most 43 and the
largest ``metro-10k`` pile 58 (see :func:`topk_merge`).

Tie rules (all deterministic):

* duplicate ``(target, key)`` rows — fresher timestamp wins, equal
  timestamps go to the earlier pile row.  The row number makes every
  code distinct, so the result is the same under any sort algorithm, and
  a caller sets the tie rule by the order of its pile (the table puts a
  target's current records first: an incumbent beats a same-age
  delivery);
* the per-target capacity cut keeps the freshest ``cap`` keys, breaking
  timestamp ties by smaller key.

:func:`row_topk_smallest` is the batched without-replacement sampler both
protocols use: draw one random key per cache slot, then take the ``k``
smallest valid keys per row.  Each row's selection is a uniform ``k``-
subset of its valid cells, and the draw *count* depends only on the
matrix shape — never on per-row occupancy — which keeps the RNG stream
deterministic under churn.
"""

from __future__ import annotations

import numpy as np

__all__ = ["topk_merge", "row_topk_smallest"]


def topk_merge(
    tgt: np.ndarray,
    key: np.ndarray,
    ts: np.ndarray,
    cap: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Dedupe rows per ``(tgt, key)`` and keep the ``cap`` freshest per ``tgt``.

    Parameters are parallel row arrays: non-negative int64 ``tgt`` (cache
    owner), non-negative int64 ``key`` (the entry's identity within that
    cache) and float ``ts`` (freshness).  Of rows tied on ``(tgt, key,
    ts)`` the earliest wins.

    Returns ``(sel, tgt_sel, rank, n_evicted)`` where

    * ``sel`` — indices into the input rows of every surviving entry,
      ordered by ``(tgt, ts desc, key)``;
    * ``tgt_sel`` / ``rank`` — each survivor's cache owner and its slot
      (``0 <= rank < cap``), ready for a flat ``tgt * cap + rank`` scatter;
    * ``n_evicted`` — deduplicated entries dropped by the capacity cut.

    Targets and keys share one field width, so the sort code needs
    ``2 * bit_length(max(tgt, key)) + bit_length(n_stamps - 1) +
    bit_length(rows - 1)`` bits, and a pile needing more than 63 raises
    :class:`OverflowError`.  The largest ``metro-10k`` pile needs 58
    (853,911 rows, 746 stamps), and each doubling of the node count adds
    about four (two for the ids, one each for rows and stamps), so the
    kernel supports roughly 20k nodes.  A negative id raises
    :class:`ValueError`.
    """
    m = int(tgt.shape[0])
    # The pile's distinct stamps, ascending; ``first`` marks run heads for
    # both passes.
    stamps = ts.copy()
    stamps.sort()
    first = np.ones(m, dtype=bool)
    np.not_equal(stamps[1:], stamps[:-1], out=first[1:])
    stamps = stamps[first]
    # OR-ing every id sets the sign bit if one is negative, and otherwise
    # the highest bit any id uses.
    bits = int(np.bitwise_or.reduce(tgt | key))
    if bits < 0:
        raise ValueError("topk_merge needs non-negative tgt and key")
    ib, sb, rb = bits.bit_length(), (int(stamps.size) - 1).bit_length(), (m - 1).bit_length()
    if 2 * ib + sb + rb > 63:
        raise OverflowError(
            f"topk_merge needs {2 * ib + sb + rb} bits for its sort code, 63 are "
            f"available (ids below 2**{ib}, {stamps.size} distinct stamps, {m} rows)"
        )
    rmask = (1 << rb) - 1
    flip = ((1 << sb) - 1) << rb
    # Pass 1 — [tgt | key | age | row]: XOR with ``flip`` turns the
    # ascending stamp rank into an age (fresher first) as the row goes in.
    # The head of each (tgt, key) run is its winner.
    code = np.left_shift(tgt, ib, dtype=np.int64)
    code |= key
    code <<= sb
    code |= stamps.searchsorted(ts)
    code <<= rb
    code ^= np.arange(flip, flip + m, dtype=np.int64)
    code.sort()
    group = code >> (sb + rb)
    np.not_equal(group[1:], group[:-1], out=first[1:])
    code = code[first]
    kept = code & rmask
    # Pass 2 — the survivors as [tgt | 0 | age | j], j their position in
    # pass 1's (tgt, key) order, so equal ages fall back to the smaller
    # key.  The position within each target's run is the slot.
    pos = np.arange(code.shape[0], dtype=np.int64)
    code &= ~(rmask | (((1 << ib) - 1) << (sb + rb)))
    code |= pos
    code.sort()
    t_s = code >> (ib + sb + rb)
    head = first[: pos.size]
    np.not_equal(t_s[1:], t_s[:-1], out=head[1:])
    rank = pos - np.maximum.accumulate(pos * head)
    within = rank < cap
    sel = kept.take(code[within] & rmask)
    return sel, t_s[within], rank[within], pos.size - sel.size


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
