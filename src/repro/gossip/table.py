"""The bounded record table behind both gossip caches.

Each gossip protocol keeps, per node, at most ``cap`` records: row ``i``
holds node ``i``'s records in slots ``[0, lens[i])``.  A record is an int64
key (its identity within the row: the record owner for the epidemic RSS,
the peer for a Newscast descriptor) plus payload planes: ``floats[p, i, s]``
and ``ints[p, i, s]``.  Float plane 0 is the freshness stamp every merge
and expiry reads.  Bulk reads and writes address records by flat cell
``row * cap + slot``, so one gather or scatter moves every plane of a
payload kind at once, whatever the number of fields.

Slot order is protocol state.  It is the candidate order of every
scheduling view built from an RSS row, and the order a random partner or
digest draw walks, so first-minimum picks depend on it.  The table keeps
three rules:

* :meth:`RecordTable.merge` (and :meth:`RecordTable.fill`, its one-row
  form) writes each row in ``(stamp desc, key)`` order;
* :meth:`RecordTable.expire` compacts a row, keeping the survivors in order;
* :meth:`RecordTable.remove` moves the row's last record into the hole.

Slots past a row's length keep old records (or zeros), so they always hold
valid node ids and may be read as a masked rectangle.
"""

from __future__ import annotations

import numpy as np

from repro.gossip.batch import topk_merge

__all__ = ["RecordTable"]


class RecordTable:
    """``rows × cap`` gossip records with per-row lengths.

    Parameters
    ----------
    n_rows:
        One row per node id; ids ``0 .. n_rows - 1`` only.
    cap:
        Records kept per row.
    n_float, n_int:
        Payload planes of each kind; float plane 0 is the stamp.
    """

    def __init__(self, n_rows: int, cap: int, n_float: int, n_int: int = 0):
        self.cap = int(cap)
        self.keys = np.zeros((n_rows, cap), dtype=np.int64)
        self.floats = np.zeros((n_float, n_rows, cap))
        self.ints = np.zeros((n_int, n_rows, cap), dtype=np.int64)
        self.lens = np.zeros(n_rows, dtype=np.int64)
        self._col = np.arange(cap)
        # Flat-cell views of the same memory (the arrays never reallocate).
        self._kflat = self.keys.reshape(-1)
        self._fflat = self.floats.reshape(n_float, n_rows * cap)
        self._iflat = self.ints.reshape(n_int, n_rows * cap)

    def __len__(self) -> int:
        return int(self.lens.size)

    def clear(self, row: int) -> None:
        """Empty one row; an id outside the table raises IndexError."""
        if not 0 <= row < self.lens.size:
            raise IndexError(f"no row {row}: the table holds ids below {self.lens.size}")
        self.lens[row] = 0

    def filled(self, rows: np.ndarray) -> np.ndarray:
        """``(len(rows), cap)`` mask of the occupied slots of ``rows``."""
        return self._col < self.lens[rows][:, None]

    def cells(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every occupied slot of ``rows``, row by row in slot order, as
        ``(index into rows, flat cell)``."""
        r, slot = self.filled(rows).nonzero()
        return r, rows[r] * self.cap + slot

    def take(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Keys, float planes and int planes of flat ``cells`` (any shape);
        the planes come back as ``(n_planes, *cells.shape)``."""
        return (
            self._kflat.take(cells),
            self._fflat.take(cells, axis=1),
            self._iflat.take(cells, axis=1),
        )

    def merge(
        self,
        tgt: np.ndarray,
        key: np.ndarray,
        floats: np.ndarray,
        ints: np.ndarray | None = None,
    ) -> tuple[int, int]:
        """Merge one round of deliveries into their target rows.

        ``tgt``/``key`` and the columns of ``floats`` (``n_float × k``) and
        ``ints`` (``n_int × k``; ``None`` for a table without int planes)
        describe ``k`` delivered records.  Per row the freshest record of
        each key wins and the ``cap`` freshest keys are kept, written in
        ``(stamp desc, key)`` order.  The pile :func:`topk_merge` ranks
        holds the targets' current records, then the deliveries in the
        caller's order, so a stamp tie goes to the incumbent, then to the
        earlier delivery.  Only keys and stamps enter the pile: the other
        payload planes are gathered once, for the survivors alone.

        Returns ``(kept, evicted)``: deliveries that survived, and
        deduplicated records dropped by the capacity cut.
        """
        # Distinct targets by a flag scatter: rows are dense ids, so this
        # beats a hash-based np.unique over the deliveries.
        flag = np.zeros(self.lens.size, dtype=bool)
        flag[tgt] = True
        touched = flag.nonzero()[0]
        r, cells = self.cells(touched)
        n_cur = int(r.size)
        a_key = np.concatenate([self._kflat.take(cells), key])
        a_ts = np.concatenate([self._fflat[0].take(cells), floats[0]])
        sel, row, slot, evicted = topk_merge(
            np.concatenate([touched.take(r), tgt]), a_key, a_ts, self.cap
        )
        # Plane by plane: a 1-D take or scatter beats 2-D fancy indexing.
        out = row * self.cap + slot
        self._kflat[out] = a_key.take(sel)
        self._fflat[0][out] = a_ts.take(sel)
        fresh = sel >= n_cur
        if len(self._fflat) > 1 or len(self._iflat):
            old = ~fresh
            src, out_old = cells.take(sel[old]), out[old]
            col, out_new = sel[fresh] - n_cur, out[fresh]
            rest = [*floats[1:], *(() if ints is None else ints)]
            for plane, delivered in zip([*self._fflat[1:], *self._iflat], rest, strict=True):
                plane[out_old] = plane.take(src)
                plane[out_new] = delivered.take(col)
        self.lens[touched] = np.bincount(row, minlength=self.lens.size).take(touched)
        return int(np.count_nonzero(fresh)), evicted

    def fill(self, row: int, key: np.ndarray, floats: np.ndarray) -> None:
        """Replace one row of a table without int planes by the ``cap``
        freshest of distinct-key records (``floats`` is ``n_float × k``),
        in merge's ``(stamp desc, key)`` order."""
        order = np.lexsort((key, -floats[0]))[: self.cap]
        m = int(order.size)
        self.keys[row, :m] = key[order]
        self.floats[:, row, :m] = floats[:, order]
        self.lens[row] = m

    def expire(self, horizon: float) -> None:
        """Drop every record stamped before ``horizon``; the survivors
        slide left in order."""
        lens = self.lens
        keep = (self._col < lens[:, None]) & (self.floats[0] >= horizon)
        new_len = keep.sum(axis=1)
        changed = np.flatnonzero(new_len < lens)
        if changed.size == 0:
            return
        order = np.argsort(~keep[changed], axis=1, kind="stable")
        self.keys[changed] = np.take_along_axis(self.keys[changed], order, axis=1)
        for planes in (self.floats, self.ints):
            planes[:, changed] = np.take_along_axis(
                planes[:, changed], order[None], axis=2
            )
        lens[changed] = new_len[changed]

    def find(self, row: int, key: int) -> int:
        """Slot of ``key`` in ``row``, or -1."""
        pos = np.flatnonzero(self.keys[row, : self.lens[row]] == key)
        return int(pos[0]) if pos.size else -1

    def remove(self, row: int, slot: int) -> None:
        """Drop one record; the row's last record moves into its slot."""
        last = int(self.lens[row]) - 1
        self.keys[row, slot] = self.keys[row, last]
        self.floats[:, row, slot] = self.floats[:, row, last]
        self.ints[:, row, slot] = self.ints[:, row, last]
        self.lens[row] = last
