"""``RecordTable`` against a plain-Python dict-of-lists model.

The model spells out the table's three slot-order rules: a merge rewrites
each touched row in ``(stamp desc, key)`` order after keeping the freshest
record per key (an incumbent beats a same-stamp delivery, then the earlier
delivery wins) and the ``cap`` freshest keys; expiry keeps the survivors in
order; removal moves the last record into the hole.  Hypothesis drives
both through random operation sequences and compares every row, slot by
slot, after every step.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gossip.table import RecordTable

STAMPS = [0.0, 300.0, 600.0, 900.0]


class Model:
    """One list of ``(key, floats, ints)`` records per row, in slot order."""

    def __init__(self, n_rows: int, cap: int):
        self.cap = cap
        self.rows: list[list[tuple]] = [[] for _ in range(n_rows)]

    def merge(self, deliveries):
        """``deliveries``: ``(tgt, key, floats, ints)`` tuples.  Of records
        tied on key and stamp the incumbent wins, then the earlier
        delivery."""
        kept = evicted = 0
        for t in sorted({d[0] for d in deliveries}):
            pile = [(key, False, f, i) for key, f, i in self.rows[t]]
            pile += [(key, True, f, i) for tgt, key, f, i in deliveries if tgt == t]
            best: dict[int, tuple] = {}
            for rec in pile:
                key, _, f, _ = rec
                if key not in best or f[0] > best[key][2][0]:
                    best[key] = rec
            ranked = sorted(best.values(), key=lambda rec: (-rec[2][0], rec[0]))
            self.rows[t] = [(key, f, i) for key, _, f, i in ranked[: self.cap]]
            kept += sum(1 for rec in ranked[: self.cap] if rec[1])
            evicted += max(0, len(ranked) - self.cap)
        return kept, evicted

    def fill(self, row, records):
        ranked = sorted(records, key=lambda rec: (-rec[1][0], rec[0]))
        self.rows[row] = [(key, f, ()) for key, f in ranked[: self.cap]]

    def expire(self, horizon):
        self.rows = [[rec for rec in row if rec[1][0] >= horizon] for row in self.rows]

    def find(self, row, key):
        keys = [rec[0] for rec in self.rows[row]]
        return keys.index(key) if key in keys else -1

    def remove(self, row, slot):
        records = self.rows[row]
        records[slot] = records[-1]
        records.pop()


def _rows_of(table: RecordTable) -> list[list[tuple]]:
    out = []
    for r in range(len(table)):
        m = int(table.lens[r])
        keys = table.keys[r, :m].tolist()
        floats = table.floats[:, r, :m].T.tolist()
        ints = table.ints[:, r, :m].T.tolist()
        out.append([(k, tuple(f), tuple(i)) for k, f, i in zip(keys, floats, ints)])
    return out


def _merge_args(deliveries, n_float, n_int):
    tgt = np.array([d[0] for d in deliveries], dtype=np.int64)
    key = np.array([d[1] for d in deliveries], dtype=np.int64)
    k = len(deliveries)
    floats = np.array([d[2] for d in deliveries], dtype=float).reshape(k, n_float).T
    ints = np.array([d[3] for d in deliveries], dtype=np.int64).reshape(k, n_int).T
    # A table without int planes takes the default.
    return tgt, key, floats, ints if n_int else None


@st.composite
def scenarios(draw):
    n_rows = draw(st.integers(1, 6))
    cap = draw(st.integers(1, 4))
    n_float = draw(st.integers(1, 3))
    n_int = draw(st.integers(0, 2))
    payload_f = st.floats(-1e3, 1e3, allow_nan=False)
    payload_i = st.integers(-5, 5)
    record_f = st.tuples(st.sampled_from(STAMPS), *[payload_f] * (n_float - 1))
    record_i = st.tuples(*[payload_i] * n_int)
    # Repeated (tgt, key) deliveries tie on the stamp often, with payloads
    # that may differ.
    deliveries = st.lists(
        st.tuples(st.integers(0, n_rows - 1), st.integers(0, 7)),
        max_size=16,
    ).flatmap(
        lambda cells: st.tuples(
            st.just(cells),
            st.lists(record_f, min_size=len(cells), max_size=len(cells)),
            st.lists(record_i, min_size=len(cells), max_size=len(cells)),
        )
    ).map(lambda p: [c + (f, i) for c, f, i in zip(*p)])
    op = st.one_of(
        st.tuples(st.just("merge"), deliveries),
        st.tuples(st.just("expire"), st.sampled_from(STAMPS + [1200.0])),
        st.tuples(st.just("remove"), st.integers(0, n_rows - 1), st.integers(0, 3)),
        st.tuples(st.just("find"), st.integers(0, n_rows - 1), st.integers(0, 7)),
    )
    if n_int == 0:
        fill = st.tuples(
            st.just("fill"),
            st.integers(0, n_rows - 1),
            st.dictionaries(st.integers(0, 7), record_f, max_size=6),
        )
        op = st.one_of(op, fill)
    ops = draw(st.lists(op, max_size=12))
    return n_rows, cap, n_float, n_int, ops


@given(scenario=scenarios())
# At cap 1 an incumbent beats a same-stamp delivery of its key and then
# loses the cut to a smaller key; expiry empties the row.
@example(scenario=(2, 1, 1, 0, [
    ("merge", [(0, 3, (300.0,), ()), (0, 5, (300.0,), ())]),
    ("merge", [(0, 3, (300.0,), ()), (0, 2, (300.0,), ())]),
    ("expire", 600.0),
]))
# Remove the middle slot of a full row, then merge into the hole; of two
# same-stamp deliveries of key 7 the earlier one's payload wins.
@example(scenario=(3, 3, 2, 1, [
    ("merge", [(1, 4, (0.0, 1.0), (2,)), (1, 6, (600.0, 2.0), (3,)),
               (1, 5, (300.0, 3.0), (4,))]),
    ("remove", 1, 1),
    ("merge", [(1, 7, (900.0, 4.0), (1,)), (1, 7, (900.0, 5.0), (2,))]),
]))
@settings(max_examples=300, deadline=None)
def test_table_matches_reference_model(scenario):
    n_rows, cap, n_float, n_int, ops = scenario
    table = RecordTable(n_rows, cap, n_float, n_int)
    model = Model(n_rows, cap)
    for op in ops:
        kind = op[0]
        if kind == "merge":
            got = table.merge(*_merge_args(op[1], n_float, n_int))
            assert got == model.merge(op[1])
        elif kind == "expire":
            table.expire(op[1])
            model.expire(op[1])
        elif kind == "remove":
            row = op[1]
            if model.rows[row]:
                slot = op[2] % len(model.rows[row])
                table.remove(row, slot)
                model.remove(row, slot)
        elif kind == "find":
            assert table.find(op[1], op[2]) == model.find(op[1], op[2])
        else:
            row, records = op[1], op[2]
            key = np.array(list(records), dtype=np.int64)
            floats = np.array(list(records.values()), dtype=float)
            table.fill(row, key, floats.reshape(key.size, n_float).T)
            model.fill(row, list(records.items()))
        assert _rows_of(table) == model.rows


newscast_deliveries = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 7), st.sampled_from(STAMPS)),
    max_size=24,
)


@given(
    incumbents=newscast_deliveries,
    deliveries=newscast_deliveries,
    cap=st.integers(1, 4),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_one_plane_merge_ignores_delivery_order(incumbents, deliveries, cap, data):
    """With one float plane (the Newscast layout) a record is its key and
    stamp, so deliveries tied on ``(tgt, key, stamp)`` are the same record
    and their order, which decides the tie, cannot change the table."""

    def merged(order):
        table = RecordTable(5, cap, 1)
        for batch in (incumbents, [deliveries[i] for i in order]):
            cols = np.array(batch, dtype=float).reshape(-1, 3).T
            got = table.merge(cols[0].astype(np.int64), cols[1].astype(np.int64), cols[2:])
        return got, table.keys.tobytes(), table.floats.tobytes(), table.lens.tobytes()

    order = data.draw(st.permutations(range(len(deliveries))))
    assert merged(order) == merged(range(len(deliveries)))


def test_cells_walk_rows_in_slot_order():
    table = RecordTable(4, 3, 1)
    table.merge(np.array([2, 2, 0]), np.array([5, 6, 1]), np.array([[600.0, 300.0, 0.0]]))
    r, cells = table.cells(np.array([2, 1, 0, 2]))
    assert r.tolist() == [0, 0, 2, 3, 3]
    assert cells.tolist() == [6, 7, 0, 6, 7]
    keys, floats, ints = table.take(cells)
    assert keys.tolist() == [5, 6, 1, 5, 6]
    assert floats.tolist() == [[600.0, 300.0, 0.0, 600.0, 300.0]]
    assert ints.shape == (0, 5)
