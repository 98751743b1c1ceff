"""Tests for the shared batched-gossip kernels against plain-Python references."""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gossip.batch import row_topk_smallest, topk_merge


def reference_merge(tgt, key, ts, pref, cap):
    """``topk_merge`` spelled out: dict dedupe keeping the largest
    ``(ts, -pref)`` per ``(tgt, key)``, then per target a sort by
    ``(-ts, key)`` cut at ``cap``."""
    best: dict[tuple[int, int], tuple[tuple[float, int], int]] = {}
    for i in range(len(tgt)):
        cell = (int(tgt[i]), int(key[i]))
        rank = (float(ts[i]), -int(pref[i]))
        if cell not in best or rank > best[cell][0]:
            best[cell] = (rank, i)
    rows_of = defaultdict(list)
    for (t, _), (_, i) in best.items():
        rows_of[t].append(i)
    sel, tgt_sel, slot, uniq, counts, evicted = [], [], [], [], [], 0
    for t in sorted(rows_of):
        rows = sorted(rows_of[t], key=lambda i: (-ts[i], key[i]))
        kept = rows[:cap]
        evicted += len(rows) - len(kept)
        sel += kept
        tgt_sel += [t] * len(kept)
        slot += range(len(kept))
        uniq.append(t)
        counts.append(len(kept))
    return sel, tgt_sel, slot, uniq, counts, evicted


def _arrays(rows):
    if not rows:
        z = np.zeros(0, dtype=np.int64)
        return z, z, np.zeros(0), z
    tgt, key, pref, ts = (np.array(col) for col in zip(*rows))
    return tgt.astype(np.int64), key.astype(np.int64), ts.astype(float), pref.astype(np.int64)


# A pile: rows with distinct (tgt, key, pref), as both protocols build them.
# pref 0 marks a target's incumbent rows, pref > 0 a delivery; stamps come
# from a few gossip-cycle times so incumbents and deliveries tie often.
piles = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.integers(0, 9),
        st.integers(0, 4),
    ),
    unique=True,
    max_size=80,
).flatmap(
    lambda cells: st.tuples(
        st.just(cells),
        st.lists(
            st.sampled_from([0.0, 300.0, 600.0, 900.0]),
            min_size=len(cells),
            max_size=len(cells),
        ),
    )
).map(lambda p: [(t, k, pr, ts) for (t, k, pr), ts in zip(*p)])


@given(pile=piles, cap=st.integers(1, 12))
@example(pile=[], cap=3)
# one target; two incumbents and two deliveries tied on the same stamp
@example(
    pile=[(4, 1, 0, 300.0), (4, 2, 0, 300.0), (4, 1, 2, 300.0), (4, 2, 1, 300.0),
          (4, 3, 1, 0.0)],
    cap=2,
)
# cap larger than every group
@example(pile=[(0, 1, 0, 0.0), (0, 2, 1, 300.0), (3, 1, 1, 600.0)], cap=12)
@settings(max_examples=300, deadline=None)
def test_topk_merge_matches_reference(pile, cap):
    tgt, key, ts, pref = _arrays(pile)
    sel, tgt_sel, rank, uniq, counts, evicted = topk_merge(tgt, key, ts, pref, cap)
    want = reference_merge(tgt, key, ts, pref, cap)
    assert sel.tolist() == want[0]
    assert tgt_sel.tolist() == want[1]
    assert rank.tolist() == want[2]
    assert uniq.tolist() == want[3]
    assert counts.tolist() == want[4]
    assert evicted == want[5]


def test_topk_merge_empty_pile():
    z = np.zeros(0, dtype=np.int64)
    sel, tgt_sel, rank, uniq, counts, evicted = topk_merge(z, z, np.zeros(0), z, 4)
    assert all(a.size == 0 for a in (sel, tgt_sel, rank, uniq, counts))
    assert evicted == 0


def test_topk_merge_incumbent_beats_same_age_delivery():
    # Same (tgt, key) and stamp: pref 0 (incumbent) wins over pref 1 and 2.
    tgt, key, ts, pref = _arrays([(0, 7, 2, 300.0), (0, 7, 0, 300.0), (0, 7, 1, 300.0)])
    sel, *_ = topk_merge(tgt, key, ts, pref, 4)
    assert sel.tolist() == [1]


def test_duplicate_row_raises():
    # Two rows agree on (tgt, key, pref) at one stamp: no deterministic winner.
    tgt, key, ts, pref = _arrays([(1, 3, 2, 600.0), (0, 5, 0, 0.0), (1, 3, 2, 600.0)])
    with pytest.raises(ValueError, match="repeat"):
        topk_merge(tgt, key, ts, pref, 4)


def test_negative_field_raises():
    tgt, key, ts, pref = _arrays([(0, 1, 0, 0.0), (0, 2, 1, 0.0)])
    with pytest.raises(ValueError, match="non-negative"):
        topk_merge(tgt, key - 2, ts, pref, 4)


def test_code_overflow_raises():
    big = 2**21
    tgt = np.array([big, 0], dtype=np.int64)
    key = np.array([big, 1], dtype=np.int64)
    pref = np.array([big, 0], dtype=np.int64)
    ts = np.array([0.0, 1.0])
    with pytest.raises(OverflowError):
        topk_merge(tgt, key, ts, pref, 4)


@given(
    shape=st.tuples(st.integers(1, 8), st.integers(1, 10)),
    k=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_row_topk_smallest_picks_k_smallest_valid(shape, k, seed):
    rng = np.random.default_rng(seed)
    keys = rng.random(shape)
    valid = rng.random(shape) < 0.6
    pos, picked = row_topk_smallest(keys, valid, k)
    assert pos.shape == picked.shape == (shape[0], min(k, shape[1]))
    for r in range(shape[0]):
        chosen = pos[r][picked[r]].tolist()
        n_valid = int(valid[r].sum())
        assert len(chosen) == min(k, n_valid)
        assert len(set(chosen)) == len(chosen)
        assert all(valid[r, c] for c in chosen)
        # ... and they are the smallest keys among the valid cells.
        want = sorted(np.flatnonzero(valid[r]), key=lambda c: keys[r, c])[: len(chosen)]
        assert sorted(chosen) == sorted(want)
