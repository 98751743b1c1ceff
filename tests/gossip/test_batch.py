"""Tests for the shared batched-gossip kernels against plain-Python references."""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gossip.batch import row_topk_smallest, topk_merge


def reference_merge(tgt, key, ts, cap):
    """``topk_merge`` spelled out: dict dedupe keeping the freshest row per
    ``(tgt, key)`` (of rows tied on the stamp, the earlier row), then per
    target a sort by ``(-ts, key)`` cut at ``cap``."""
    best: dict[tuple[int, int], int] = {}
    for i in range(len(tgt)):
        cell = (int(tgt[i]), int(key[i]))
        if cell not in best or ts[i] > ts[best[cell]]:
            best[cell] = i
    rows_of = defaultdict(list)
    for (t, _), i in best.items():
        rows_of[t].append(i)
    sel, tgt_sel, slot, evicted = [], [], [], 0
    for t in sorted(rows_of):
        rows = sorted(rows_of[t], key=lambda i: (-ts[i], key[i]))
        kept = rows[:cap]
        evicted += len(rows) - len(kept)
        sel += kept
        tgt_sel += [t] * len(kept)
        slot += range(len(kept))
    return sel, tgt_sel, slot, evicted


def _arrays(rows):
    if not rows:
        z = np.zeros(0, dtype=np.int64)
        return z, z, np.zeros(0)
    tgt, key, ts = (np.array(col) for col in zip(*rows))
    return tgt.astype(np.int64), key.astype(np.int64), ts.astype(float)


def _check(pile, cap):
    tgt, key, ts = _arrays(pile)
    sel, tgt_sel, rank, evicted = topk_merge(tgt, key, ts, cap)
    want = reference_merge(tgt, key, ts, cap)
    assert sel.tolist() == want[0]
    assert tgt_sel.tolist() == want[1]
    assert rank.tolist() == want[2]
    assert evicted == want[3]


# A pile: (tgt, key, ts) rows in any order, repeats allowed.  Stamps come
# from a few gossip-cycle times so rows tie on (tgt, key, ts) often.
piles = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.integers(0, 9),
        st.sampled_from([0.0, 300.0, 600.0, 900.0]),
    ),
    max_size=80,
)


@given(pile=piles, cap=st.integers(1, 12))
@example(pile=[], cap=3)
# one target; two incumbents and two later rows tied on the same stamp
@example(
    pile=[(4, 1, 300.0), (4, 2, 300.0), (4, 2, 300.0), (4, 1, 300.0), (4, 3, 0.0)],
    cap=2,
)
# cap larger than every group
@example(pile=[(0, 1, 0.0), (0, 2, 300.0), (3, 1, 600.0)], cap=12)
@settings(max_examples=300, deadline=None)
def test_topk_merge_matches_reference(pile, cap):
    _check(pile, cap)


def test_topk_merge_empty_pile():
    z = np.zeros(0, dtype=np.int64)
    sel, tgt_sel, rank, evicted = topk_merge(z, z, np.zeros(0), 4)
    assert all(a.size == 0 and a.dtype == np.int64 for a in (sel, tgt_sel, rank))
    assert evicted == 0


def test_topk_merge_incumbent_beats_same_age_delivery():
    # Same (tgt, key) and stamp: the incumbent comes first in the pile and
    # wins over both deliveries.
    tgt, key, ts = _arrays([(0, 7, 300.0), (0, 7, 300.0), (0, 7, 300.0)])
    sel, *_ = topk_merge(tgt, key, ts, 4)
    assert sel.tolist() == [0]


def test_duplicate_row_raises():
    # Two identical rows no longer raise: the earlier one is kept.
    tgt, key, ts = _arrays([(1, 3, 600.0), (0, 5, 0.0), (1, 3, 600.0)])
    sel, tgt_sel, rank, evicted = topk_merge(tgt, key, ts, 4)
    assert sel.tolist() == [1, 0]
    assert tgt_sel.tolist() == [0, 1]
    assert rank.tolist() == [0, 0]
    assert evicted == 0


def test_negative_field_raises():
    tgt, key, ts = _arrays([(0, 1, 0.0), (0, 2, 0.0)])
    with pytest.raises(ValueError, match="non-negative"):
        topk_merge(tgt, key - 2, ts, 4)
    with pytest.raises(ValueError, match="non-negative"):
        topk_merge(tgt - 1, key, ts, 4)


def test_code_overflow_raises():
    # Ids below 2**31 take 2 * 31 bits, two stamps and two rows one more
    # each: 64 bits, one over the budget.  Ids below 2**30 fit.
    ts = np.array([0.0, 1.0])
    tgt = np.array([2**31 - 1, 0], dtype=np.int64)
    key = np.array([2**31 - 1, 1], dtype=np.int64)
    with pytest.raises(OverflowError, match="needs 64 bits .* 63 are available"):
        topk_merge(tgt, key, ts, 4)
    sel, *_ = topk_merge(tgt // 2, key // 2, ts, 4)
    assert sel.tolist() == [1, 0]


def test_topk_merge_at_metro10k_ids():
    # metro-10k's id range (0 .. 9,999 for targets and keys) with 64
    # distinct stamps: 2 * 14 + 6 + 16 bits for this pile (the largest
    # pile of the metro-10k golden cell needs 58).
    rng = np.random.default_rng(10_000)
    n = 40_000
    tgt = rng.integers(0, 10_000, n)
    key = rng.integers(0, 10_000, n)
    tgt[:2], key[:2] = 9_999, [9_999, 0]
    stamps = np.sort(rng.uniform(0.0, 3600.0, 64))
    ts = stamps[rng.integers(0, 64, n)]
    ts[:64] = stamps
    # Re-deliver a quarter of the rows so (tgt, key) groups and stamp ties
    # occur.
    again = rng.integers(0, n, n // 4)
    rows = list(zip(tgt.tolist(), key.tolist(), ts.tolist()))
    rows += [rows[i] for i in again.tolist()]
    rows += [(t, k, float(stamps[-1])) for t, k, _ in rows[:1_000]]
    _check(rows, 20)


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
