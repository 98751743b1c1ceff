"""Bit-exactness tests for :mod:`repro.sim.fastrand`.

Every fast path must replicate NumPy's draws *value- and state-exactly*:
after any interleaving of sampler calls and (sync'd) direct ``Generator``
calls, an identically seeded plain ``Generator`` must produce the same
values from the same stream position.  These tests are the contract that
keeps the gossip golden fingerprints replayable on any NumPy whose bounded
generation matches today's (a future NumPy that changes the algorithm
would fail here first, loudly).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.fastrand import FastSampler
from repro.sim.rng import spawn_generator

UNIFORM_BOUNDS = [
    (0.0, 1.0), (100.0, 10_000.0), (10.0, 100.0), (-5.5, 3.25),
    (7.0, 7.0),  # lo == hi: a word is still consumed, the value is lo
    (10, 1000),  # int bounds convert to float first
    (-1e300, 1e300),
]

SHAPES = [
    (16, 8), (12, 6), (16, 4), (5, 4), (20, 1), (7, 7), (33, 16),
    (3, 2), (2, 1), (9, 8), (17, 5), (100, 7), (2, 2), (64, 33), (1, 1),
]


def _pair(seed):
    """Identically seeded (reference Generator, FastSampler) pair."""
    return np.random.default_rng(seed), FastSampler(np.random.default_rng(seed))


@pytest.mark.parametrize("seed", range(25))
def test_choice_indices_matches_numpy(seed):
    ref, fast = _pair(seed)
    for n, k in SHAPES:
        expected = [int(x) for x in ref.choice(n, size=k, replace=False)]
        assert fast.choice_indices(n, k) == expected, (n, k)
    # stream positions stayed aligned throughout
    assert int(ref.integers(0, 10**6)) == fast.integers(10**6)


@pytest.mark.parametrize("seed", range(25))
def test_integers_and_pick_match_numpy(seed):
    ref, fast = _pair(seed)
    seq = list(range(50))
    for n in (2, 3, 5, 7, 12, 16, 100, 1000, 2**31):
        assert fast.integers(n) == int(ref.integers(0, n))
        arr = np.asarray(seq[:n] if n <= 50 else seq, dtype=np.int64)
        assert fast.pick(list(arr)) == int(ref.choice(arr))


def test_integers_range_of_one_consumes_nothing():
    ref, fast = _pair(99)
    assert fast.integers(1) == 0
    assert fast.integers(0) == 0
    # NumPy consumes nothing for an empty range either: streams still equal.
    assert fast.integers(17) == int(ref.integers(0, 17))


@pytest.mark.parametrize("seed", range(10))
def test_vector_choice_over_array_matches(seed):
    """newscast bootstrap: choice(ids, size=m, replace=False) == ids[idx]."""
    ref, fast = _pair(seed)
    ids = np.arange(100, 140, dtype=np.int64)
    expected = [int(x) for x in ref.choice(ids, size=9, replace=False)]
    got = [int(ids[t]) for t in fast.choice_indices(len(ids), 9)]
    assert got == expected


@pytest.mark.parametrize("seed", range(10))
def test_shuffle_sync_keeps_streams_aligned(seed):
    ref, fast = _pair(seed)
    # Put the mirror mid-buffer (odd number of 32-bit draws), then shuffle.
    assert fast.integers(7) == int(ref.integers(0, 7))
    a = np.arange(41)
    b = np.arange(41)
    ref.shuffle(a)
    fast.shuffle(b)
    assert list(a) == list(b)
    assert fast.choice_indices(11, 5) == [
        int(x) for x in ref.choice(11, size=5, replace=False)
    ]


def test_interleaving_every_api(seed=7):
    ref, fast = _pair(seed)
    rnd = np.random.default_rng(1234)  # independent driver
    seq = list(range(200))
    for _ in range(300):
        op = int(rnd.integers(0, 4))
        n = int(rnd.integers(2, 40))
        if op == 0:
            assert fast.integers(n) == int(ref.integers(0, n))
        elif op == 1:
            k = int(rnd.integers(1, n + 1))
            assert fast.choice_indices(n, k) == [
                int(x) for x in ref.choice(n, size=k, replace=False)
            ]
        elif op == 2:
            assert fast.pick(seq[:n]) == seq[int(ref.integers(0, n))]
        else:
            a = np.arange(n)
            b = np.arange(n)
            ref.shuffle(a)
            fast.shuffle(b)
            assert list(a) == list(b)


def test_spawned_streams_use_fast_path():
    """RngHub streams are PCG64-family: the emulation must be active."""
    gen = spawn_generator(3, "newscast")
    fast = FastSampler(gen)
    assert not fast.native
    ref = spawn_generator(3, "newscast")
    assert fast.choice_indices(14, 6) == [
        int(x) for x in ref.choice(14, size=6, replace=False)
    ]


@pytest.mark.parametrize("seed", range(25))
def test_integers_batch_matches_scalar_numpy_stream(seed):
    """A batch of ``size`` draws is word-for-word the scalar sequence."""
    ref, fast = _pair(seed)
    for n, size in [(2, 1), (5, 3), (17, 40), (999, 129), (40, 64), (3, 200)]:
        expected = [int(ref.integers(0, n)) for _ in range(size)]
        assert fast.integers_batch(n, size).tolist() == expected, (n, size)
    # stream positions stayed aligned throughout
    assert fast.integers(10**6) == int(ref.integers(0, 10**6))


@pytest.mark.parametrize("seed", range(25))
def test_random_batch_matches_numpy(seed):
    ref, fast = _pair(seed)
    for size in (1, 7, 64, 129):
        assert fast.random_batch(size).tolist() == ref.random(size).tolist()
    # doubles bypass the uint32 buffer: a buffered bounded draw before and
    # after must stay aligned too
    assert fast.integers(13) == int(ref.integers(0, 13))
    assert fast.random_batch(5).tolist() == ref.random(5).tolist()
    assert fast.integers(13) == int(ref.integers(0, 13))


def test_integers_batch_rejection_path_is_exact():
    """Near-2**32 ranges make Lemire reject ~50% of words, forcing the
    sequential tail replay; it must still match the scalar stream."""
    n = 2**32 - 3
    ref, fast = _pair(11)
    expected = [int(ref.integers(0, n)) for _ in range(100)]
    assert fast.integers_batch(n, 100).tolist() == expected
    assert fast.integers(17) == int(ref.integers(0, 17))


def test_batch_of_zero_or_degenerate_range_consumes_nothing():
    ref, fast = _pair(4)
    assert fast.integers_batch(7, 0).tolist() == []
    assert fast.integers_batch(1, 5).tolist() == [0] * 5
    assert fast.random_batch(0).tolist() == []
    assert fast.integers(23) == int(ref.integers(0, 23))


@pytest.mark.parametrize("seed", range(15))
def test_interleaved_batch_and_scalar_draws_with_rewind(seed):
    """The PR 8 contract: randomized interleavings of the batched round
    draws (integers_batch / random_batch), the scalar paths, and the
    ``advance(-n)``-rewinding sync used by delegated NumPy calls stay
    value- and state-exact against a plain ``numpy.random.Generator``.
    """
    ref, fast = _pair(seed)
    rnd = np.random.default_rng(seed + 4321)  # independent driver
    for _ in range(120):
        op = int(rnd.integers(0, 6))
        n = int(rnd.integers(2, 50))
        if op == 0:
            assert fast.integers(n) == int(ref.integers(0, n))
        elif op == 1:
            size = int(rnd.integers(1, 100))
            expected = [int(ref.integers(0, n)) for _ in range(size)]
            assert fast.integers_batch(n, size).tolist() == expected
        elif op == 2:
            size = int(rnd.integers(1, 100))
            assert fast.random_batch(size).tolist() == ref.random(size).tolist()
        elif op == 3:
            k = int(rnd.integers(1, n + 1))
            assert fast.choice_indices(n, k) == [
                int(x) for x in ref.choice(n, size=k, replace=False)
            ]
        elif op == 4:
            a = np.arange(n)
            b = np.arange(n)
            ref.shuffle(a)
            fast.shuffle(b)
            assert list(a) == list(b)
        else:
            # An explicit hand-back mid-stream: rewinds the prefetch via
            # bit_generator.advance(-unconsumed) and pushes the buffer
            # mirror; a direct NumPy draw follows, then a fresh sampler
            # takes the stream over again (the workflow generator's loan).
            fast.sync_to_numpy()
            assert int(fast.generator.integers(0, n)) == int(ref.integers(0, n))
            fast = FastSampler(fast.generator)
    # final stream position identical
    assert fast.integers(10**6) == int(ref.integers(0, 10**6))


def test_rejection_path_is_exact():
    """Force the Lemire rejection branch with a near-2**32 range.

    For rng_excl just under 2**32 the rejection probability is ~50%, so a
    few hundred draws exercise the redraw loop (impossible to hit with
    gossip-sized ranges, but the branch must still be stream-exact).
    """
    n = 2**32 - 3
    ref, fast = _pair(5)
    for _ in range(200):
        assert fast.integers(n) == int(ref.integers(0, n))
    assert fast.choice_indices(9, 4) == [
        int(x) for x in ref.choice(9, size=4, replace=False)
    ]


@pytest.mark.parametrize("seed", range(25))
def test_uniform_matches_numpy(seed):
    ref, fast = _pair(seed)
    for lo, hi in UNIFORM_BOUNDS * 3:
        got = fast.uniform(lo, hi)
        assert type(got) is float
        assert got.hex() == float(ref.uniform(lo, hi)).hex(), (lo, hi)
    assert fast.integers(10**6) == int(ref.integers(0, 10**6))


@pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (0.0, float("inf")), (0.0, float("nan"))])
def test_uniform_non_finite_span_raises_and_consumes_nothing(lo, hi):
    ref, fast = _pair(8)
    assert fast.integers(9) == int(ref.integers(0, 9))  # mid half-word
    with pytest.raises(OverflowError):
        ref.uniform(lo, hi)
    with pytest.raises(OverflowError):
        fast.uniform(lo, hi)
    assert fast.uniform(0.0, 1.0) == float(ref.uniform(0.0, 1.0))
    assert fast.integers(9) == int(ref.integers(0, 9))


def test_uniform_inverted_range_raises_and_consumes_nothing():
    ref, fast = _pair(8)
    with pytest.raises(ValueError, match="high - low < 0"):
        fast.uniform(3.0, -2.0)
    assert fast.uniform(-2.0, 3.0) == float(ref.uniform(-2.0, 3.0))


@pytest.mark.parametrize("seed", range(15))
def test_uniform_interleaved_with_buffered_and_batch_draws(seed):
    """Full-word doubles between half-word bounded draws and vector
    batches: the uint32 buffer and the prefetch stay aligned with NumPy."""
    ref, fast = _pair(seed)
    rnd = np.random.default_rng(seed + 777)  # independent driver
    for _ in range(300):
        op = int(rnd.integers(0, 5))
        n = int(rnd.integers(2, 50))
        if op == 0:
            lo, hi = UNIFORM_BOUNDS[n % len(UNIFORM_BOUNDS)]
            assert fast.uniform(lo, hi) == float(ref.uniform(lo, hi))
        elif op == 1:
            assert fast.integers(n) == int(ref.integers(0, n))
        elif op == 2:
            assert fast.random_batch(n).tolist() == ref.random(n).tolist()
        elif op == 3:
            expected = [int(ref.integers(0, n)) for _ in range(n)]
            assert fast.integers_batch(n, n).tolist() == expected
        else:
            k = int(rnd.integers(1, n + 1))
            assert fast.choice_indices(n, k) == [
                int(x) for x in ref.choice(n, size=k, replace=False)
            ]
    fast.sync_to_numpy()
    assert fast.generator.bit_generator.state["state"] == ref.bit_generator.state["state"]
    assert fast.integers(10**6) == int(ref.integers(0, 10**6))


@pytest.mark.parametrize("seed", range(10))
def test_shuffle_is_numpys_fisher_yates(seed):
    """Lists and 1-D arrays of every length 0-40, back to back."""
    ref, fast = _pair(seed)
    for n in range(41):
        a, b = list(range(n)), list(range(n))
        ref.shuffle(a)
        fast.shuffle(b)
        assert a == b, n
        x, y = np.arange(n) * 3, np.arange(n) * 3
        ref.shuffle(x)
        fast.shuffle(y)
        assert x.tolist() == y.tolist(), n
    assert fast.integers(10**6) == int(ref.integers(0, 10**6))


def test_shuffle_makes_no_generator_call():
    ref, fast = _pair(21)
    fast.generator = None  # any delegation to NumPy would now fail
    for n in (2, 5, 17, 40):
        a, b = list(range(n)), list(range(n))
        ref.shuffle(a)
        fast.shuffle(b)
        assert a == b


def test_choice_shape_memo_is_bounded(monkeypatch):
    """Workflow generation meets a new (n, k) shape per pool size and
    fan-out; past the memo's cap the ranges are computed per call, and the
    draws stay exact."""
    import repro.sim.fastrand as fastrand

    monkeypatch.setattr(fastrand, "_MULT_CACHE", {})
    monkeypatch.setattr(fastrand, "_MULT_CACHE_SHAPES", 8)
    ref, fast = _pair(17)
    for n in range(2, 40):
        for k in (2, n // 2 + 1, n):
            assert fast.choice_indices(n, k) == [
                int(x) for x in ref.choice(n, size=k, replace=False)
            ], (n, k)
    assert len(fastrand._MULT_CACHE) == 8
