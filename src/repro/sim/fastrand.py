"""Stream-identical fast paths for NumPy ``Generator`` draws.

The gossip substrate makes hundreds of thousands of tiny bounded draws per
run — ``Generator.choice(n, size=k, replace=False)`` for peer sampling and
push digests, ``Generator.integers(0, n)`` for pairings — and the Table I
workflow generator about a hundred scalar draws per workflow.  Each NumPy
call pays 1.5–13 µs of argument-parsing/array-allocation overhead that
dwarfs the actual bit generation.  :class:`FastSampler` removes that
overhead while reproducing the *exact same* random stream, so every golden
fingerprint replays bit-identically.

How NumPy draws (PCG64 family, bounded ranges < 2**32)
------------------------------------------------------
* The bit generator serves 32-bit words out of 64-bit raw draws, low half
  first, buffering the high half in its pickled state
  (``has_uint32``/``uinteger``).
* A draw uniform on ``[0, rng]`` inclusive is Lemire's multiply-shift with
  rejection: ``m = u32 * (rng + 1)``; reject while ``m & 0xFFFFFFFF`` is
  below ``(2**32 - 1 - rng) % (rng + 1)``; the value is ``m >> 32``.
* ``choice(n, size=k, replace=False)`` runs Floyd's algorithm (``k``
  bounded draws on growing ranges, collisions replaced by the range top)
  followed by a backward Fisher–Yates shuffle of the ``k`` picks (``k - 1``
  more bounded draws).
* ``integers(0, n)`` is a single bounded draw on ``[0, n - 1]``; a range of
  zero consumes nothing.  ``integers(lo, hi)`` is ``lo + integers(0, hi -
  lo)`` word for word.
* ``shuffle(x)`` is a backward Fisher–Yates whose swap index comes from
  ``random_interval`` instead: a 32-bit word masked to the smallest
  all-ones mask covering the range, redrawn while above it.
* A double (``random``, ``uniform``) consumes one full 64-bit raw word,
  ``(raw >> 11) * 2**-53``, and leaves the uint32 buffer alone;
  ``uniform(lo, hi)`` is ``lo + (hi - lo) * double``.

:class:`FastSampler` replays those reductions in Python directly from
``bit_generator.random_raw()`` (≈0.3 µs per 64-bit word, prefetched in
blocks), mirroring the uint32 buffer so the stream stays aligned with the
wrapped ``Generator``.  A caller that lends a ``Generator`` to a sampler
and keeps drawing from it afterwards hands the stream back with
:meth:`FastSampler.sync_to_numpy`.

Every fast path is verified value- and state-exact against NumPy by
``tests/sim/test_fastrand.py``; on bit generators without the expected
buffered-uint32 state layout the sampler transparently falls back to the
plain ``Generator`` calls.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["FastSampler"]

_M32 = 0xFFFFFFFF

#: Scale of a 53-bit integer to a double in [0, 1) (NumPy's ``next_double``).
_TWO_M53 = 1.0 / 9007199254740992.0

#: Bit generators whose ``next_uint32`` is the buffered low-half-first
#: split of ``next_uint64`` (the layout the emulation assumes).
_BUFFERED_U32_BITGENS = frozenset({"PCG64", "PCG64DXSM"})

#: ``(n, k) -> (floyd rng_excl list, shuffle rng_excl list)`` — the bounded
#: ranges of a choice-without-replacement call are a pure function of its
#: shape, and gossip uses only a handful of shapes per run, so the range
#: arithmetic is hoisted out of the draw loops entirely.  The workflow
#: generator's shapes vary with the workflow, so the memo stops growing at
#: ``_MULT_CACHE_SHAPES`` entries.
_MULT_CACHE: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
_MULT_CACHE_SHAPES = 1024


class FastSampler:
    """Low-overhead, stream-identical bounded draws for one ``Generator``.

    While a sampler is in use, every draw from the wrapped generator must
    go through it: a direct ``Generator`` call in between would consume
    the bit generator's internal uint32 buffer (and the prefetched words)
    without the mirror noticing.  :meth:`sync_to_numpy` ends such a loan.
    """

    __slots__ = (
        "generator", "_bg", "_raw", "_has", "_buf", "native", "_seen",
        "_pre", "_pi",
    )

    #: 64-bit raw words fetched per refill; one vectorized ``random_raw``
    #: call costs ~2 µs for 64 words vs ~0.3 µs per scalar call, so the
    #: prefetch amortizes the NumPy call overhead ~10x.  Unconsumed words
    #: are returned to the bit generator via ``advance(-n)`` when
    #: :meth:`sync_to_numpy` hands the stream back.
    _PREFETCH = 64

    def __init__(self, generator: np.random.Generator):
        self.generator = generator
        self._bg = generator.bit_generator
        state = getattr(self._bg, "state", None)
        self.native = not (
            isinstance(state, dict)
            and state.get("bit_generator") in _BUFFERED_U32_BITGENS
            and "has_uint32" in state
            and "uinteger" in state
            and hasattr(self._bg, "random_raw")
            and hasattr(self._bg, "advance")
        )
        if self.native:  # pragma: no cover - exotic bit generators only
            self._raw = None
            self._has = False
            self._buf = 0
        else:
            self._raw = self._bg.random_raw
            self._has = bool(state["has_uint32"])
            self._buf = int(state["uinteger"])
        #: Reusable Floyd exclusion set (cleared per call; draws never nest).
        self._seen: set[int] = set()
        #: Prefetched 64-bit raw words and the consumption cursor.
        self._pre: list[int] = []
        self._pi = 0

    # ------------------------------------------------------------ primitives
    def _next_raw(self) -> int:
        """Next 64-bit raw word, served from the prefetch buffer."""
        pi = self._pi
        pre = self._pre
        if pi < len(pre):
            self._pi = pi + 1
            return pre[pi]
        pre = self._pre = self._raw(self._PREFETCH).tolist()
        self._pi = 1
        return pre[0]

    def _u32(self) -> int:
        """Next 32-bit word: the buffered high half if present, else the
        low half of a fresh 64-bit raw draw (high half buffered)."""
        if self._has:
            self._has = False
            return self._buf
        d = self._next_raw()
        self._has = True
        self._buf = d >> 32
        return d & _M32

    def _lemire(self, rng: int) -> int:
        """Uniform on ``[0, rng]`` inclusive — NumPy's buffered bounded
        Lemire reduction (``rng`` must fit in 32 bits).

        The buffer handling is inlined rather than calling :meth:`_u32`:
        this is the single-draw hot path (aggregation pairings, Newscast
        pairings and reseeds) and the method-call overhead would double it.
        """
        if rng == 0:
            return 0
        rng_excl = rng + 1
        if self._has:
            self._has = False
            v = self._buf
        else:
            pi = self._pi
            pre = self._pre
            if pi < len(pre):
                self._pi = pi + 1
                d = pre[pi]
            else:
                pre = self._pre = self._raw(self._PREFETCH).tolist()
                self._pi = 1
                d = pre[0]
            self._has = True
            self._buf = d >> 32
            v = d & _M32
        m = v * rng_excl
        leftover = m & _M32
        if leftover < rng_excl:
            threshold = (_M32 - rng) % rng_excl
            while leftover < threshold:
                m = self._u32() * rng_excl
                leftover = m & _M32
        return m >> 32

    def _u32_block(self, count: int) -> np.ndarray:
        """The next ``count`` 32-bit words of the stream, as one array.

        Identical word-for-word to ``count`` successive :meth:`_u32` calls
        (buffered high half first, then low-half/high-half pairs of fresh
        raw draws), but served via vectorized splitting — the feeder for
        the batched round draws.  Leaves the buffer mirror holding the odd
        trailing half-word exactly as the scalar path would.
        """
        have_buf = 1 if self._has else 0
        n_raw = (count - have_buf + 1) // 2
        pre = self._pre
        pi = self._pi
        avail = len(pre) - pi
        if n_raw <= avail:
            raws = np.asarray(pre[pi:pi + n_raw], dtype=np.uint64)
            self._pi = pi + n_raw
        else:
            head = np.asarray(pre[pi:], dtype=np.uint64)
            short = n_raw - avail
            # Direct draw, no prefetch overshoot: a batch this large will
            # come back for another block anyway, and overshooting would
            # force an advance(-n) rewind on the next sync.
            tail = np.asarray(self._raw(short), dtype=np.uint64)
            raws = np.concatenate([head, tail]) if avail else tail
            self._pre = []
            self._pi = 0
        words = np.empty(2 * n_raw + have_buf, dtype=np.uint64)
        if have_buf:
            words[0] = self._buf
            self._has = False
        words[have_buf::2] = raws & _M32
        words[have_buf + 1::2] = raws >> np.uint64(32)
        if len(words) > count:
            self._has = True
            self._buf = int(words[-1])
            words = words[:count]
        return words

    # ------------------------------------------------------------------- API
    def integers(self, n: int) -> int:
        """``int(generator.integers(0, n))`` for ``1 <= n <= 2**32``."""
        if n <= 1:
            return 0
        if self.native:  # pragma: no cover - fallback
            return int(self.generator.integers(0, n))
        return self._lemire(n - 1)

    def pick(self, seq):
        """``seq[generator.integers(0, len(seq))]`` — replicates the scalar
        ``generator.choice(np.asarray(seq))`` without the array round-trip."""
        return seq[self.integers(len(seq))]

    def integers_batch(self, n: int, size: int) -> np.ndarray:
        """``size`` bounded draws on ``[0, n)`` as one int64 array.

        Word-for-word identical to ``size`` successive :meth:`integers`
        calls (= ``size`` scalar ``generator.integers(0, n)`` calls on the
        same stream), but reduced vectorized: the whole-round peer draws of
        the batched gossip cycle ride on this.  Lemire rejections are
        ~``n / 2**32`` per draw; when one fires, the tail of the batch is
        replayed draw-by-draw from the already-fetched words so the
        consumption order stays exact.
        """
        out = np.empty(size, dtype=np.int64)
        if size == 0:
            return out
        if n <= 1:
            out[:] = 0  # range of zero consumes nothing, as in NumPy
            return out
        if self.native:  # pragma: no cover - fallback
            for i in range(size):
                out[i] = int(self.generator.integers(0, n))
            return out
        rng_excl = n
        words = self._u32_block(size)
        m = words * np.uint64(rng_excl)
        leftover = m & np.uint64(_M32)
        threshold = (_M32 - (n - 1)) % rng_excl
        bad = leftover < np.uint64(threshold)
        np.right_shift(m, np.uint64(32), out=m)
        if not bad.any():
            out[:] = m
            return out
        # Rare path: a rejection at position i consumes replacement words
        # *before* draw i+1 in the scalar order, so everything from the
        # first rejection on is replayed sequentially against the fetched
        # word list (falling through to fresh words when it runs dry).
        first = int(np.flatnonzero(bad)[0])
        out[:first] = m[:first]
        wl = words.tolist()
        limit = size
        cursor = first
        M = _M32
        for i in range(first, size):
            while True:
                v = wl[cursor] if cursor < limit else self._u32()
                cursor += 1
                mm = v * rng_excl
                if (mm & M) >= threshold:
                    break
            out[i] = mm >> 32
        return out

    def random_batch(self, size: int) -> np.ndarray:
        """``generator.random(size)`` — ``size`` uniform doubles in [0, 1).

        Each double consumes one full 64-bit raw word (``raw >> 11``
        scaled by ``2**-53``), bypassing the uint32 buffer exactly as
        NumPy's double path does, so interleaving with bounded draws stays
        stream-exact.  Used for the batched rounds' random sort keys
        (without-replacement sampling via key ranking).
        """
        if self.native:  # pragma: no cover - fallback
            return self.generator.random(size)
        if size == 0:
            return np.empty(0, dtype=np.float64)
        pre = self._pre
        pi = self._pi
        avail = len(pre) - pi
        if size <= avail:
            raws = np.asarray(pre[pi:pi + size], dtype=np.uint64)
            self._pi = pi + size
        else:
            head = np.asarray(pre[pi:], dtype=np.uint64)
            tail = np.asarray(self._raw(size - avail), dtype=np.uint64)
            raws = np.concatenate([head, tail]) if avail else tail
            self._pre = []
            self._pi = 0
        return (raws >> np.uint64(11)) * _TWO_M53

    def choice_indices(self, n: int, k: int) -> list[int]:
        """``list(generator.choice(n, size=k, replace=False))`` as ints.

        Floyd's algorithm plus the backward shuffle, fed from one batched
        ``random_raw`` call (the rejection loops almost never fire for the
        tiny ranges gossip uses, so the batch size is exact in practice).
        """
        if self.native:  # pragma: no cover - fallback
            return [int(x) for x in self.generator.choice(n, size=k, replace=False)]
        if k == 1:
            # Floyd with an empty exclusion set and no tail shuffle: one
            # bounded draw (the aggregation-pairing hot case).
            return [self._lemire(n - 1)]
        # Floyd consumes k bounded draws, the shuffle k - 1 more; with the
        # (~1e-9 per draw) rejections ignored that is exactly 2k - 1 words.
        need = 2 * k - 1
        if k == n:
            need -= 1  # the first Floyd range is empty and draws nothing
        if self._has:
            words = [self._buf]
            self._has = False
        else:
            words = []
        n_raw = (need - len(words) + 1) // 2
        if n_raw > 0:
            pre = self._pre
            pi = self._pi
            end = pi + n_raw
            if end <= len(pre):
                raws = pre[pi:end]
                self._pi = end
            else:
                raws = pre[pi:]
                short = n_raw - len(raws)
                pre = self._pre = self._raw(max(self._PREFETCH, short)).tolist()
                raws += pre[:short]
                self._pi = short
            for d in raws:
                words.append(d & _M32)
                words.append(d >> 32)
        if len(words) > need:
            self._has = True
            self._buf = words.pop()
        # The two loops below are NumPy's reductions inlined (no closure —
        # at 2k-1 draws per call the function-call overhead would dominate)
        # with the bounded ranges precomputed per (n, k) shape.  Accept
        # condition: leftover >= rng_excl short-circuits the (almost never
        # needed) threshold computation of Lemire's rejection test; the
        # cursor only outruns the batch after such a rejection.
        mults = _MULT_CACHE.get((n, k))
        if mults is None:
            start = 1 if k == n else n - k
            mults = ([j + 1 for j in range(start, n)], list(range(k, 1, -1)))
            if len(_MULT_CACHE) < _MULT_CACHE_SHAPES:
                _MULT_CACHE[(n, k)] = mults
        floyd_mults, shuffle_mults = mults
        M = _M32
        cursor = 0
        limit = len(words)
        seen = self._seen
        seen.clear()
        if k == n:
            idx = [0]  # empty first range consumes nothing
            seen.add(0)
        else:
            idx = []
        m = 0
        for rng_excl in floyd_mults:
            while True:
                v = words[cursor] if cursor < limit else self._u32()
                cursor += 1
                m = v * rng_excl
                leftover = m & M
                if leftover >= rng_excl or leftover >= (M - rng_excl + 1) % rng_excl:
                    break
            val = m >> 32
            if val in seen:
                val = rng_excl - 1
            seen.add(val)
            idx.append(val)
        pos = k - 1
        for rng_excl in shuffle_mults:
            while True:
                v = words[cursor] if cursor < limit else self._u32()
                cursor += 1
                m = v * rng_excl
                leftover = m & M
                if leftover >= rng_excl or leftover >= (M - rng_excl + 1) % rng_excl:
                    break
            j = m >> 32
            idx[pos], idx[j] = idx[j], idx[pos]
            pos -= 1
        return idx

    def uniform(self, lo: float, hi: float) -> float:
        """``float(generator.uniform(lo, hi))`` — one double on ``[lo, hi)``.

        One full 64-bit raw word, bypassing the uint32 buffer, combined in
        NumPy's operation order: ``lo + (hi - lo) * ((raw >> 11) * 2**-53)``
        with both bounds converted to float first.  As in NumPy 2, a
        non-finite span raises :class:`OverflowError` and a negative one
        :class:`ValueError`, both before drawing.
        """
        lo = float(lo)
        span = float(hi) - lo
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if span < 0.0:
            raise ValueError("high - low < 0")
        if self.native:  # pragma: no cover - fallback
            return float(self.generator.uniform(lo, hi))
        pi = self._pi
        if pi < len(self._pre):
            self._pi = pi + 1
            d = self._pre[pi]
        else:
            d = self._next_raw()
        return lo + span * ((d >> 11) * _TWO_M53)

    def shuffle(self, seq) -> None:
        """``generator.shuffle(seq)`` for a list or a 1-D array, in place.

        NumPy's Fisher–Yates: for ``i`` from ``len(seq) - 1`` down to 1,
        swap ``seq[i]`` and ``seq[j]`` with ``j`` drawn by
        ``random_interval(i)`` — masked rejection on the buffered 32-bit
        stream, not the Lemire reduction of the bounded draws.
        """
        if self.native:  # pragma: no cover - fallback
            self.generator.shuffle(seq)
            return
        u32 = self._u32
        for i in range(len(seq) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = u32() & mask
            while j > i:
                j = u32() & mask
            seq[i], seq[j] = seq[j], seq[i]

    # ------------------------------------------------------------- interop
    def sync_to_numpy(self) -> None:
        """Hand the stream back to NumPy exactly where the emulation stands:
        rewind the bit generator past the unconsumed prefetched words, then
        push the mirrored uint32 buffer into its state (in that order —
        ``advance`` clears the buffer fields)."""
        if self.native:  # pragma: no cover - fallback
            return
        unconsumed = len(self._pre) - self._pi
        if unconsumed:
            self._bg.advance(-unconsumed)
            self._pre = []
            self._pi = 0
        state = self._bg.state
        state["has_uint32"] = int(self._has)
        state["uinteger"] = int(self._buf)
        self._bg.state = state
