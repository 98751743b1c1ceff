"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A tail percentile is reported only with at least this many samples
#: strictly beyond it.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def _rank(n: int, q: float) -> int:
    """1-based nearest-rank position of the ``q``-th percentile among ``n``
    (rounded first, so 99.9% of 10,000 is rank 9,990, not 9,991)."""
    return max(1, math.ceil(round(q / 100.0 * n, 9)))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    return float(ordered[_rank(len(ordered), q) - 1])


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank
    ``q``-th percentile's position."""
    return n - _rank(n, q) if n else 0


def samples_needed(q: float) -> int:
    """The smallest sample count whose ``q``-th percentile has
    :data:`MIN_BEYOND` samples beyond it."""
    n = MIN_BEYOND + 1
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def tail(values: Sequence[float], q: float) -> float:
    """``percentile(values, q)``, refusing a tail that too few samples
    support (``ValueError``)."""
    beyond = samples_beyond(len(values), q)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(values)} samples has only {beyond} beyond it "
            f"(need {MIN_BEYOND})"
        )
    return percentile(values, q)


def median_tail(groups: Sequence[Sequence[float]], q: float) -> float:
    """The median over ``groups`` of each group's :func:`tail`.

    A host stall that slows every sample for a second or two lifts the tail
    of the group it falls in, not the median over several groups."""
    return median([tail(g, q) for g in groups])


def windows(values: Sequence[float], size: int) -> list[Sequence[float]]:
    """Consecutive full windows of ``size`` samples (a partial last one is
    dropped)."""
    return [values[i:i + size] for i in range(0, len(values) - size + 1, size)]


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (``statistics.quantiles(values, n=4)``)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
