"""Sample statistics shared by the benchmark, its trace and its repeater."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def supported_tail(n: int, wanted: float = 99.0) -> Optional[float]:
    """The highest percentile <= ``wanted`` with >= 10 samples beyond it.

    Returns None when even the median lacks ten samples beyond it.
    """
    for q in TAIL_LADDER:
        beyond = round(n * (100.0 - q) / 100.0, 9)  # 1 - 0.9 != 0.1
        if q <= wanted and beyond >= MIN_BEYOND:
            return q
    return None


def tail(values: Sequence[float], wanted: float = 99.0):
    """``(percentile used, value)``: ``wanted`` or the highest supported
    percentile below it, per the ten-samples-beyond rule."""
    q = supported_tail(len(values), wanted) or 50.0
    return q, percentile(values, q)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    if len(values) < 2:
        value = float(values[0])
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf
