"""Order statistics for timings."""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

# Percentiles considered for the tail, lowest first.
TAIL_PERCENTILES = (75, 90, 95, 99, 99.9)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the p-th percentile among n samples."""
    return max(1, math.ceil(Fraction(str(p)) / 100 * n))


def beyond(n: int, p: float) -> int:
    """Samples strictly beyond the nearest-rank p-th percentile of n."""
    return n - _rank(n, p)


def tail_percentile(n: int) -> float | None:
    """The highest percentile with at least ten of ``n`` samples beyond it,
    or None when ``n`` allows none above the median."""
    best = None
    for p in TAIL_PERCENTILES:
        if beyond(n, p) >= 10:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def spread(values) -> float:
    """Distance between the first and third quartiles as a share of the
    median (the statistic the benchmark's bounds are checked against)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0
