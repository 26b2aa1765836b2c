"""Small statistics helpers shared by the benchmark runner and its tests."""

import math
import statistics

#: a tail percentile is reported only when this many samples lie beyond it
MIN_BEYOND = 10


def percentile(values, pct: float) -> float | None:
    """Nearest-rank percentile of values.

    pct = 50 is the median. A tail percentile (pct > 50) is returned only
    when at least MIN_BEYOND samples lie strictly beyond its rank, so p90
    needs 100 samples and p99 needs 1000; otherwise the result is None.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return None
    if pct == 50:
        return statistics.median(xs)
    rank = math.ceil(pct / 100 * n)
    if pct > 50 and n - rank < MIN_BEYOND:
        return None
    return xs[max(rank, 1) - 1]


def highest_tail(values, candidates=(99.9, 99, 90)) -> tuple[float, float] | None:
    """(pct, value) for the highest candidate percentile that is reportable."""
    for pct in candidates:
        v = percentile(values, pct)
        if v is not None:
            return pct, v
    return None


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
