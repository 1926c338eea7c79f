"""Order statistics the benchmark reports."""
from __future__ import annotations

import statistics

#: a tail percentile needs at least this many samples beyond it
TAIL_BEYOND = 10


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """Highest percentile that has at least `beyond` samples above it.

    Returns (value, percentile, sample count). The value is the order
    statistic with exactly `beyond` samples after it; its percentile is the
    share of samples at or below it. With `beyond` samples or fewer no
    percentile qualifies, and the minimum is reported as percentile 0.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of an empty sample")
    i = n - 1 - beyond
    if i < 0:
        return xs[0], 0.0, n
    return xs[i], 100.0 * (i + 1) / n, n


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
