"""Summary statistics the benchmark reports: medians, the tail rule, spreads."""

from __future__ import annotations

import math
import statistics

# a tail percentile is only meaningful with at least this many ops beyond it
TAIL_BEYOND = 10
# op_s_tail is reported only on runs with at least this many ops
TAIL_MIN_OPS = 20


def tail(values) -> tuple[float, float] | None:
    """The highest percentile with at least ``TAIL_BEYOND`` values above it.

    Returns ``(percentile, value)`` where value is the k-th smallest of the
    n values, k = n - TAIL_BEYOND, and percentile = 100 k / n; None when
    there are fewer than ``TAIL_MIN_OPS`` values.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < TAIL_MIN_OPS:
        return None
    k = n - TAIL_BEYOND
    return 100.0 * k / n, ordered[k - 1]


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
