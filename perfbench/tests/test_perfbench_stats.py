import math

import pytest

from perfbench.stats import geomean, quartile_spread, tail


def test_tail_needs_twenty_ops():
    assert tail(range(19)) is None


@pytest.mark.parametrize("n, pct", [(20, 50.0), (25, 60.0), (100, 90.0), (1000, 99.0)])
def test_tail_is_highest_percentile_with_ten_ops_beyond(n, pct):
    values = [float(v) for v in range(n, 0, -1)]  # unsorted on purpose
    got_pct, value = tail(values)
    assert got_pct == pytest.approx(pct)
    assert sum(v > value for v in values) == 10
    assert value == n - 10


def test_tail_with_ties_counts_positions():
    values = [1.0] * 15 + [2.0] * 15
    pct, value = tail(values)
    assert pct == pytest.approx(200 / 3)
    assert value == 2.0


def test_geomean():
    assert geomean([1e-4, 1e-2]) == pytest.approx(1e-3)


def test_quartile_spread_is_a_share_of_the_median():
    assert quartile_spread([10.0] * 8) == 0.0
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)
    assert math.isfinite(quartile_spread([2.0, 2.1, 1.9, 2.05]))
