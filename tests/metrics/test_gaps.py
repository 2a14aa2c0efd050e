"""Inter-packet gaps and CDF helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.metrics.gaps import Distribution, fraction_leq, inter_packet_gaps
from repro.net.tap import CaptureColumns, CaptureRecord


def rec(t):
    return CaptureRecord(
        time_ns=t, wire_size=1294, payload_size=1252,
        flow=("a", 1, "b", 2), packet_number=None, dgram_id=0, gso_id=None,
    )


def test_gaps_between_consecutive_records():
    records = CaptureColumns.from_records([rec(0), rec(100), rec(250), rec(1000)])
    assert inter_packet_gaps(records) == [100, 150, 750]


def test_gaps_empty_and_single():
    assert inter_packet_gaps(CaptureColumns()) == []
    assert inter_packet_gaps(CaptureColumns.from_records([rec(5)])) == []


def test_fraction_leq():
    values = [1, 2, 3, 4, 5]
    assert fraction_leq(values, 3) == 0.6
    assert fraction_leq(values, 0) == 0.0
    assert fraction_leq([], 10) == 0.0


def test_cdf_monotone_and_bounded():
    xs, ps = Distribution([5, 1, 3, 2, 4]).cdf(points=10)
    assert ps[0] == 0.0 and ps[-1] == 1.0
    assert xs == sorted(xs)
    assert xs[0] == 1 and xs[-1] == 5


def test_cdf_empty():
    assert Distribution([]).cdf() == ([], [])


def test_percentile():
    values = list(range(1, 101))
    assert Distribution(values).percentile(0.0) == 1
    assert Distribution(values).percentile(1.0) == 100
    assert abs(Distribution(values).percentile(0.5) - 50) <= 1


def test_percentile_empty_raises():
    with pytest.raises(ValueError):
        Distribution([]).percentile(0.5)


@given(st.lists(st.floats(min_value=0, max_value=1e9), min_size=1, max_size=100))
def test_cdf_covers_all_quantiles(values):
    xs, ps = Distribution(values).cdf(points=50)
    assert len(xs) == len(ps) == 51
    assert min(xs) == min(values)
    assert max(xs) == max(values)
