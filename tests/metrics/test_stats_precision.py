"""Aggregation (mean ± std), goodput, and the precision metric."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.metrics.goodput import goodput_mbps
from repro.metrics.precision import match_expected_actual, pacing_precision_ns
from repro.metrics.stats import Summary, summarize
from repro.net.tap import CaptureColumns, CaptureRecord
from repro.units import SEC, mib, seconds


def recs(*rows):
    """A capture of ``(time_ns, packet_number)`` rows."""
    return CaptureColumns.from_records(
        CaptureRecord(
            time_ns=t, wire_size=1294, payload_size=1252,
            flow=("a", 1, "b", 2), packet_number=pn, dgram_id=pn, gso_id=None,
        )
        for t, pn in rows
    )


class TestSummarize:
    def test_mean_and_std(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.mean == 2.0
        assert abs(s.std - 1.0) < 1e-9
        assert s.n == 3

    def test_single_value(self):
        s = summarize([5.0])
        assert s.mean == 5.0 and s.std == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_str_format(self):
        assert str(Summary(34.67, 0.64, 20)) == "34.67 ± 0.64"

    def test_within(self):
        assert Summary(10, 1, 5).within(9, 11)
        assert not Summary(10, 1, 5).within(11, 12)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=50))
    def test_matches_numpy_definition(self, values):
        s = summarize(values)
        assert math.isclose(s.mean, float(np.mean(values)), abs_tol=1e-6)
        assert math.isclose(s.std, float(np.std(values, ddof=1)), abs_tol=1e-6)


class TestGoodput:
    def test_basic(self):
        # 100 MiB in 22.44 s is ~37.38 Mbit/s (the paper's TCP number).
        assert abs(goodput_mbps(100 * 1024 * 1024, seconds(22.44)) - 37.38) < 0.05

    def test_rejects_zero_duration(self):
        with pytest.raises(ValueError):
            goodput_mbps(1, 0)


class TestPrecision:
    def test_matches_by_packet_number(self):
        expected = [(0, 100), (1, 200), (2, 300)]
        records = recs((150, 0), (250, 1), (350, 2))
        assert match_expected_actual(expected, records) == [50, 50, 50]

    def test_constant_offset_has_zero_std(self):
        # Unsynchronized clocks: constant offset is fine, stddev is the metric.
        expected = [(i, i * 1000) for i in range(50)]
        records = recs(*((i * 1000 + 777, i) for i in range(50)))
        assert pacing_precision_ns(expected, records) == 0.0

    def test_jitter_produces_std(self):
        expected = [(i, i * 1000) for i in range(4)]
        records = recs((0, 0), (1100, 1), (1900, 2), (3100, 3))
        std = pacing_precision_ns(expected, records)
        assert std > 0

    def test_dropped_packets_skipped(self):
        expected = [(0, 100), (1, 200)]
        records = recs((150, 0))  # pn 1 never hit the wire
        assert match_expected_actual(expected, records) == [50]

    def test_first_capture_wins_for_duplicates(self):
        expected = [(0, 100)]
        records = recs((150, 0), (900, 0))
        assert match_expected_actual(expected, records) == [50]

    def test_too_few_samples_returns_zero(self):
        assert pacing_precision_ns([(0, 1)], recs((5, 0))) == 0.0
