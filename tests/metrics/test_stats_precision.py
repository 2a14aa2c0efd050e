"""Aggregation (mean ± std), goodput, and the precision metric."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.metrics.goodput import goodput_mbps
from repro.metrics.precision import match_expected_actual, pacing_precision_ns
from repro.metrics.stats import Summary, summarize
from repro.net.tap import CaptureColumns, CaptureRecord
from repro.stacks.base import SendLog
from repro.units import SEC, mib, seconds


def recs(*rows):
    """A capture of ``(time_ns, packet_number)`` rows."""
    return CaptureColumns.from_records(
        CaptureRecord(
            time_ns=t, wire_size=1294, payload_size=1252,
            flow=("a", 1, "b", 2), packet_number=pn, dgram_id=i, gso_id=None,
        )
        for i, (t, pn) in enumerate(rows)
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
        expected = SendLog([(0, 100), (1, 200), (2, 300)])
        records = recs((150, 0), (250, 1), (350, 2))
        assert match_expected_actual(expected, records).tolist() == [50, 50, 50]

    def test_constant_offset_has_zero_std(self):
        # Unsynchronized clocks: constant offset is fine, stddev is the metric.
        expected = SendLog((i, i * 1000) for i in range(50))
        records = recs(*((i * 1000 + 777, i) for i in range(50)))
        assert pacing_precision_ns(expected, records) == 0.0

    def test_jitter_produces_std(self):
        expected = SendLog((i, i * 1000) for i in range(4))
        records = recs((0, 0), (1100, 1), (1900, 2), (3100, 3))
        std = pacing_precision_ns(expected, records)
        assert std > 0

    def test_dropped_packets_skipped(self):
        expected = SendLog([(0, 100), (1, 200)])
        records = recs((150, 0))  # pn 1 never hit the wire
        assert match_expected_actual(expected, records).tolist() == [50]

    def test_first_capture_wins_for_duplicates(self):
        expected = SendLog([(0, 100)])
        records = recs((150, 0), (900, 0))
        assert match_expected_actual(expected, records).tolist() == [50]

    def test_unlogged_and_unnumbered_captures_are_ignored(self):
        # A number past the log's largest and a frame without one (None is
        # -1 in the column) match nothing; a number logged twice matches twice.
        expected = SendLog([(1, 100), (0, 50), (1, 400)])
        records = recs((10, None), (60, 0), (150, 1), (900, 7))
        assert match_expected_actual(expected, records).tolist() == [50, 10, -250]

    def test_too_few_samples_returns_zero(self):
        assert pacing_precision_ns(SendLog([(0, 1)]), recs((5, 0))) == 0.0

    @pytest.mark.parametrize("entries", [0, 1])
    def test_a_log_too_short_returns_zero_without_reading_the_capture(self, entries):
        # A TCP result's log is empty: its capture is never matched.
        class Unread:
            def __getattr__(self, name):
                raise AssertionError(f"capture column {name} was read")

        assert pacing_precision_ns(SendLog([(0, 1)] * entries), Unread()) == 0.0

    def test_matches_the_per_packet_reference_bit_for_bit(self):
        """The columnar match against the dict-and-list form it replaced."""
        rng = np.random.default_rng(7)
        pns = rng.permutation(400)[:300].tolist()
        expected = SendLog((int(pn), int(t)) for pn, t in zip(pns, rng.integers(0, 10**9, 300)))
        numbers, times = rng.integers(-1, 450, 500), rng.integers(0, 10**9, 500)
        rows = [(int(t), int(pn)) for pn, t in zip(numbers, times)]
        records = recs(*((t, None if pn < 0 else pn) for t, pn in rows))
        actual = {}
        for t, pn in rows:
            if pn >= 0:
                actual.setdefault(pn, t)
        diffs = [actual[pn] - e for pn, e in expected if pn in actual]
        assert match_expected_actual(expected, records).tolist() == diffs
        mean = sum(diffs) / len(diffs)
        std = math.sqrt(sum((d - mean) ** 2 for d in diffs) / (len(diffs) - 1))
        assert pacing_precision_ns(expected, records) == std
