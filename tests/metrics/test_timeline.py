"""Burst-cycle analysis, including the paper's picoquic 10 ms claim."""

from repro.metrics.timeline import Burst, analyze_cycle, bursts, dominant_cycle_ns, idle_gaps
from repro.net.tap import CaptureColumns, CaptureRecord
from repro.units import ms, us
from tests.conftest import assert_claims


def recs(times):
    return CaptureColumns.from_records(
        CaptureRecord(
            time_ns=t, wire_size=1294, payload_size=1252,
            flow=("a", 1, "b", 2), packet_number=i, dgram_id=i, gso_id=None,
        )
        for i, t in enumerate(times)
    )


def synthetic_cycle(period_ns=ms(10), burst_len=16, cycles=20):
    """Burst of `burst_len` at each period start, then paced singles."""
    times = []
    for c in range(cycles):
        base = c * period_ns
        times.extend(base + i * us(12) for i in range(burst_len))
        times.extend(base + ms(3) + i * us(250) for i in range(8))
    return recs(sorted(times))


class TestBursts:
    def test_detects_long_trains_only(self):
        r = recs([0, us(10), us(20), ms(5), ms(5) + us(10)])
        assert bursts(r, min_packets=3) == [Burst(0, us(20), 3)]
        assert bursts(r, min_packets=2) == [
            Burst(0, us(20), 3),
            Burst(ms(5), ms(5) + us(10), 2),
        ]

    def test_empty(self):
        assert bursts(recs([])) == []
        assert idle_gaps(recs([])) == []


class TestIdleGaps:
    def test_threshold(self):
        r = recs([0, ms(1), ms(6), ms(6) + us(100)])
        assert idle_gaps(r, min_idle_ns=ms(2)) == [ms(5)]


class TestDominantCycle:
    def test_finds_period(self):
        events = [i * ms(10) for i in range(20)]
        cycle = dominant_cycle_ns(events)
        assert abs(cycle - ms(10)) <= ms(1)

    def test_too_few_events(self):
        assert dominant_cycle_ns([0, ms(10)]) is None

    def test_noisy_period(self):
        events = []
        t = 0
        for i in range(40):
            t += ms(10) + (i % 3 - 1) * us(300)
            events.append(t)
        cycle = dominant_cycle_ns(events)
        assert abs(cycle - ms(10)) <= ms(1)


class TestAnalyzeCycle:
    def test_synthetic_pattern_recovered(self):
        report = analyze_cycle(synthetic_cycle())
        assert report.burst_count == 20
        assert report.median_burst_packets == 16
        assert abs(report.cycle_ns - ms(10)) <= ms(1)
        # Idle gaps: burst-to-paced-phase (~2.8 ms) and paced-to-burst (~5.2 ms).
        assert ms(2) <= report.median_idle_ns < ms(7)


class TestPaperClaim:
    def test_picoquic_cycle_matches_section_41(self, paper_verdicts):
        """Bursts 'after a 5 ms idle period happening almost every 10 ms',
        read by the claims table from the paper grid's picoquic runs."""
        assert_claims(
            paper_verdicts, "fig3.picoquic_bursts", "fig3.picoquic_burst_size",
            "fig3.picoquic_idle", "fig3.picoquic_cycle",
        )
