"""Temporal structure of a capture: burst cycles and idle periods.

Section 4.1 describes picoquic's pattern precisely: bursts are "usually sent
after a 5 ms idle period happening almost every 10 ms". These helpers turn a
capture into that kind of statement: idle-gap statistics, burst start times,
and the dominant cycle period (via a histogram of burst-to-burst intervals).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.metrics.gaps import inter_packet_gaps
from repro.metrics.trains import TRAIN_GAP_THRESHOLD_NS
from repro.net.tap import CaptureColumns
from repro.units import ms


@dataclass(frozen=True)
class Burst:
    start_ns: int
    end_ns: int
    packets: int


def bursts(
    records: CaptureColumns,
    min_packets: int = 8,
    threshold_ns: int = TRAIN_GAP_THRESHOLD_NS,
) -> List[Burst]:
    """Packet trains of at least ``min_packets``, with their time extent."""
    times = records.time_ns
    if not times:
        return []
    out: List[Burst] = []
    start = prev = times[0]
    count = 1
    for t in times[1:]:
        if t - prev <= threshold_ns:
            count += 1
        else:
            if count >= min_packets:
                out.append(Burst(start, prev, count))
            start = t
            count = 1
        prev = t
    if count >= min_packets:
        out.append(Burst(start, prev, count))
    return out


def idle_gaps(records: CaptureColumns, min_idle_ns: int = ms(2)) -> List[int]:
    """Gaps of at least ``min_idle_ns`` between consecutive packets."""
    return [gap for gap in inter_packet_gaps(records) if gap >= min_idle_ns]


def dominant_cycle_ns(
    events_ns: Sequence[int], bucket_ns: int = ms(1), max_period_ns: int = ms(50)
) -> Optional[int]:
    """Most common interval between consecutive events, bucketed.

    Returns the bucket midpoint of the modal interval, or None with fewer
    than three events.
    """
    if len(events_ns) < 3:
        return None
    intervals = [
        b - a for a, b in zip(events_ns, events_ns[1:]) if b - a <= max_period_ns
    ]
    if not intervals:
        return None
    buckets = Counter(interval // bucket_ns for interval in intervals)
    modal_bucket, _count = buckets.most_common(1)[0]
    return int(modal_bucket * bucket_ns + bucket_ns // 2)


@dataclass(frozen=True)
class CycleReport:
    """Summary of a capture's burst cycle (the Section 4.1 statement)."""

    burst_count: int
    median_burst_packets: float
    median_idle_ns: float
    cycle_ns: Optional[int]


def analyze_cycle(
    records: CaptureColumns,
    min_burst_packets: int = 8,
    min_idle_ns: int = ms(2),
) -> CycleReport:
    found = bursts(records, min_packets=min_burst_packets)
    idles = idle_gaps(records, min_idle_ns=min_idle_ns)

    def median(values):
        if not values:
            return 0.0
        ordered = sorted(values)
        return float(ordered[len(ordered) // 2])

    return CycleReport(
        burst_count=len(found),
        median_burst_packets=median([b.packets for b in found]),
        median_idle_ns=median(idles),
        cycle_ns=dominant_cycle_ns([b.start_ns for b in found]),
    )
