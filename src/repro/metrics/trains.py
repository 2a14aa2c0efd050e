"""Packet-train analysis (paper Figure 3 / Figure 4 bottom rows).

A packet train is a maximal run of consecutive packets with at most 0.1 ms
between each pair; a train of length one is a single, well-paced packet. The
paper weights the distribution *by packets* ("distribution of packets across
packet trains"), so a single 16-packet burst counts 16 packets at length 16.

Like :mod:`repro.metrics.gaps`, every function walks the time column of a
capture.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence

from repro.net.tap import CaptureColumns
from repro.units import us

#: The paper's threshold: 0.1 ms (minimum serialization gap is ~0.012 ms).
TRAIN_GAP_THRESHOLD_NS = us(100)


def packet_trains(
    records: CaptureColumns, threshold_ns: int = TRAIN_GAP_THRESHOLD_NS
) -> List[int]:
    """Lengths of consecutive packet trains."""
    times = records.time_ns
    if not times:
        return []
    lengths: List[int] = []
    current = 1
    prev = times[0]
    for t in times[1:]:
        if t - prev <= threshold_ns:
            current += 1
        else:
            lengths.append(current)
            current = 1
        prev = t
    lengths.append(current)
    return lengths


def packets_by_train_length(
    records: CaptureColumns, threshold_ns: int = TRAIN_GAP_THRESHOLD_NS
) -> Dict[int, int]:
    """Map train length -> number of *packets* in trains of that length."""
    counts: Counter[int] = Counter()
    for length in packet_trains(records, threshold_ns):
        counts[length] += length
    return dict(counts)


def fraction_of_packets_in_trains_leq(
    records: CaptureColumns,
    max_length: int,
    threshold_ns: int = TRAIN_GAP_THRESHOLD_NS,
) -> float:
    """Fraction of packets that sit in trains of ``max_length`` or fewer."""
    dist = packets_by_train_length(records, threshold_ns)
    total = sum(dist.values())
    if total == 0:
        return 0.0
    return sum(count for length, count in dist.items() if length <= max_length) / total


def pooled_packets_by_train_length(
    groups: Sequence[CaptureColumns],
    threshold_ns: int = TRAIN_GAP_THRESHOLD_NS,
) -> Dict[int, int]:
    """Train-length distribution pooled across groups (repetitions).

    Trains are detected within each group, so no train spans a repetition
    boundary — matching the paper's pooling of all repetitions per setting.
    """
    counts: Counter[int] = Counter()
    for records in groups:
        counts.update(packets_by_train_length(records, threshold_ns))
    return dict(counts)


def pooled_fraction_of_packets_in_trains_leq(
    groups: Sequence[CaptureColumns],
    max_length: int,
    threshold_ns: int = TRAIN_GAP_THRESHOLD_NS,
) -> float:
    """Pooled-across-repetitions variant of :func:`fraction_of_packets_in_trains_leq`."""
    dist = pooled_packets_by_train_length(groups, threshold_ns)
    total = sum(dist.values())
    if total == 0:
        return 0.0
    return sum(count for length, count in dist.items() if length <= max_length) / total
