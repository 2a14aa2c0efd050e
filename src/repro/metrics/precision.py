"""Pacing precision (paper Section 4.4).

The paper logs each packet's *expected* send timestamp at the quiche server
and matches it with the *actual* wire timestamp from the sniffer by QUIC
packet number. Because server and sniffer clocks are unsynchronized, the mean
difference is meaningless; the **standard deviation** of the differences is
the precision metric.

Matching reads the packet-number and time columns of the capture.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.net.tap import CaptureColumns


def _actual_by_pn(records: CaptureColumns) -> Dict[int, int]:
    """First wire timestamp per packet number (first capture wins)."""
    actual: Dict[int, int] = {}
    for pn, time_ns in zip(records.packet_number, records.time_ns):
        if pn >= 0 and pn not in actual:
            actual[pn] = time_ns
    return actual


def match_expected_actual(
    expected_log: Sequence[Tuple[int, int]],
    records: CaptureColumns,
) -> List[int]:
    """Per-packet (actual - expected) send-time differences in ns.

    Matches by packet number; packets that never reached the wire (dropped by
    a qdisc) or were retransmitted under the same number are skipped on
    ambiguity (first capture wins, like the paper's evaluation scripts).
    """
    actual_by_pn = _actual_by_pn(records)
    diffs: List[int] = []
    for pn, expected_ns in expected_log:
        actual = actual_by_pn.get(pn)
        if actual is not None:
            diffs.append(actual - expected_ns)
    return diffs


def pacing_precision_ns(
    expected_log: Sequence[Tuple[int, int]],
    records: CaptureColumns,
) -> float:
    """Standard deviation of actual-vs-expected send times, in ns."""
    diffs = match_expected_actual(expected_log, records)
    if len(diffs) < 2:
        return 0.0
    mean = sum(diffs) / len(diffs)
    var = sum((d - mean) ** 2 for d in diffs) / (len(diffs) - 1)
    return math.sqrt(var)
