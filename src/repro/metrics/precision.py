"""Pacing precision (paper Section 4.4).

The paper logs each packet's *expected* send timestamp at the quiche server
and matches it with the *actual* wire timestamp from the sniffer by QUIC
packet number. Because server and sniffer clocks are unsynchronized, the mean
difference is meaningless; the **standard deviation** of the differences is
the precision metric.

Matching reads columns only: the log's packet-number and expected-time
columns and the capture's packet-number and time columns.
"""

from __future__ import annotations

import math
from array import array
from typing import TYPE_CHECKING

from repro.net.tap import CaptureColumns

if TYPE_CHECKING:
    from repro.stacks.base import SendLog

#: "Not on the wire": capture times are never negative.
_UNSEEN = -1


def match_expected_actual(expected_log: "SendLog", records: CaptureColumns) -> "array[int]":
    """Per-packet (actual - expected) send-time differences in ns, in log order.

    Matches by packet number; packets that never reached the wire (dropped by
    a qdisc) are skipped, and a number captured twice (a duplicate on the
    wire) matches its first capture, like the paper's evaluation scripts.
    A server numbers its packets densely from 0, so the first capture of
    each number is kept in an array indexed by it, as long as the log's
    largest number.
    """
    if not len(expected_log):
        return array("q")
    size = max(expected_log.packet_number) + 1
    actual = array("q", [_UNSEEN]) * size
    # Backwards, so the first capture of a number is the one left standing.
    for pn, time_ns in zip(reversed(records.packet_number), reversed(records.time_ns)):
        if 0 <= pn < size:
            actual[pn] = time_ns
    matched = zip(map(actual.__getitem__, expected_log.packet_number), expected_log.expected_ns)
    return array("q", (wire - expected for wire, expected in matched if wire != _UNSEEN))


def pacing_precision_ns(expected_log: "SendLog", records: CaptureColumns) -> float:
    """Standard deviation of actual-vs-expected send times, in ns; ``0.0``
    with fewer than two matched packets (a TCP result's log is empty, so its
    capture is never read)."""
    if len(expected_log) < 2:
        return 0.0
    diffs = match_expected_actual(expected_log, records)
    if len(diffs) < 2:
        return 0.0
    mean = sum(diffs) / len(diffs)
    var = sum((d - mean) ** 2 for d in diffs) / (len(diffs) - 1)
    return math.sqrt(var)
