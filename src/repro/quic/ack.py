"""Receiver-side ACK generation.

Implements the RFC 9000 default policy: acknowledge every second
ack-eliciting packet immediately, otherwise within ``max_ack_delay`` (25 ms);
always acknowledge immediately when a gap (potential reordering/loss) is
observed. Tracks received packet numbers as ranges for the ACK frame.
"""

from __future__ import annotations

from typing import Final, List, Optional, Tuple

from repro.quic.frames import ACK_DELAY_EXPONENT, AckFrame
from repro.units import ms

MAX_ACK_RANGES: Final[int] = 10


class AckManager:
    def __init__(self, max_ack_delay_ns: int = ms(25), ack_eliciting_threshold: int = 2):
        self.max_ack_delay_ns: int = max_ack_delay_ns
        self.ack_eliciting_threshold: int = ack_eliciting_threshold
        self._ranges: List[List[int]] = []  # sorted [lo, hi], ascending
        self._largest_time: int = 0
        self._largest: int = -1
        self._unacked_eliciting: int = 0
        #: Ack-eliciting packets were received since the last ACK frame.
        self.ack_pending: bool = False
        self._ack_deadline: Optional[int] = None
        self._immediate: bool = False
        self.duplicates: int = 0

    # -- recording -----------------------------------------------------------

    def record(self, pn: int, ack_eliciting: bool, now_ns: int) -> None:
        prev_largest = self._largest
        if pn > prev_largest:
            self._largest = pn
            self._largest_time = now_ns
        ranges = self._ranges
        if ranges and ranges[-1][1] == pn - 1:
            ranges[-1][1] = pn  # in order: extends the last range
        elif not self._insert(pn):
            self.duplicates += 1
            return
        if ack_eliciting:
            self.ack_pending = True
            self._unacked_eliciting += 1
            if self._unacked_eliciting >= self.ack_eliciting_threshold:
                self._immediate = True
            elif self._ack_deadline is None:
                self._ack_deadline = now_ns + self.max_ack_delay_ns
            # A *newly appearing* gap signals loss/reordering: ack at once
            # (RFC 9000 §13.2.1). Packets received while an old hole is
            # still being repaired follow the normal cadence, as stacks
            # with ACK-frequency logic do.
            if pn > prev_largest + 1 and prev_largest >= 0:
                self._immediate = True

    def _insert(self, pn: int) -> bool:
        """Insert pn into the range set; returns False on duplicate."""
        ranges = self._ranges
        lo_idx, hi_idx = 0, len(ranges)
        while lo_idx < hi_idx:
            mid = (lo_idx + hi_idx) // 2
            if ranges[mid][1] < pn:
                lo_idx = mid + 1
            else:
                hi_idx = mid
        # ranges[lo_idx] is the first range with hi >= pn (if any)
        if lo_idx < len(ranges) and ranges[lo_idx][0] <= pn <= ranges[lo_idx][1]:
            return False
        touches_next = lo_idx < len(ranges) and ranges[lo_idx][0] == pn + 1
        touches_prev = lo_idx > 0 and ranges[lo_idx - 1][1] == pn - 1
        if touches_prev and touches_next:
            ranges[lo_idx - 1][1] = ranges[lo_idx][1]
            del ranges[lo_idx]
        elif touches_prev:
            ranges[lo_idx - 1][1] = pn
        elif touches_next:
            ranges[lo_idx][0] = pn
        else:
            ranges.insert(lo_idx, [pn, pn])
        return True

    # -- ACK emission ----------------------------------------------------------

    def should_ack_now(self, now_ns: int) -> bool:
        """An ACK is due: implies ``ack_pending`` (the immediate flag and the
        deadline are only ever set by an ack-eliciting packet and are cleared
        with it in :meth:`build_ack`)."""
        if self._immediate:
            return True
        return self._ack_deadline is not None and now_ns >= self._ack_deadline

    def ack_deadline(self) -> Optional[int]:
        """Absolute time by which an ACK must go out, or None."""
        if not self.ack_pending:
            return None
        if self._immediate:
            return 0
        return self._ack_deadline

    def build_ack(self, now_ns: int) -> Optional[AckFrame]:
        if not self._ranges:
            return None
        descending: Tuple[Tuple[int, int], ...] = tuple(
            map(tuple, reversed(self._ranges[-MAX_ACK_RANGES:]))
        )
        delay_ns = max(0, now_ns - self._largest_time)
        # The wire encodes the delay in 2**ACK_DELAY_EXPONENT µs units, so
        # quantize here: the frame object then carries exactly what a peer
        # would decode, whether it travels as an object or as bytes.
        delay_us = (delay_ns // 1000) >> ACK_DELAY_EXPONENT << ACK_DELAY_EXPONENT
        frame = AckFrame(self._largest, delay_us, descending)
        self._unacked_eliciting = 0
        self.ack_pending = False
        self._ack_deadline = None
        self._immediate = False
        return frame

    def received_count(self) -> int:
        return sum(hi - lo + 1 for lo, hi in self._ranges)
