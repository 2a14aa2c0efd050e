"""Send- and receive-side stream state.

The workload is a single large download, so send streams source data from a
:class:`DataSource` that synthesizes bytes on demand (we never materialize the
whole 100 MiB file). Loss pushes byte ranges onto a retransmission queue that
takes priority over new data, exactly like quiche/picoquic/ngtcp2 do.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import ProtocolError
from repro.quic.ranges import RangeSet


class DataSource:
    """Synthesizes deterministic stream bytes on demand."""

    def __init__(self, size: int, fill: int = 0x00):
        self.size = size
        self.fill = fill

    def read(self, offset: int, length: int) -> bytes:
        end = min(offset + length, self.size)
        if end <= offset:
            return b""
        return bytes([self.fill]) * (end - offset)


class SendStream:
    """Sender half of a stream."""

    def __init__(self, stream_id: int, source: DataSource):
        self.stream_id = stream_id
        self.source = source
        self.size = source.size
        self.next_offset = 0  # next never-sent byte, never past ``size``
        self.acked = RangeSet()
        self.fin_sent = False
        self.fin_acked = False
        self._retx: List[List[int]] = []  # [start, end) queue, FIFO-ish sorted
        #: ``_retx`` is non-empty. A plain attribute (like ``size``,
        #: ``next_offset`` and ``fin_sent``) because the connection reads it
        #: several times per packet.
        self.has_retx = False
        self.retx_bytes_total = 0

    # -- what can we send -------------------------------------------------

    @property
    def new_bytes_available(self) -> int:
        return self.size - self.next_offset

    @property
    def has_data(self) -> bool:
        # retx pending, unsent bytes remaining, or a bare FIN still to send.
        return self.has_retx or self.next_offset < self.size or not self.fin_sent

    @property
    def all_acked(self) -> bool:
        return self.fin_acked and self.acked.covers(0, self.size)

    # -- producing chunks ---------------------------------------------------

    def next_chunk(self, max_len: int) -> Optional[Tuple[int, int, bool, bool]]:
        """Return ``(offset, length, fin, is_retx)`` for the next frame, or None.

        Retransmissions go first. ``fin`` is set on the chunk that reaches the
        end of the stream.
        """
        if max_len <= 0:
            # Only a bare FIN can be produced without byte budget.
            if (
                not self._retx
                and self.next_offset >= self.size
                and not self.fin_sent
            ):
                self.fin_sent = True
                return (self.size, 0, True, False)
            return None
        if self._retx:
            start, end = self._retx[0]
            take = min(max_len, end - start)
            if take == end - start:
                self._retx.pop(0)
                self.has_retx = bool(self._retx)
            else:
                self._retx[0][0] = start + take
            fin = (start + take) >= self.size
            return (start, take, fin, True)
        if self.next_offset < self.size:
            take = min(max_len, self.size - self.next_offset)
            offset = self.next_offset
            self.next_offset += take
            fin = self.next_offset >= self.size
            if fin:
                self.fin_sent = True
            return (offset, take, fin, False)
        if not self.fin_sent:
            self.fin_sent = True
            return (self.size, 0, True, False)
        return None

    def read(self, offset: int, length: int) -> bytes:
        return self.source.read(offset, length)

    # -- feedback ------------------------------------------------------------

    def on_ack(self, offset: int, length: int, fin: bool) -> None:
        if length:
            self.acked.add(offset, offset + length)
        if fin:
            self.fin_acked = True

    def on_loss(self, offset: int, length: int, fin: bool) -> None:
        """Queue a lost range for retransmission (skipping already-acked bytes)."""
        if fin and length == 0:
            # Pure FIN retransmission.
            if not self.fin_acked:
                self.fin_sent = False
            return
        for lo, hi in self.acked.missing_within(offset, offset + length):
            self._queue_retx(lo, hi)
        if fin and not self.fin_acked:
            self.fin_sent = False

    def _queue_retx(self, start: int, end: int) -> None:
        self.has_retx = True
        self.retx_bytes_total += end - start
        # Merge with an adjacent tail entry when possible; otherwise append.
        for entry in self._retx:
            if entry[0] <= start and end <= entry[1]:
                self.retx_bytes_total -= end - start
                return
            if entry[1] == start:
                entry[1] = end
                return
            if entry[0] == end:
                entry[0] = start
                return
        self._retx.append([start, end])
        self._retx.sort()

    @property
    def retx_pending_bytes(self) -> int:
        return sum(end - start for start, end in self._retx)


class RecvStream:
    """Receiver half of a stream."""

    def __init__(self, stream_id: int):
        self.stream_id = stream_id
        self.received = RangeSet()
        self.final_size: Optional[int] = None
        self.delivered = 0  # contiguous bytes handed to the application
        self.highest_received = 0  # one past the highest byte received
        self.bytes_received_total = 0  # includes retransmitted duplicates

    def on_frame(self, offset: int, length: int, fin: bool) -> int:
        """Record a STREAM frame; returns the number of newly received bytes."""
        if fin:
            end = offset + length
            if self.final_size is not None and self.final_size != end:
                raise ProtocolError(
                    f"conflicting final size: {self.final_size} vs {end}"
                )
            self.final_size = end
        elif self.final_size is not None and offset + length > self.final_size:
            raise ProtocolError("data past final size")
        if not length:
            return 0
        self.bytes_received_total += length
        end = offset + length
        if end > self.highest_received:
            self.highest_received = end
        new = self.received.add(offset, end)
        self.delivered = self.received.first_gap_from(0)
        return new

    @property
    def complete(self) -> bool:
        return self.final_size is not None and self.delivered >= self.final_size
