"""TCP receiver with classic delayed ACKs.

Acknowledges every second segment immediately, otherwise after the delayed-ACK
timeout (40 ms, Linux default); out-of-order arrivals trigger immediate
duplicate ACKs, which drive the sender's fast retransmit.
"""

from __future__ import annotations

from typing import Optional

from repro.kernel.socket import SendSpec, UdpSocket
from repro.quic.ranges import RangeSet
from repro.sim.engine import Simulator
from repro.tcp.segment import MAX_SACK_BLOCKS, TcpSegment
from repro.units import ms

DELAYED_ACK_TIMEOUT = ms(40)


class TcpReceiver:
    def __init__(self, sim: Simulator, socket: UdpSocket, expected_size: int):
        self.sim = sim
        self.socket = socket
        self.expected_size = expected_size
        socket.on_readable = self._on_readable

        self.received = RangeSet()
        self.fin_seq: Optional[int] = None
        self.rcv_nxt = 0
        self._unacked_segments = 0
        # Reusable delayed-ACK timer (40 ms, as Linux).
        self._delack_timer = sim.timer(self._send_ack)
        self._detached = False
        self.first_data_at: Optional[int] = None
        self.completed_at: Optional[int] = None
        self.acks_sent = 0
        self.bytes_received_total = 0

    def _on_readable(self) -> None:
        if self._detached:
            return
        now = self.sim.now
        for dgram in self.socket.recv_all():
            segment = dgram.payload
            if isinstance(segment, TcpSegment) and segment.is_data:
                self._on_data(segment, now)

    def _on_data(self, segment: TcpSegment, now: int) -> None:
        if self.first_data_at is None:
            self.first_data_at = now
        self.bytes_received_total += segment.length
        if segment.length:
            self.received.add(segment.seq, segment.seq + segment.length)
        if segment.fin:
            self.fin_seq = segment.seq + segment.length
        old_rcv_nxt = self.rcv_nxt
        self.rcv_nxt = self.received.first_gap_from(0)
        out_of_order = segment.seq > old_rcv_nxt or self.rcv_nxt < self.received.upper
        if (
            self.completed_at is None
            and self.fin_seq is not None
            and self.rcv_nxt >= self.fin_seq
        ):
            self.completed_at = now
        self._unacked_segments += 1
        if out_of_order or self._unacked_segments >= 2 or self.completed_at is not None:
            self._send_ack()
        elif not self._delack_timer.armed:
            self._delack_timer.schedule(DELAYED_ACK_TIMEOUT)

    def _sack_blocks(self) -> tuple:
        """Up to three received ranges above the cumulative ACK (RFC 2018)."""
        if self.received.upper <= self.rcv_nxt:
            return ()
        blocks = [
            (lo, hi)
            for lo, hi in self.received
            if hi > self.rcv_nxt
        ]
        # Highest (most recent) blocks first, as real stacks report them.
        blocks.sort(key=lambda b: -b[1])
        return tuple(blocks[:MAX_SACK_BLOCKS])

    def detach(self) -> None:
        """Tear down on flow departure: no further timers may fire."""
        self._detached = True
        self._delack_timer.cancel()

    def _send_ack(self) -> None:
        self._delack_timer.cancel()
        self._unacked_segments = 0
        ack = TcpSegment(0, 0, self.rcv_nxt, False, self._sack_blocks())
        self.acks_sent += 1
        self.socket.sendmsg(SendSpec(ack, ack.wire_payload))

    @property
    def done(self) -> bool:
        return self.completed_at is not None
