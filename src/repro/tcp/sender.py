"""Kernel TCP sender: ACK clocking, CUBIC + HyStart, SACK-based recovery, RTO.

Loss recovery follows the RFC 6675 approach used by Linux: the receiver's
SACK blocks build a scoreboard, a hole is marked lost once three MSS of data
above it have been SACKed, and the in-flight estimate ("pipe") counts
unacked-but-not-SACKed-and-not-lost bytes plus retransmissions. That lets
recovery repair many holes per RTT — essential when competing traffic causes
bursty loss.

The sender reuses the library's CUBIC implementation (feeding it synthetic
``SentPacket`` records) so that the TCP comparator and the QUIC stacks share
identical window dynamics; differences in the measurements then come from
where they really come from: kernel-space ACK clocking versus user-space
event loops and pacing enforcement.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, Optional

from repro.cc.base import CongestionController
from repro.cc.cubic import Cubic, CubicParams
from repro.kernel.socket import SendSpec, UdpSocket
from repro.quic.ranges import RangeSet
from repro.quic.recovery import SentPacket
from repro.quic.rtt import RttEstimator
from repro.sim.engine import Simulator
from repro.tcp.segment import TCP_MSS, TcpSegment
from repro.units import ms

#: A hole counts as lost once this many bytes are SACKed above it (3 dupacks).
LOSS_SACK_BYTES = 3 * TCP_MSS
MIN_RTO = ms(200)
#: Cap on segments transmitted per ACK-processing pass (kernel burst limit).
MAX_BURST_SEGMENTS = 64


class TcpSender:
    """Serves ``file_size`` application bytes to the peer."""

    def __init__(
        self,
        sim: Simulator,
        socket: UdpSocket,
        file_size: int,
        cc: Optional[CongestionController] = None,
        mss: int = TCP_MSS,
    ):
        self.sim = sim
        self.socket = socket
        self.file_size = file_size
        self.mss = mss
        self.cc = cc or Cubic(
            params=CubicParams(hystart=True, hystart_ack_train=True), mtu=mss
        )
        self.rtt = RttEstimator(max_ack_delay_ns=ms(40))
        socket.on_readable = self._on_readable

        self.snd_una = 0
        self.snd_nxt = 0
        self.fin_sent = False
        self.fin_acked = False

        self.sacked = RangeSet()  # absolute byte ranges reported via SACK
        self.retx_sent = RangeSet()  # bytes retransmitted (ever)
        self.highest_sacked = 0
        self.in_recovery = False
        self.recover = 0  # recovery ends when snd_una passes this

        self._sent_times: Dict[int, int] = {}  # seq -> first-send time
        # Min-heap of every key put into _sent_times: an ACK finds the keys
        # below it here instead of scanning the window. Duplicates (go-back-N
        # re-enters lower keys) and keys Karn already popped are harmless.
        self._sent_seqs: list[int] = []
        self._segment_index = 0
        # Reusable soft-cancel timer: re-armed on nearly every ACK.
        self._rto_timer = sim.timer(self._on_rto)
        self._detached = False
        self.retransmissions = 0
        self.rto_events = 0
        self.started_at: Optional[int] = None

    # -- pipe (RFC 6675 in-flight estimate) --------------------------------

    def _lost_ranges(self) -> list[tuple[int, int]]:
        """Holes below the SACK frontier that count as lost."""
        if self.highest_sacked <= self.snd_una:
            return []
        frontier = self.highest_sacked - LOSS_SACK_BYTES
        out = []
        for lo, hi in self.sacked.missing_within(self.snd_una, self.highest_sacked):
            if lo < frontier:
                out.append((lo, min(hi, frontier)))
        return out

    def _pipe(self) -> int:
        outstanding = self.snd_nxt - self.snd_una
        if outstanding <= 0:
            return 0
        if self.highest_sacked <= self.snd_una:
            return outstanding  # nothing SACKed above the ACK point
        sacked = 0
        for lo, hi in self.sacked:
            lo = max(lo, self.snd_una)
            hi = min(hi, self.snd_nxt)
            if hi > lo:
                sacked += hi - lo
        lost_not_retx = 0
        for lo, hi in self._lost_ranges():
            for gap_lo, gap_hi in self.retx_sent.missing_within(lo, hi):
                lost_not_retx += gap_hi - gap_lo
        return max(0, outstanding - sacked - lost_not_retx)

    # -- transmit --------------------------------------------------------------

    def start(self) -> None:
        self.started_at = self.sim.now
        self._send_window()

    def _send_window(self) -> None:
        """ACK clock: retransmit lost holes first, then new data."""
        now = self.sim.now
        # Holes exist only below a SACK frontier above the ACK point; neither
        # moves while this pass transmits.
        may_have_holes = self.highest_sacked > self.snd_una
        sent = 0
        while sent < MAX_BURST_SEGMENTS:
            pipe = self._pipe()
            room = self.cc.can_send(pipe)
            if room < self.mss // 2:
                break
            # 1. Repair lost holes not yet retransmitted.
            hole = self._next_hole_to_retransmit() if may_have_holes else None
            if hole is not None:
                lo, hi = hole
                self._transmit(lo, min(self.mss, hi - lo), False, now, pipe, retx=True)
                sent += 1
                continue
            # 2. New data.
            if self.snd_nxt < self.file_size:
                length = min(self.mss, self.file_size - self.snd_nxt, max(room, 1))
                if length <= 0:
                    break
                fin = (self.snd_nxt + length) >= self.file_size
                self._transmit(self.snd_nxt, length, fin, now, pipe)
                self.snd_nxt += length
                if fin:
                    self.fin_sent = True
                sent += 1
                continue
            # 3. Bare FIN if everything was sent but the FIN flag got lost.
            if not self.fin_sent and self.snd_nxt >= self.file_size:
                self._transmit(self.snd_nxt, 0, True, now, pipe)
                self.fin_sent = True
                sent += 1
                continue
            break
        self._arm_rto()

    def _next_hole_to_retransmit(self) -> Optional[tuple[int, int]]:
        for lo, hi in self._lost_ranges():
            for gap_lo, gap_hi in self.retx_sent.missing_within(lo, hi):
                return (gap_lo, gap_hi)
        return None

    def _transmit(
        self, seq: int, length: int, fin: bool, now: int, pipe: int, retx: bool = False
    ) -> None:
        """Send one segment. ``pipe`` is the caller's and still holds for new
        data; a retransmission takes it again, its hole being back in flight."""
        if retx:
            self.retransmissions += 1
            self.retx_sent.add(seq, seq + length)
            self._sent_times.pop(seq, None)  # Karn: no RTT sample from retx
            pipe = self._pipe()
        else:
            self._sent_times[seq] = now
            heappush(self._sent_seqs, seq)
        segment = TcpSegment(seq, length, 0, fin)
        self._segment_index += 1
        sp = SentPacket(self._segment_index, now, max(length, 1), True, True)
        self.cc.on_packet_sent(sp, pipe, now)
        self.socket.sendmsg(
            SendSpec(segment, segment.wire_payload, packet_number=seq // self.mss)
        )

    # -- receive ACKs --------------------------------------------------------------

    def _on_readable(self) -> None:
        if self._detached:
            return
        for dgram in self.socket.recv_all():
            segment = dgram.payload
            if isinstance(segment, TcpSegment):
                self._on_ack(segment)
        self._send_window()

    def _on_ack(self, segment: TcpSegment) -> None:
        now = self.sim.now
        ack = segment.ack_no
        for lo, hi in segment.sack_blocks:
            self.sacked.add(lo, hi)
            self.highest_sacked = max(self.highest_sacked, hi)

        if ack > self.snd_una:
            acked_bytes = ack - self.snd_una
            sent_times = self._sent_times
            sent_time = sent_times.pop(self.snd_una, None)
            sent_seqs = self._sent_seqs
            while sent_seqs and sent_seqs[0] < ack:
                sent_times.pop(heappop(sent_seqs), None)
            if sent_time is not None:
                self.rtt.update(now - sent_time)
            self.snd_una = ack
            # Every reader clamps at snd_una; forget what lies below it.
            self.sacked.discard_below(ack)
            self.retx_sent.discard_below(ack)
            if self.in_recovery and ack >= self.recover:
                self.in_recovery = False
            if ack >= self.file_size and self.fin_sent:
                self.fin_acked = True
            if sent_time is None:
                sent_time = now - self.rtt.smoothed_rtt
            sp = SentPacket(ack // self.mss, sent_time, acked_bytes, True, True)
            self.cc.on_packets_acked([sp], now, self.rtt, self._pipe(), 0)

        # Loss detection: holes with >= 3 MSS SACKed above them.
        if not self.in_recovery and self._lost_ranges():
            self._enter_recovery(now)

    def _enter_recovery(self, now: int) -> None:
        self.in_recovery = True
        self.recover = self.snd_nxt
        lost = SentPacket(
            pn=self.snd_una // self.mss,
            time_sent=now - self.rtt.smoothed_rtt,
            size=self.mss,
            ack_eliciting=True,
            in_flight=True,
        )
        self.cc.on_packets_lost([lost], now, self._pipe(), 1)

    # -- RTO ----------------------------------------------------------------------

    def _arm_rto(self) -> None:
        if self._detached or self.complete or (
            self.snd_nxt == self.snd_una and not self.fin_sent
        ):
            self._rto_timer.cancel()
            return
        rto = max(self.rtt.pto_interval(), MIN_RTO)
        self._rto_timer.schedule(rto)

    def detach(self) -> None:
        """Tear down on flow departure: no further timers may fire."""
        self._detached = True
        self._rto_timer.cancel()

    def _on_rto(self) -> None:
        if self._detached or self.complete:
            return
        now = self.sim.now
        self.rto_events += 1
        lost = SentPacket(
            pn=self.snd_una // self.mss,
            time_sent=now - self.rtt.smoothed_rtt,
            size=self.mss,
            ack_eliciting=True,
            in_flight=True,
        )
        self.cc.on_packets_lost([lost], now, 0, 1)
        self.cc.cwnd = max(self.cc.min_cwnd, 2 * self.mss)
        # Go-back-N from the cumulative ACK point; retransmission markers are
        # cleared so the holes get resent.
        self.snd_nxt = self.snd_una
        self.retx_sent = RangeSet()
        self.fin_sent = False
        self.in_recovery = False
        self._send_window()

    @property
    def complete(self) -> bool:
        return self.fin_acked
