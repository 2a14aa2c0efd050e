"""Congestion controller interface.

The loss-recovery machinery owns bytes-in-flight accounting and calls into
the controller on send/ack/loss/spurious-loss events; the controller owns the
congestion window and the **pacing rate**, which is what the pacers in
:mod:`repro.pacing` consume. The pacing-rate *calculation* is the same across
the paper's three libraries (Section 3.3); what differs is how the rate is
enforced, which lives in the pacers and stack drivers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.units import ms

if TYPE_CHECKING:  # imported lazily to avoid a package cycle with repro.quic
    from repro.quic.recovery import RateSample, SentPacket
    from repro.quic.rtt import RttEstimator

#: Default pacing-gain applied to cwnd/srtt (RFC 9002 recommends a small
#: multiplier so pacing never becomes the bottleneck below cwnd).
DEFAULT_PACING_GAIN = 1.25

#: RFC 9002 initial RTT assumption, used before the first sample.
K_INITIAL_RTT_NS = ms(333)


class CongestionController:
    """Base class; subclasses implement the window dynamics."""

    name = "base"

    def __init__(
        self,
        mtu: int = 1252,
        initial_window_packets: int = 10,
        min_window_packets: int = 2,
    ):
        self.mtu = mtu
        self.cwnd = initial_window_packets * mtu
        self.min_cwnd = min_window_packets * mtu
        #: Multiplier on cwnd/srtt for the pacing rate; stacks tune this
        #: (surplus > 1 keeps pacing from throttling below cwnd).
        self.pacing_gain_factor = DEFAULT_PACING_GAIN
        self.ssthresh: float = float("inf")
        self.recovery_start_time: int = -1
        self.congestion_events = 0
        self._trace: Optional[List[tuple[int, int]]] = None

    # -- tracing ---------------------------------------------------------

    def enable_trace(self) -> None:
        self._trace = [(0, self.cwnd)]

    def _record(self, now: int) -> None:
        if self._trace is not None:
            self._trace.append((now, self.cwnd))

    @property
    def cwnd_trace(self) -> List[tuple[int, int]]:
        return list(self._trace or [])

    # -- queries -----------------------------------------------------------

    def can_send(self, bytes_in_flight: int) -> int:
        """Bytes of congestion window still available."""
        room = self.cwnd - bytes_in_flight
        return room if room > 0 else 0

    def in_recovery(self, sent_time: int) -> bool:
        return sent_time <= self.recovery_start_time

    @property
    def in_slow_start(self) -> bool:
        return self.cwnd < self.ssthresh

    def pacing_rate_bps(self, rtt: "RttEstimator") -> int:
        """Bits/second at which the pacer should release packets."""
        srtt = rtt.smoothed_rtt if rtt.smoothed_rtt > 0 else K_INITIAL_RTT_NS
        rate = self.cwnd * 8 * 1_000_000_000 / srtt
        return max(int(rate * self.pacing_gain_factor), 8 * self.mtu)

    # -- event hooks ----------------------------------------------------------

    def on_packet_sent(self, sp: SentPacket, bytes_in_flight: int, now: int) -> None:
        """Called after every packet transmission."""

    def on_packets_acked(
        self,
        acked: Sequence[SentPacket],
        now: int,
        rtt: RttEstimator,
        bytes_in_flight: int,
        lost_packets_total: int = 0,
    ) -> None:
        raise NotImplementedError

    def on_packets_lost(
        self,
        lost: Sequence[SentPacket],
        now: int,
        bytes_in_flight: int,
        lost_packets_total: int,
    ) -> None:
        raise NotImplementedError

    def on_spurious_loss(
        self, pns: Sequence[int], now: int, lost_packets_total: int
    ) -> None:
        """A late ACK arrived for packets previously declared lost."""

    def on_rate_sample(self, sample: RateSample, now: int) -> None:
        """Delivery-rate feedback (used by BBR)."""

    def on_ecn_ce(self, now: int, sent_time: int) -> None:
        """The peer echoed new ECN-CE marks (RFC 9002 §7.1): congestion
        without loss. Default: ignore (BBRv1 behaviour)."""

    def on_persistent_congestion(self, now: int) -> None:
        """RFC 9002 §7.6: collapse the window to its minimum, like a TCP RTO.
        Subclasses may additionally reset their internal model."""
        self.cwnd = self.min_cwnd
        self.recovery_start_time = now
        self._record(now)

    # -- shared congestion-event bookkeeping ------------------------------------

    def _should_trigger_congestion_event(self, largest_lost_sent_time: int) -> bool:
        """One cwnd reduction per congestion epoch (RFC 9002 §7.3.1)."""
        return largest_lost_sent_time > self.recovery_start_time
