"""Sender-side loss detection (RFC 9002) with delivery-rate sampling.

Tracks every sent packet, processes ACK frames into newly-acked / lost /
spuriously-lost sets, maintains bytes in flight, computes the loss-detection
timer (time-threshold loss or PTO) and produces BBR-style delivery rate
samples.

Spurious loss (a late ACK for a packet already declared lost) is surfaced to
the congestion controller — quiche's CUBIC uses it (together with its
small-loss-burst heuristic) for the congestion-window rollback the paper
dissects in Section 4.2.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.quic.frames import AckFrame
from repro.quic.rtt import RttEstimator
from repro.units import ms

K_PACKET_THRESHOLD = 3
K_TIME_THRESHOLD_NUM = 9
K_TIME_THRESHOLD_DEN = 8
K_GRANULARITY = ms(1)

#: How many declared-lost packet numbers we remember for spurious detection.
LOST_HISTORY_LIMIT = 4096


@dataclass(slots=True)
class SentPacket:
    pn: int
    time_sent: int
    size: int
    ack_eliciting: bool
    in_flight: bool
    #: Opaque retransmission payload (the connection stores what it needs to
    #: re-send the packet's data on loss).
    retx: Any = None
    # Delivery-rate sampling snapshot (taken at send time).
    delivered: int = 0
    delivered_time: int = 0
    first_sent_time: int = 0
    is_app_limited: bool = False


@dataclass(slots=True)
class RateSample:
    """One delivery-rate sample, fed to BBR."""

    delivery_rate_bps: float
    interval_ns: int
    delivered_bytes: int
    is_app_limited: bool
    rtt_ns: int


@dataclass(slots=True)
class AckResult:
    #: Ascending by packet number.
    newly_acked: List[SentPacket] = field(default_factory=list)
    lost: List[SentPacket] = field(default_factory=list)
    spurious_pns: List[int] = field(default_factory=list)
    largest_newly_acked: Optional[int] = None
    rtt_updated: bool = False
    rate_sample: Optional[RateSample] = None
    #: RFC 9002 §7.6: losses span a full persistent-congestion period.
    persistent_congestion: bool = False


class LossRecovery:
    def __init__(self, rtt: RttEstimator):
        self.rtt = rtt
        self.sent: Dict[int, SentPacket] = {}
        self.largest_acked: int = -1
        self.loss_time: Optional[int] = None
        self.pto_count: int = 0
        self.bytes_in_flight: int = 0
        self.ack_eliciting_in_flight: int = 0
        self.time_of_last_ack_eliciting: int = 0

        self.lost_packets_total: int = 0
        self.acked_packets_total: int = 0
        self._lost_history: Dict[int, int] = {}  # pn -> declared-lost time
        #: Its keys ascending; None after the history changed.
        self._lost_sorted: Optional[List[int]] = None

        # Delivery-rate tracking (RACK/BBR style).
        self.delivered: int = 0
        self.delivered_time: int = 0
        self.first_sent_time: int = 0
        self.app_limited: bool = False

    # -- sending ------------------------------------------------------------

    def on_packet_sent(self, sp: SentPacket, now: int) -> None:
        """Track ``sp``. Packet numbers must arrive in ascending order:
        ``sent`` keeps insertion order and ACK processing relies on it."""
        sp.delivered = self.delivered
        sp.delivered_time = self.delivered_time or now
        sp.first_sent_time = self.first_sent_time or now
        sp.is_app_limited = self.app_limited
        if self.bytes_in_flight == 0:
            self.first_sent_time = now
            self.delivered_time = self.delivered_time or now
        self.sent[sp.pn] = sp
        if sp.in_flight:
            self.bytes_in_flight += sp.size
        if sp.ack_eliciting:
            self.ack_eliciting_in_flight += 1
            self.time_of_last_ack_eliciting = now

    # -- ACK processing --------------------------------------------------------

    def on_ack_frame(self, ack: AckFrame, now: int) -> AckResult:
        # ACK frames re-cover everything ever received, but almost all of it
        # was acked before: only packets still tracked (outstanding or
        # recently declared lost) can change state. Walk the *tracked* sets
        # against the ranges instead of every covered packet number — the
        # ``sent`` dict is keyed in ascending-pn insertion order, so a single
        # merge pass over (sorted ranges x sent keys) is O(outstanding), exits
        # as soon as the keys pass the highest range and yields the newly
        # acked packets already ascending.
        sent = self.sent
        ascending = ack.ranges[::-1]  # wire order is descending by hi
        ri = 0
        nr = len(ascending)
        acked_pns: List[int] = []
        for pn in sent:
            while ri < nr and ascending[ri][1] < pn:
                ri += 1
            if ri == nr:
                break
            if pn >= ascending[ri][0]:
                acked_pns.append(pn)
        pop = sent.pop
        newly = [pop(pn) for pn in acked_pns]
        spurious: List[int] = []
        if self._lost_history:
            self._prune_lost_history(now)
            # Spurious losses: declared-lost packets the ACK now covers,
            # reported range by range (descending), ascending within a range.
            # Lost packets sit in the gaps between ranges, so nearly every
            # range finds none.
            lost_sorted = self._lost_sorted
            if lost_sorted is None:
                lost_sorted = self._lost_sorted = sorted(self._lost_history)
            for lo, hi in ack.ranges:
                i = bisect_left(lost_sorted, lo)
                if i < len(lost_sorted) and lost_sorted[i] <= hi:
                    for pn in lost_sorted[i:bisect_right(lost_sorted, hi)]:
                        if pn in self._lost_history:
                            del self._lost_history[pn]
                            spurious.append(pn)
            if spurious:
                self._lost_sorted = None
        result = AckResult(newly, [], spurious)
        if not newly and not spurious:
            return result
        if newly:
            largest_sp = newly[-1]
            result.largest_newly_acked = largest_sp.pn
            if largest_sp.pn > self.largest_acked:
                self.largest_acked = largest_sp.pn
            if largest_sp.pn == ack.largest and largest_sp.ack_eliciting:
                self.rtt.update(now - largest_sp.time_sent, ack.ack_delay_us * 1000)
                result.rtt_updated = True
            for sp in newly:
                if sp.in_flight:
                    self.bytes_in_flight -= sp.size
                if sp.ack_eliciting:
                    self.ack_eliciting_in_flight -= 1
                self.delivered += sp.size
            self.acked_packets_total += len(newly)
            self.delivered_time = now
            result.rate_sample = self._make_rate_sample(largest_sp, now)
            # Delivery-rate algorithm: the next send interval is measured from
            # the most recently acked packet's transmission time.
            self.first_sent_time = largest_sp.time_sent
            self.pto_count = 0
        result.lost = self._detect_lost(now)
        if result.lost:
            result.persistent_congestion = self._is_persistent_congestion(
                result.lost, newly
            )
        return result

    def _is_persistent_congestion(
        self, lost: List[SentPacket], newly_acked: List[SentPacket]
    ) -> bool:
        """RFC 9002 §7.6: the lost packets span a period longer than
        ``3 x PTO`` during which nothing was acknowledged."""
        if len(lost) < 2 or not self.rtt.has_sample:
            return False
        span_start = lost[0].time_sent
        span_end = lost[-1].time_sent
        duration = span_end - span_start
        if duration <= 3 * self.rtt.pto_interval():
            return False
        # Any packet acknowledged from inside the span breaks persistence.
        for sp in newly_acked:
            if span_start < sp.time_sent < span_end:
                return False
        return True

    def _make_rate_sample(self, sp: SentPacket, now: int) -> Optional[RateSample]:
        send_interval = sp.time_sent - sp.first_sent_time
        ack_interval = now - sp.delivered_time
        interval = max(send_interval, ack_interval)
        delivered = self.delivered - sp.delivered
        if interval <= 0 or delivered <= 0:
            return None
        return RateSample(
            delivered * 8 * 1e9 / interval,
            interval,
            delivered,
            sp.is_app_limited,
            max(now - sp.time_sent, 1),
        )

    # -- loss detection -------------------------------------------------------

    def _loss_delay(self) -> int:
        base = max(self.rtt.latest_rtt, self.rtt.smoothed_rtt)
        return max(base * K_TIME_THRESHOLD_NUM // K_TIME_THRESHOLD_DEN, K_GRANULARITY)

    def _detect_lost(self, now: int) -> List[SentPacket]:
        self.loss_time = None
        lost: List[SentPacket] = []
        largest_acked = self.largest_acked
        # Packets are tracked in send (insertion) order, so candidates below
        # largest_acked sit at the front; stop at the first newer one.
        candidates: List[int] = []
        for pn in self.sent:
            if pn >= largest_acked:
                break
            candidates.append(pn)
        if not candidates:
            return lost
        delay = self._loss_delay()
        threshold_time = now - delay
        for pn in candidates:
            sp = self.sent[pn]
            if sp.time_sent <= threshold_time or self.largest_acked - pn >= K_PACKET_THRESHOLD:
                del self.sent[pn]
                lost.append(sp)
                if sp.in_flight:
                    self.bytes_in_flight -= sp.size
                if sp.ack_eliciting:
                    self.ack_eliciting_in_flight -= 1
                self.lost_packets_total += 1
                self._remember_lost(sp.pn, now)
            elif self.loss_time is None or sp.time_sent + delay < self.loss_time:
                self.loss_time = sp.time_sent + delay
        return lost

    def _prune_lost_history(self, now: int) -> None:
        """Forget losses old enough that a late ACK can no longer arrive."""
        horizon = now - max(4 * self.rtt.pto_interval(), ms(500))
        # Entries are inserted in declared-lost order, so pop from the front.
        while self._lost_history:
            pn, declared = next(iter(self._lost_history.items()))
            if declared >= horizon:
                break
            del self._lost_history[pn]
            self._lost_sorted = None

    def _remember_lost(self, pn: int, now: int) -> None:
        self._lost_history[pn] = now
        self._lost_sorted = None
        if len(self._lost_history) > LOST_HISTORY_LIMIT:
            # Drop the oldest half to amortize the cleanup.
            for key in list(self._lost_history)[: LOST_HISTORY_LIMIT // 2]:
                del self._lost_history[key]

    # -- timers -----------------------------------------------------------------

    def pto_deadline(self) -> Optional[int]:
        if self.ack_eliciting_in_flight == 0:
            return None
        interval = self.rtt.pto_interval() * (1 << min(self.pto_count, 10))
        return self.time_of_last_ack_eliciting + interval

    def next_timeout(self) -> Optional[int]:
        """Earliest loss-detection deadline (time-threshold loss or PTO)."""
        loss = self.loss_time
        if self.ack_eliciting_in_flight == 0:
            return loss
        rtt = self.rtt  # RttEstimator.pto_interval() inline: asked on every wake-up
        interval = rtt.smoothed_rtt + max(4 * rtt.rttvar, K_GRANULARITY) + rtt.max_ack_delay_ns
        pto = self.time_of_last_ack_eliciting + interval * (1 << min(self.pto_count, 10))
        if loss is None:
            return pto
        return loss if loss < pto else pto

    def on_loss_timeout(self, now: int) -> Tuple[List[SentPacket], bool]:
        """Handle the loss-detection timer.

        Returns ``(lost_packets, pto_fired)``; on PTO the caller must send a
        probe (retransmission or PING).
        """
        if self.loss_time is not None and now >= self.loss_time:
            return self._detect_lost(now), False
        pto = self.pto_deadline()
        if pto is not None and now >= pto:
            self.pto_count += 1
            return [], True
        return [], False

    # -- misc -------------------------------------------------------------------

    def oldest_unacked(self) -> Optional[SentPacket]:
        for pn in self.sent:
            return self.sent[pn]
        return None
