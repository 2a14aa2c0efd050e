"""BBR v1-style congestion control (Cardwell et al., 2017).

Model-based control: estimate the bottleneck bandwidth (windowed max of
delivery-rate samples) and the round-trip propagation delay (windowed min
RTT), then pace at ``pacing_gain x BtlBw`` with ``cwnd = cwnd_gain x BDP``.

State machine: STARTUP (gain 2/ln2 ≈ 2.885) → DRAIN → PROBE_BW (8-phase gain
cycle 1.25, 0.75, 1, 1, 1, 1, 1, 1) with periodic PROBE_RTT. This controller
*requires* pacing — picoquic's BBR is the paper's example of near-perfect
user-space pacing.

:class:`BbrParams` exposes the knobs used to model ngtcp2's BBR, whose
behaviour in the paper "leads to an increase of loss by an order of
magnitude": a higher cwnd gain, no drain phase and a startup that only exits
on the full-pipe heuristic (never on loss), which keeps the bottleneck queue
persistently overfull.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.cc.base import CongestionController, K_INITIAL_RTT_NS

if TYPE_CHECKING:
    from repro.quic.recovery import RateSample, SentPacket
    from repro.quic.rtt import RttEstimator
from repro.units import SEC, ms

STARTUP_GAIN = 2.0 / math.log(2.0)  # 2.885
DRAIN_GAIN = 1.0 / STARTUP_GAIN
PROBE_BW_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
BTLBW_FILTER_ROUNDS = 10
RTPROP_FILTER_NS = 10 * SEC
PROBE_RTT_DURATION = ms(200)
PROBE_RTT_INTERVAL = 10 * SEC
FULL_BW_THRESHOLD = 1.25
FULL_BW_COUNT = 3


@dataclass(frozen=True)
class BbrParams:
    cwnd_gain: float = 2.0
    drain_enabled: bool = True
    probe_rtt_enabled: bool = True
    #: React to loss by bounding cwnd at delivered+loss headroom (BBRv1 does
    #: only minimal loss response; disabling models ngtcp2's variant which
    #: ignores loss entirely during startup and probing).
    loss_response: bool = True


#: Parameterization reproducing ngtcp2's lossy BBR behaviour (Section 4.1):
#: an over-sized cwnd gain, no drain phase, no PROBE_RTT (so the RTT estimate
#: inflates with its own standing queue) and no loss response — together they
#: keep the bottleneck buffer overfull and dropping.
NGTCP2_BBR_PARAMS = BbrParams(
    cwnd_gain=3.5, drain_enabled=False, probe_rtt_enabled=False, loss_response=False
)


class Bbr(CongestionController):
    name = "bbr"

    def __init__(self, params: BbrParams = BbrParams(), **kwargs):
        super().__init__(**kwargs)
        self.params = params
        self.state = "startup"
        self.pacing_gain = STARTUP_GAIN
        self.cwnd_gain_now = STARTUP_GAIN

        self._btlbw_samples: deque[tuple[int, float]] = deque()  # (round, bps)
        self.btlbw_bps = 0.0
        self.rtprop_ns = 0
        self._rtprop_stamp = 0

        self.round_count = 0
        self._next_round_delivered = 0
        self._delivered = 0

        self._full_bw = 0.0
        self._full_bw_count = 0
        self.filled_pipe = False

        self._cycle_index = 0
        self._cycle_stamp = 0

        self._probe_rtt_done_at: Optional[int] = None
        self._probe_rtt_last = 0
        self._cwnd_before_probe_rtt = 0
        self._rtprop_expired = False

    # -- pacing -----------------------------------------------------------

    def pacing_rate_bps(self, rtt: RttEstimator) -> int:
        if self.btlbw_bps > 0:
            return max(int(self.pacing_gain * self.btlbw_bps), 8 * self.mtu)
        # No bandwidth estimate yet: pace from the initial window.
        srtt = rtt.smoothed_rtt if rtt.has_sample else K_INITIAL_RTT_NS
        return max(int(self.pacing_gain * self.cwnd * 8 * SEC / srtt), 8 * self.mtu)

    def _bdp_bytes(self, gain: float = 1.0) -> int:
        if self.btlbw_bps <= 0 or self.rtprop_ns <= 0:
            return self.cwnd
        return int(gain * self.btlbw_bps * self.rtprop_ns / (8 * SEC))

    # -- rate samples -------------------------------------------------------

    def on_rate_sample(self, sample: RateSample, now: int) -> None:
        if sample.is_app_limited and sample.delivery_rate_bps < self.btlbw_bps:
            return
        self._btlbw_samples.append((self.round_count, sample.delivery_rate_bps))
        while (
            self._btlbw_samples
            and self._btlbw_samples[0][0] < self.round_count - BTLBW_FILTER_ROUNDS
        ):
            self._btlbw_samples.popleft()
        self.btlbw_bps = max(bw for _, bw in self._btlbw_samples)

    def _update_rtprop(self, rtt: RttEstimator, now: int) -> None:
        latest = rtt.latest_rtt
        if latest <= 0:
            return
        if (
            self.rtprop_ns == 0
            or latest < self.rtprop_ns
            or now - self._rtprop_stamp > RTPROP_FILTER_NS
        ):
            self.rtprop_ns = latest
            self._rtprop_stamp = now

    # -- acks -------------------------------------------------------------------

    def on_packets_acked(
        self,
        acked: Sequence[SentPacket],
        now: int,
        rtt: RttEstimator,
        bytes_in_flight: int,
        lost_packets_total: int = 0,
    ) -> None:
        if not acked:
            return
        self._delivered += sum(sp.size for sp in acked)
        if acked[-1].delivered >= self._next_round_delivered:
            self.round_count += 1
            self._next_round_delivered = self._delivered
            self._on_round_start(now, bytes_in_flight)
        # ProbeRTT is triggered by the rtprop filter *expiring*; evaluate the
        # expiry before the update below refreshes the stamp.
        self._rtprop_expired = now - self._rtprop_stamp > PROBE_RTT_INTERVAL
        self._update_rtprop(rtt, now)
        self._advance_state(now, bytes_in_flight)
        self._set_cwnd()
        self._record(now)

    def _on_round_start(self, now: int, bytes_in_flight: int) -> None:
        # Full-pipe detection is evaluated once per round trip: the pipe is
        # full when BtlBw stopped growing >= 25% for three consecutive rounds.
        self._check_full_pipe()

    def _check_full_pipe(self) -> None:
        if self.filled_pipe:
            return
        if self.btlbw_bps >= self._full_bw * FULL_BW_THRESHOLD:
            self._full_bw = self.btlbw_bps
            self._full_bw_count = 0
            return
        self._full_bw_count += 1
        if self._full_bw_count >= FULL_BW_COUNT:
            self.filled_pipe = True

    def _advance_state(self, now: int, bytes_in_flight: int) -> None:
        if self.state == "startup" and self.filled_pipe:
            if self.params.drain_enabled:
                self.state = "drain"
                self.pacing_gain = DRAIN_GAIN
                self.cwnd_gain_now = STARTUP_GAIN
            else:
                self._enter_probe_bw(now)
        if self.state == "drain" and bytes_in_flight <= self._bdp_bytes(1.0):
            self._enter_probe_bw(now)
        if self.state == "probe_bw":
            self._cycle_phase(now, bytes_in_flight)
        if self.params.probe_rtt_enabled:
            self._maybe_probe_rtt(now)

    def _enter_probe_bw(self, now: int) -> None:
        self.state = "probe_bw"
        self.cwnd_gain_now = self.params.cwnd_gain
        self._cycle_index = 2  # start in a cruise phase like BBRv1
        self._cycle_stamp = now
        self.pacing_gain = PROBE_BW_GAINS[self._cycle_index]

    def _cycle_phase(self, now: int, bytes_in_flight: int) -> None:
        interval = max(self.rtprop_ns, ms(10))
        if now - self._cycle_stamp >= interval:
            self._cycle_index = (self._cycle_index + 1) % len(PROBE_BW_GAINS)
            self._cycle_stamp = now
            self.pacing_gain = PROBE_BW_GAINS[self._cycle_index]

    def _maybe_probe_rtt(self, now: int) -> None:
        if self.state == "startup":
            return
        if self.state != "probe_rtt":
            if self._rtprop_expired and now - self._probe_rtt_last > PROBE_RTT_INTERVAL:
                self.state = "probe_rtt"
                self._cwnd_before_probe_rtt = self.cwnd
                self.pacing_gain = 1.0
                self._probe_rtt_done_at = now + PROBE_RTT_DURATION
        elif self._probe_rtt_done_at is not None and now >= self._probe_rtt_done_at:
            self._probe_rtt_last = now
            self._rtprop_stamp = now
            self.cwnd = max(self._cwnd_before_probe_rtt, self.min_cwnd)
            self._enter_probe_bw(now)

    def _set_cwnd(self) -> None:
        if self.state == "probe_rtt":
            self.cwnd = max(4 * self.mtu, self.min_cwnd)
            return
        target = self._bdp_bytes(self.cwnd_gain_now)
        if self.filled_pipe:
            self.cwnd = max(target, self.min_cwnd)
        else:
            # During startup, never shrink.
            self.cwnd = max(self.cwnd, target, self.min_cwnd)

    # -- losses -----------------------------------------------------------------

    def on_packets_lost(
        self,
        lost: Sequence[SentPacket],
        now: int,
        bytes_in_flight: int,
        lost_packets_total: int,
    ) -> None:
        if not lost or not self.params.loss_response:
            return
        largest_sent_time = max(sp.time_sent for sp in lost)
        if not self._should_trigger_congestion_event(largest_sent_time):
            return
        self.congestion_events += 1
        self.recovery_start_time = now
        # BBRv1's modest loss response: cap the window at what was actually
        # delivered plus headroom (conservation), never below minimum.
        lost_bytes = sum(sp.size for sp in lost)
        self.cwnd = max(self.cwnd - lost_bytes, self._bdp_bytes(1.0), self.min_cwnd)
        self._on_startup_loss()
        self._record(now)

    def _on_startup_loss(self) -> None:
        """Persistent startup loss marks the pipe as full (like TCP BBR's
        loss-based startup exit in later revisions)."""
        if not self.filled_pipe:
            self._full_bw_count += 1
            if self._full_bw_count >= FULL_BW_COUNT:
                self.filled_pipe = True
