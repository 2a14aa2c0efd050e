"""BBRv2-flavoured congestion control.

The paper's related work points at the BBRv2/BBRv3 evaluations (Song et al.,
Zeynali et al.): v2's headline change is *loss awareness* — an ``inflight_hi``
bound learned from loss, explicit probe phases (DOWN → CRUISE → REFILL → UP)
and cruising with headroom below the learned bound, instead of v1's
loss-blind 2xBDP. This implementation keeps the recognizable v2 skeleton on
top of :class:`~repro.cc.bbr.Bbr`, whose BtlBw and RTprop filters, round
counting, full-pipe detection, pacing rate and PROBE_RTT it inherits:

* STARTUP / DRAIN as in v1 (2/ln2 gain, plateau detection);
* PROBE_BW as a DOWN/CRUISE/REFILL/UP cycle;
* loss during UP (or anywhere beyond a 2 % per-round loss rate) caps
  ``inflight_hi`` to ``beta x`` the current inflight and forces DOWN;
* CRUISE keeps inflight at ``headroom x inflight_hi``.

Like v1 it *requires* pacing; the pacer consumes ``pacing_rate_bps``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.cc.bbr import DRAIN_GAIN, STARTUP_GAIN, Bbr

if TYPE_CHECKING:
    from repro.quic.recovery import SentPacket


@dataclass(frozen=True)
class Bbr2Params:
    beta: float = 0.7  # inflight_hi reduction on loss
    loss_thresh: float = 0.02  # per-round loss rate that counts as "too much"
    headroom: float = 0.9  # cruise below inflight_hi
    cwnd_gain: float = 2.0
    probe_up_gain: float = 1.25
    probe_down_gain: float = 0.9
    cruise_rtts: int = 2


class Bbr2(Bbr):
    name = "bbr2"

    def __init__(self, params: Bbr2Params = Bbr2Params(), **kwargs):
        super().__init__(**kwargs)
        #: Replaces v1's knobs, which only methods overridden here read.
        self.params = params

        #: Loss-learned inflight bound (None until the first loss signal).
        self.inflight_hi: Optional[int] = None
        self._round_lost_bytes = 0
        self._round_start_delivered = 0
        self._cruise_rounds = 0
        self._phase_rounds = 0

    # -- rounds ---------------------------------------------------------------

    def _on_round_start(self, now: int, bytes_in_flight: int) -> None:
        # Per-round loss-rate bookkeeping.
        delivered = self._delivered - self._round_start_delivered
        self._round_start_delivered = self._delivered
        total = delivered + self._round_lost_bytes
        loss_rate = self._round_lost_bytes / total if total else 0.0
        if loss_rate > self.params.loss_thresh and self.filled_pipe:
            self._cap_inflight(bytes_in_flight, now)
        elif self.state == "probe_up" and self.inflight_hi is not None:
            # Probing succeeded for a round: raise the learned bound (v2
            # grows inflight_hi while UP sees acceptable loss).
            self.inflight_hi += max(self.mtu, self.inflight_hi // 8)
        self._round_lost_bytes = 0
        self._check_full_pipe()
        if self.state == "cruise":
            self._cruise_rounds += 1
        self._phase_rounds += 1

    def _cap_inflight(self, bytes_in_flight: int, now: int) -> None:
        base = bytes_in_flight if bytes_in_flight > 0 else self._bdp_bytes()
        capped = max(int(base * self.params.beta), 4 * self.mtu)
        self.inflight_hi = min(self.inflight_hi, capped) if self.inflight_hi else capped
        self.congestion_events += 1
        self.recovery_start_time = now
        if self.state in ("probe_up", "cruise", "refill"):
            self._enter("probe_down")

    # -- state machine ------------------------------------------------------------

    def _enter(self, state: str) -> None:
        self.state = state
        self.pacing_gain = {
            "startup": STARTUP_GAIN,
            "drain": DRAIN_GAIN,
            "probe_down": self.params.probe_down_gain,
            "cruise": 1.0,
            "refill": 1.0,
            "probe_up": self.params.probe_up_gain,
        }[state]
        if state == "cruise":
            self._cruise_rounds = 0
        self._phase_rounds = 0

    def _advance_state(self, now: int, bytes_in_flight: int) -> None:
        if self.state == "startup" and self.filled_pipe:
            self._enter("drain")
        if self.state == "drain" and bytes_in_flight <= self._bdp_bytes():
            self._enter("probe_down")
        if self.state == "probe_down":
            # Down until inflight decayed to the cruise target (or give up
            # after a couple of rounds — the pipe may simply be short).
            if bytes_in_flight <= self._cruise_target() or self._phase_rounds >= 2:
                self._enter("cruise")
        elif self.state == "cruise":
            if self._cruise_rounds >= self.params.cruise_rtts:
                self._enter("refill")
        elif self.state == "refill":
            if self._phase_rounds >= 1:
                # One round of refilling the pipe, then probe upward.
                self._enter("probe_up")
        elif self.state == "probe_up":
            hit_bound = (
                self.inflight_hi is not None and bytes_in_flight >= self.inflight_hi
            ) or (self.inflight_hi is None and bytes_in_flight >= self._bdp_bytes(1.25))
            if hit_bound or self._phase_rounds >= 4:
                self._enter("probe_down")
        self._maybe_probe_rtt(now)

    def _enter_probe_bw(self, now: int) -> None:
        """Where PROBE_RTT resumes: v2's cycle starts DOWN."""
        self._enter("probe_down")

    def _cruise_target(self) -> int:
        if self.inflight_hi is not None:
            return int(self.inflight_hi * self.params.headroom)
        return self._bdp_bytes()

    def _set_cwnd(self) -> None:
        if self.state == "probe_rtt":
            self.cwnd = max(4 * self.mtu, self.min_cwnd)
            return
        target = self._bdp_bytes(self.params.cwnd_gain)
        if self.inflight_hi is not None:
            bound = (
                self._cruise_target()
                if self.state in ("cruise", "probe_down")
                else self.inflight_hi
            )
            target = min(target, bound)
        if self.filled_pipe:
            self.cwnd = max(target, self.min_cwnd)
        else:
            self.cwnd = max(self.cwnd, target, self.min_cwnd)

    # -- losses ----------------------------------------------------------------------

    def on_packets_lost(
        self,
        lost: Sequence[SentPacket],
        now: int,
        bytes_in_flight: int,
        lost_packets_total: int,
    ) -> None:
        if not lost:
            return
        self._round_lost_bytes += sum(sp.size for sp in lost)
        largest_sent_time = max(sp.time_sent for sp in lost)
        if not self._should_trigger_congestion_event(largest_sent_time):
            return
        if self.filled_pipe:
            self._cap_inflight(bytes_in_flight + sum(sp.size for sp in lost), now)
            self._set_cwnd()
        else:
            self._on_startup_loss()
        self._record(now)

    def on_ecn_ce(self, now: int, sent_time: int) -> None:
        """BBRv2 treats CE like a (softer) loss signal on the inflight bound."""
        if not self._should_trigger_congestion_event(sent_time):
            return
        if self.filled_pipe and self.inflight_hi is not None:
            self.inflight_hi = max(int(self.inflight_hi * 0.95), 4 * self.mtu)
            self.recovery_start_time = now
            self._set_cwnd()
