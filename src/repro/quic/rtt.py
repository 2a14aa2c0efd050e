"""RTT estimation per RFC 9002 §5."""

from __future__ import annotations

from typing import Final

from repro.units import ms


class RttEstimator:
    """Tracks latest/min/smoothed RTT and RTT variance (all nanoseconds)."""

    INITIAL_RTT: Final[int] = ms(333)

    def __init__(self, max_ack_delay_ns: int = ms(25)):
        self.max_ack_delay_ns: int = max_ack_delay_ns
        self.latest_rtt: int = 0
        self.min_rtt: int = 0
        self.smoothed_rtt: int = self.INITIAL_RTT
        self.rttvar: int = self.INITIAL_RTT // 2
        self._has_sample: bool = False

    @property
    def has_sample(self) -> bool:
        return self._has_sample

    def update(self, latest_rtt_ns: int, ack_delay_ns: int = 0) -> None:
        """Feed one RTT sample (time from send to ACK receipt)."""
        if latest_rtt_ns <= 0:
            return
        self.latest_rtt = latest_rtt_ns
        if not self._has_sample:
            self._has_sample = True
            self.min_rtt = latest_rtt_ns
            self.smoothed_rtt = latest_rtt_ns
            self.rttvar = latest_rtt_ns // 2
            return
        self.min_rtt = min(self.min_rtt, latest_rtt_ns)
        # Only credit ack delay if doing so doesn't go below min_rtt.
        ack_delay = min(ack_delay_ns, self.max_ack_delay_ns)
        adjusted = latest_rtt_ns
        if adjusted - self.min_rtt >= ack_delay:
            adjusted -= ack_delay
        self.rttvar = (3 * self.rttvar + abs(self.smoothed_rtt - adjusted)) // 4
        self.smoothed_rtt = (7 * self.smoothed_rtt + adjusted) // 8

    def pto_interval(self, granularity_ns: int = ms(1)) -> int:
        """Probe timeout interval: srtt + max(4*rttvar, granularity) + max_ack_delay."""
        return self.smoothed_rtt + max(4 * self.rttvar, granularity_ns) + self.max_ack_delay_ns
