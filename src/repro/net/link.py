"""Point-to-point link: serialization + propagation.

The link serializes one frame at a time at its configured rate and delivers it
``propagation_ns`` after the last bit leaves. Its state is one timestamp, the
instant the line falls idle: a frame starts serializing at that instant or on
arrival, whichever is later, and its delivery is scheduled when the link
accepts it — one calendar entry per frame, as ns-3's point-to-point device
does. Senders may push while the line is busy; frames go out FIFO (the
backlog models the device's tx ring, which in this simulation is bounded by
the NIC, not the link).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigError
from repro.net.packet import Datagram, PacketSink
from repro.sim.engine import Simulator
from repro.units import BYTE_NS


class Link:
    """Unidirectional link with finite rate and fixed propagation delay."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rate_bps: int,
        propagation_ns: int = 0,
        sink: Optional[PacketSink] = None,
    ):
        if rate_bps <= 0:
            raise ConfigError(f"link {name!r}: rate_bps must be positive, got {rate_bps}")
        if propagation_ns < 0:
            raise ConfigError(
                f"link {name!r}: propagation_ns must not be negative, got {propagation_ns}"
            )
        self.sim: Simulator = sim
        self.name: str = name
        self.rate_bps: int = rate_bps
        self.propagation_ns: int = propagation_ns
        self.sink: Optional[PacketSink] = sink
        self._free_at: int = 0
        self.frames_sent: int = 0
        self.bytes_sent: int = 0

    def receive(self, dgram: Datagram) -> None:
        """Accept a frame: it serializes once the line is free, and its
        arrival at the sink is scheduled now."""
        sim = self.sim
        start = self._free_at if self._free_at > sim.now else sim.now
        # units.tx_time_ns inline: the rate was checked positive at build.
        self._free_at = end = start - (-dgram.serialized_size * BYTE_NS // self.rate_bps)
        self.frames_sent += 1
        self.bytes_sent += dgram.wire_size
        if self.sink is not None:
            sim.schedule_at(end + self.propagation_ns, self.sink.receive, dgram)
