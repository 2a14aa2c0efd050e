"""Point-to-point link: serialization + propagation.

The link serializes one frame at a time at its configured rate and delivers it
``propagation_ns`` after the last bit leaves. Senders may push while the link
is busy; frames queue FIFO (the queue models the device's tx ring, which in
this simulation is bounded by the NIC, not the link).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.errors import ConfigError
from repro.net.packet import Datagram, PacketSink
from repro.sim.engine import Simulator
from repro.units import tx_time_ns


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
        self.sim: Simulator = sim
        self.name: str = name
        self.rate_bps: int = rate_bps
        self.propagation_ns: int = propagation_ns
        self.sink: Optional[PacketSink] = sink
        self._queue: deque[Datagram] = deque()
        self._busy: bool = False
        self.frames_sent: int = 0
        self.bytes_sent: int = 0

    def receive(self, dgram: Datagram) -> None:
        """Accept a frame for transmission (queues if the link is busy)."""
        if self._busy:
            self._queue.append(dgram)
        else:
            self._busy = True
            self.sim.schedule(tx_time_ns(dgram.serialized_size, self.rate_bps), self._finish, dgram)

    @property
    def busy(self) -> bool:
        return self._busy

    @property
    def queued(self) -> int:
        return len(self._queue)

    def _finish(self, dgram: Datagram) -> None:
        self.frames_sent += 1
        self.bytes_sent += dgram.wire_size
        if self.sink is not None:
            if self.propagation_ns > 0:
                self.sim.schedule(self.propagation_ns, self.sink.receive, dgram)
            else:
                self.sink.receive(dgram)
        if self._queue:
            nxt = self._queue.popleft()
            self.sim.schedule(tx_time_ns(nxt.serialized_size, self.rate_bps), self._finish, nxt)
        else:
            self._busy = False
