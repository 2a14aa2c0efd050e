"""Qdisc base class and statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.net.packet import Datagram, PacketSink
from repro.sim.engine import Simulator


@dataclass
class QdiscStats:
    enqueued: int = 0
    dequeued: int = 0
    #: Total drops; netem additionally splits it into the loss-model share
    #: (``dropped_loss``, injected impairment) and the queue-limit share
    #: (``dropped_overflow``, congestion) so analyses can tell the two apart.
    dropped: int = 0
    dropped_loss: int = 0
    dropped_overflow: int = 0
    dropped_late: int = 0
    bytes_sent: int = 0

    def as_dict(self) -> dict:
        return {
            "enqueued": self.enqueued,
            "dequeued": self.dequeued,
            "dropped": self.dropped,
            "dropped_loss": self.dropped_loss,
            "dropped_overflow": self.dropped_overflow,
            "dropped_late": self.dropped_late,
            "bytes_sent": self.bytes_sent,
        }


class Qdisc:
    """Base queueing discipline.

    Subclasses implement :meth:`enqueue` and call :meth:`emit` when a packet
    should leave toward the device.
    """

    #: Whether this qdisc schedules packets based on SCM_TXTIME timestamps.
    honors_txtime = False

    def __init__(self, sim: Simulator, name: str, sink: Optional[PacketSink] = None):
        self.sim = sim
        self.name = name
        self.sink = sink
        self.stats = QdiscStats()

    def enqueue(self, dgram: Datagram) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    # Qdiscs are packet sinks too, so they can be stacked. ``receive`` looks
    # ``enqueue`` up on the instance every time: that is the loss-injection
    # seam (tests replace ``enqueue`` on one qdisc), so it is not an alias.
    def receive(self, dgram: Datagram) -> None:
        self.enqueue(dgram)

    def emit(self, dgram: Datagram) -> None:
        self.stats.dequeued += 1
        self.stats.bytes_sent += dgram.wire_size
        if self.sink is not None:
            self.sink.receive(dgram)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} {self.stats.as_dict()}>"
